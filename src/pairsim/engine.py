"""Run orchestration: trial simulation, peak-area reduction, exports, sweeps.

One trial is a full duty cycle: write pulse (Stokes gate opens at the cycle
start), storage delay, read pulse (anti-Stokes gate opens ``delay_dt``
later), gated detection on all four detectors.  Trials are simulated in
fixed-size blocks; from version 0.3.0 block b draws from an SFC64 stream
keyed by ``SeedSequence(seed, spawn_key=(b,))``, so results are
bit-identical no matter how blocks are distributed over workers or in what
order they complete.  Binomial stages draw nothing for a zero count.
Blocks are reduced to click tables (block-local trial index as uint16 and
within-cycle offset as float64 of every click, 10 bytes a click) and
per-trial click-pattern counts immediately; raw events are never kept.

The block tables are the run's storage, and ``_clicks_in`` their one
reader.  Peak areas are counted one block at a time and singles come from
the pattern counts, so a run that nothing else reads never builds run-level
arrays.  ``RunResult.streams`` and ``click_trials`` are built from the
blocks on each read, and ``export_run`` reads one detector at a time.

Blocks are sampled by ``_sampled``, the one scheduler of runs and sweeps
(see its docstring).

Active-trial sampler.  Every trial has eight independent sources (see
``SOURCES``): the write excitation, the diffused-in memory excitations
Poisson(memory_diffusion_in * (1 - survival)), the Stokes and anti-Stokes
backgrounds, and one Bernoulli(1 - exp(-dark_mean)) dark event per
detector.  A trial in which all of them are zero cannot click, so only
*active* trials, where at least one is nonzero, are drawn:

1. With z_i the closed-form zero probability of source i, a trial is active
   with probability a = 1 - prod(z_i); active trials are placed by
   geometric gaps.
2. Each active trial draws its first nonzero source i with probability
   z_1 ... z_{i-1} (1 - z_i) / a.  Sources before it are zero, source i
   gets a zero-truncated draw (geometric: 1 + Geom0 by memorylessness;
   classical: total 1 + Geom0 split Binomial(k, 1/2); Poisson: first
   arrival T < 1, then 1 + Poisson(mu (1 - T)); dark: a sure click) and
   later sources are drawn unconditionally.
3. The physical chain (survival, retrieval, transmission, background,
   50/50 split, gated click) runs on the active trials only.  A
   detector's unconditional dark term is folded into its click draw.

The joint law of every trial is exactly that of drawing all sources for
every trial; quiet trials land in pattern 0.  The sampler uses nothing
from the oracle, which stays an independent check on it.

Peak areas are counted for the pairs (A,B), (C,D), (A,C) and, as a
consistency duplicate, (B,D).  The Stokes detector starts the
time-interval analysis for the cross pairs, matching the write-then-read
time order; the lower-lettered detector starts for the auto pairs.  Peak
windows of the cross pairs are shifted by the write-read delay since their
stop gate lags the start gate by exactly that amount.  N and M come
straight from the click tables (``tia.peak_areas_from_clicks``, once per
block and pair, on one stop table per pair: the starts of block b against
the stops of block b and of the first ``baseline_peaks`` trials after it,
so every start is counted once); only (A,B), (C,D) and (A,C) decide the
Cauchy-Schwarz report, and (B,D) is reported as a check.  The coincidence
histograms are built from the timestamps the first time
``RunResult.histograms`` is read, which ``export_run`` does.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .analysis import (REPORT_FIELDS, CorrelationReport, SinglesRates,
                       UndefinedCorrelationError, cauchy_schwarz, g_ratio,
                       render_report, singles_rates, verdict)
from .config import (ConfigError, ExperimentConfig, as_integer, render_config,
                     render_value)
from .optics import DETECTOR_IDS, add_background, detect_batch, split, thin
from .source import SourceModel, decohere_memory, retrieve, sample_write
from .tia import CoincidenceHistogram, PeakAreas, TimestampStream, export_histogram
from .tia import histogram as build_histogram
from .tia import peak_areas_from_clicks as extract_peak_areas

BLOCK_TRIALS = 1 << 16
"""Trials per simulation block; fixed so block boundaries never depend on
worker count.  Do not change without bumping the package version: block
boundaries are part of the reproducibility contract."""
assert BLOCK_TRIALS <= 1 << 16, "block-local trial indices are stored as uint16"

GATE1_START = 0.0

SAMPLER = "active_trial"
"""Name of the trial sampler, recorded in every manifest."""

# Independent per-trial sources, in the order that defines a trial's
# "first nonzero source".
SOURCES = ("write", "diffusion", "bg_stokes", "bg_antistokes",
           "dark_A", "dark_B", "dark_C", "dark_D")

# (label, start detector, stop detector, peak windows shifted by delay_dt?)
# The first three decide the report; "12b" is the consistency duplicate.
HISTOGRAM_PAIRS = (
    ("11", "A", "B", False),
    ("22", "C", "D", False),
    ("12", "A", "C", True),
    ("12b", "B", "D", True),
)


@dataclass
class RunManifest:
    """Provenance of one run; re-running it reproduces bit-identical outputs."""

    seed: int
    trials: int
    workers: int
    wall_time_seconds: float
    config_text: str
    outputs: list[str] = field(default_factory=list)
    version: str = __version__
    sampler: str = SAMPLER

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


@dataclass
class RunResult:
    """Everything simulate_run produces for one configuration.

    The clicks are held as ``block_clicks``: per block, per detector, the
    block-local trial indices (uint16) and within-cycle offsets (float64).
    Reading the result never changes them.  ``streams`` and
    ``click_trials`` are built from them on each read; ``histograms`` are
    built on first read and kept.
    """

    config: ExperimentConfig
    trials: int
    seed: int
    block_clicks: list[dict[str, tuple[np.ndarray, np.ndarray]]] = field(repr=False)
    peaks: dict[str, PeakAreas]
    g: dict[str, tuple[float, float]]
    report: CorrelationReport | None
    undefined_reason: str | None
    pattern_counts: np.ndarray
    singles: SinglesRates
    wall_time_seconds: float
    workers: int

    def _clicks(self, det: str) -> tuple[np.ndarray, np.ndarray]:
        """Run-level trial indices and timestamps of every click of ``det``."""
        trials, timestamps = _clicks_in(self.block_clicks, det, 0, self.trials)
        timestamps += trials * self.config.cycle_period
        return trials, timestamps

    @property
    def streams(self) -> dict[str, TimestampStream]:
        """Click timestamps of every detector over the run, built on each read."""
        return {det: TimestampStream(det, self._clicks(det)[1]) for det in DETECTOR_IDS}

    @property
    def click_trials(self) -> dict[str, np.ndarray]:
        """Trial index of every click per detector, built on each read."""
        return {det: self._clicks(det)[0] for det in DETECTOR_IDS}

    @functools.cached_property
    def histograms(self) -> dict[str, CoincidenceHistogram]:
        """Coincidence histogram of every pair, built on first access."""
        streams = self.streams
        return {label: build_histogram(streams[start], streams[stop],
                                       self.config.hist_bin, self.config.hist_span)
                for label, start, stop, _ in HISTOGRAM_PAIRS}


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    """SFC64 stream of one block, keyed by SeedSequence(seed, spawn_key=(block,)).

    Every (seed, block) pair gets its own independent stream.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.SFC64(ss))


def _source_cdf(config: ExperimentConfig) -> np.ndarray:
    """P(some source among the first i + 1 is nonzero), over SOURCES in order.

    The last entry is the probability that a trial is active.
    """
    p = config.p_excitation
    write_vacuum = -math.log1p(
        p if config.source_model is SourceModel.QUANTUM_TMS else 2.0 * p)
    log_zero = [write_vacuum, -_diffusion_mean(config),
                -config.bg_stokes_mean, -config.bg_antistokes_mean]
    log_zero += [-config.dark_mean] * len(DETECTOR_IDS)
    return -np.expm1(np.cumsum(log_zero))


def _diffusion_mean(config: ExperimentConfig) -> float:
    """Mean diffused-in excitations; the same expression decohere_memory uses."""
    survival = math.exp(-config.delay_dt / config.memory_lifetime)
    return config.memory_diffusion_in * (1.0 - survival)


def _active_trials(n: int, active: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices in [0, n), each present with probability ``active``.

    Drawn as geometric gaps, so the work scales with the active trials.
    A gap past n ends the block whatever its length, so gaps are capped at
    n + 1; for a tiny ``active`` they would otherwise overflow int64.
    """
    if active == 0.0:
        return np.empty(0, dtype=np.int64)
    batch = int(n * active + 5.0 * math.sqrt(n * active)) + 16
    chunks, last = [], -1
    while last < n:  # one batch almost always reaches past n
        gaps = np.minimum(rng.geometric(active, size=batch), n + 1)
        chunks.append(last + np.cumsum(gaps))
        last = chunks[-1][-1]
    positions = np.concatenate(chunks)
    return positions[:np.searchsorted(positions, n)]


def _first_sources(cdf: np.ndarray, rng: np.random.Generator, m: int) -> np.ndarray:
    """Index of the first nonzero source of each of m active trials."""
    weights = np.diff(cdf, prepend=0.0)
    last = np.flatnonzero(weights > 0)[-1]
    first = np.searchsorted(cdf, rng.random(m) * cdf[-1], side="right")
    # u * a can round up to a itself; that mass belongs to the last source.
    return np.minimum(first, last).astype(np.uint8)


def _poisson_nonzero(mean: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Poisson(mean) conditioned on >= 1.

    The first arrival T of a rate-``mean`` process on [0, 1) is drawn
    conditioned on T < 1; the rest of the interval adds Poisson(mean (1 - T)).
    """
    u = rng.random(size)
    rest = np.maximum(mean + np.log1p(u * np.expm1(-mean)), 0.0)
    return 1 + rng.poisson(rest)


def _pad(n: np.ndarray, length: int) -> np.ndarray:
    return np.concatenate([n, np.zeros(length - len(n), dtype=np.int64)])


def _add_poisson_source(n: np.ndarray, mean: float, start: int, stop: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Add the Poisson source owning grouped slice [start, stop) to n.

    Returns stop entries: an unconditional draw on [0, start), where an
    earlier source already fired, and a zero-truncated one on the slice.
    """
    return np.concatenate([add_background(_pad(n, start), mean, rng),
                           _poisson_nonzero(mean, rng, stop - start)])


def _simulate_block(config: ExperimentConfig, seed: int, block_index: int, n: int):
    """Simulate the n trials of block ``block_index`` and reduce them to clicks.

    Returns ({detector: (block-local trial indices as uint16, within-cycle
    offsets)}, pattern counts).
    Only active trials are drawn (see the module docstring); they are
    grouped by first nonzero source, so source i is unconditional on the
    groups before its own, zero-truncated on its own group and zero after
    it.  The rng call order below is fixed; changing it changes every result.
    """
    rng = _block_rng(seed, block_index)
    cdf = _source_cdf(config)
    active = _active_trials(n, cdf[-1], rng)
    pattern_counts = np.zeros(16, dtype=np.int64)
    pattern_counts[0] = n - active.size
    clicks = {det: (np.empty(0, dtype=np.uint16), np.empty(0)) for det in DETECTOR_IDS}
    if active.size == 0:
        return clicks, pattern_counts
    first = _first_sources(cdf, rng, active.size)
    order = np.argsort(first, kind="stable")
    end = np.cumsum(np.bincount(first, minlength=len(SOURCES)))

    excitation = sample_write(config.p_excitation, config.source_model, rng,
                              size=end[0], nonzero=True)
    memory = np.concatenate([
        decohere_memory(excitation.n_memory, config.delay_dt, config.memory_lifetime,
                        config.memory_diffusion_in, rng),
        _poisson_nonzero(_diffusion_mean(config), rng, end[1] - end[0])])
    n_antistokes = retrieve(memory, config.retrieval_eff, rng)

    at_splitter_s = _add_poisson_source(
        thin(excitation.n_stokes, config.transmission, rng),
        config.bg_stokes_mean, end[1], end[2], rng)
    k_a, k_b = split(at_splitter_s, rng)

    at_splitter_as = _add_poisson_source(
        thin(n_antistokes, config.transmission, rng),
        config.bg_antistokes_mean, end[2], end[3], rng)
    k_c, k_d = split(at_splitter_as, rng)

    gates = {"A": GATE1_START, "B": GATE1_START,
             "C": config.delay_dt, "D": config.delay_dt}
    photons = {"A": k_a, "B": k_b, "C": k_c, "D": k_d}
    pattern = np.zeros(active.size, dtype=np.uint8)
    offsets = {}
    for bit, det in enumerate(DETECTOR_IDS):
        # This detector's dark source owns slice [start, stop): a sure click.
        start, stop = end[3 + bit], end[4 + bit]
        clicked, unforced = detect_batch(
            _pad(photons[det], start), config.detector_eff, config.dark_mean,
            gates[det], config.gate_width, rng)
        pattern[:start] |= clicked.view(np.uint8) << bit
        pattern[start:stop] |= 1 << bit
        forced = gates[det] + config.gate_width * rng.random(stop - start)
        offsets[det] = np.concatenate([unforced, forced])

    by_trial = np.empty_like(pattern)
    by_trial[order] = pattern
    pattern_counts += np.bincount(by_trial, minlength=16)
    for bit, det in enumerate(DETECTOR_IDS):
        # Offsets are i.i.d. and independent of the trial, so they can be
        # handed out in trial order.
        clicks[det] = (active[(by_trial & (1 << bit)) != 0].astype(np.uint16),
                       offsets[det])
    return clicks, pattern_counts


def _block_task(args):
    return _simulate_block(*args)


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(workers: int, n_blocks: int) -> int:
    """Worker processes actually started: never more than CPUs or blocks."""
    return min(workers, _available_cpus(), n_blocks)


def _block_tasks(config: ExperimentConfig, trials: int, seed: int) -> list[tuple]:
    """Arguments of every ``_block_task`` of a run, in block order."""
    n_blocks = (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    return [(config, seed, b, min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS))
            for b in range(n_blocks)]


def _sampled(runs: list[list[tuple]], workers: int):
    """Yield the block results of each run's ``_block_tasks``, in run order.

    With more than one worker, CPU and block, the package's one process pool
    runs them: run k + 1 is queued before run k is yielded, so the workers
    sample while the caller reduces, and at most two runs' blocks are queued
    or held.  Otherwise each run is sampled here when asked for.  Ending or
    closing the generator shuts the pool down with queued blocks cancelled.
    """
    pool_size = _pool_size(workers, sum(map(len, runs)))
    if pool_size < 2:
        for tasks in runs:
            yield [_block_task(task) for task in tasks]
        return
    pool = ProcessPoolExecutor(max_workers=pool_size)
    try:
        queued = [pool.submit(_block_task, task) for task in runs[0]]
        for following in runs[1:] + [[]]:
            current = queued
            queued = [pool.submit(_block_task, task) for task in following]
            yield [future.result() for future in current]
    finally:
        pool.shutdown(cancel_futures=True)


def _clicks_in(blocks, det: str, first: int, stop: int):
    """Clicks of ``det`` in trials [first, stop) of the run, copied from the blocks.

    Returns their trial indices relative to ``first`` (int64) and their
    within-cycle offsets, in trial order; ``stop`` may lie past the run.
    This is the only reader of the block tables.
    """
    pieces, size = [], 0
    for b in range(first // BLOCK_TRIALS, min(len(blocks), -(-stop // BLOCK_TRIALS))):
        local, offsets = blocks[b][det]
        base = b * BLOCK_TRIALS
        lo = local.searchsorted(first - base) if first > base else 0
        hi = local.searchsorted(stop - base) if stop - base < BLOCK_TRIALS else local.size
        pieces.append((base - first, local[lo:hi], offsets[lo:hi]))
        size += hi - lo
    trials, times = np.empty(size, dtype=np.int64), np.empty(size)
    at = 0
    for shift, local, offsets in pieces:
        trials[at:at + local.size] = local
        if shift:
            trials[at:at + local.size] += shift
        times[at:at + local.size] = offsets
        at += local.size
    return trials, times


def _count_peaks(blocks, start_det: str, stop_det: str, shift: float,
                 baseline_peaks: int) -> PeakAreas:
    """Peak areas of one pair, counted one block at a time.

    The starts of each block meet the stops of that block and of the
    ``baseline_peaks`` trials after it, so every start is counted exactly
    once; the integer counts of the blocks add up to those of the run.
    Every call gets the same stop table, one entry per trial of a block
    and of its reach, which each call leaves all -inf.
    """
    counts = np.zeros(baseline_peaks + 1, dtype=np.int64)
    table = np.full(BLOCK_TRIALS + baseline_peaks, -np.inf)
    for first in range(0, len(blocks) * BLOCK_TRIALS, BLOCK_TRIALS):
        starts = _clicks_in(blocks, start_det, first, first + BLOCK_TRIALS)
        stops = _clicks_in(blocks, stop_det, first, first + BLOCK_TRIALS + baseline_peaks)
        counts += extract_peak_areas(*starts, *stops, shift, baseline_peaks, table)
    return PeakAreas.from_counts(counts)


def _run_arguments(config: ExperimentConfig, trials, seed, workers):
    """Integer trials, seed (the config's by default) and workers.

    ValueError for a worker count, trial count or seed that no run accepts.
    """
    trials = None if trials is None else as_integer(trials, "trials")
    seed = as_integer(config.rng_seed if seed is None else seed, "seed")
    workers = as_integer(workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return trials, seed, workers


def simulate_run(config: ExperimentConfig, trials: int | None = None,
                 seed: int | None = None, workers: int = 1, *,
                 _blocks=None) -> RunResult:
    """Execute a full run: trials, peak areas, correlation report.

    ``trials`` and ``seed`` default to the config's n_trials and rng_seed;
    given, they must be integers (numpy integers too), never truncated floats.
    Results are independent of ``workers`` (see ``_sampled``).
    When a baseline peak area of (A,B), (C,D) or (A,C) is zero the
    correlation is undefined; the run still succeeds and reports every
    pair with a zero baseline instead of a verdict.  Histograms are not
    built here (see ``RunResult.histograms``).

    ``_blocks`` is for ``sweep`` only: the results of this run's
    ``_block_tasks``, sampled by the sweep's ``_sampled``.
    """
    trials, seed, workers = _run_arguments(
        config, config.n_trials if trials is None else trials, seed, workers)
    started = time.perf_counter()

    if _blocks is None:
        with contextlib.closing(_sampled([_block_tasks(config, trials, seed)],
                                         workers)) as sampled:
            _blocks = next(sampled)
    blocks = [clicks for clicks, _ in _blocks]
    pattern_counts = np.sum([counts for _, counts in _blocks], axis=0).astype(np.int64)
    del _blocks

    peaks: dict[str, PeakAreas] = {}
    g: dict[str, tuple[float, float]] = {}
    zero_baseline = []
    for label, start_det, stop_det, shifted in HISTOGRAM_PAIRS:
        areas = _count_peaks(blocks, start_det, stop_det,
                             config.delay_dt if shifted else 0.0, config.baseline_peaks)
        peaks[label] = areas
        try:
            g[label] = g_ratio(areas.n_same_trial, areas.m_baseline,
                               config.baseline_peaks)
        except UndefinedCorrelationError:
            g[label] = (float("nan"), float("nan"))
            zero_baseline.append(start_det + stop_det)

    if all(math.isfinite(g[label][0]) for label in ("11", "22", "12")):
        report = cauchy_schwarz(g["11"], g["22"], g["12"], delay_dt=config.delay_dt)
        undefined_reason = None
    else:
        report = None
        undefined_reason = (f"g undefined for {', '.join(zero_baseline)}: "
                            "zero baseline coincidences")
    clicks = pattern_counts @ ((np.arange(16)[:, None] >> np.arange(4)) & 1)
    singles = singles_rates(dict(zip(DETECTOR_IDS, clicks.tolist())),
                            trials * config.cycle_period)
    wall = time.perf_counter() - started
    return RunResult(config=config, trials=trials, seed=seed, block_clicks=blocks,
                     peaks=peaks, g=g, report=report,
                     undefined_reason=undefined_reason,
                     pattern_counts=pattern_counts, singles=singles,
                     wall_time_seconds=wall, workers=workers)


def render_run_report(result: RunResult) -> str:
    """Fixed-field text summary of a run (see analysis.render_report)."""
    g12b = result.g.get("12b", (float("nan"), float("nan")))
    extra = {"g12_check_bd": g12b[0], "g12_check_bd_sigma": g12b[1]}
    return render_report(result.report, singles=result.singles,
                         trials=result.trials, extra=extra,
                         undefined_reason=result.undefined_reason)


HISTOGRAM_FILES = {label: f"hist_{label}.csv" for label, *_ in HISTOGRAM_PAIRS}


def export_run(result: RunResult, out_dir, keep_events: bool = False) -> RunManifest:
    """Write histograms, report, config snapshot and manifest to a directory.

    Returns the manifest (also written as manifest.json).  Event streams
    are only written when ``keep_events`` is set.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []

    for label, hist in result.histograms.items():
        name = HISTOGRAM_FILES[label]
        export_histogram(hist, out / name)
        outputs.append(name)

    (out / "report.txt").write_text(render_run_report(result))
    outputs.append("report.txt")

    config_text = render_config(result.config)
    (out / "config.txt").write_text(config_text)
    outputs.append("config.txt")

    if keep_events:
        with open(out / "events.csv", "w") as fh:
            fh.write("detector,trial_index,timestamp_seconds\n")
            for det in DETECTOR_IDS:
                trials, timestamps = result._clicks(det)
                fh.writelines(map(f"{det},{{}},{{!r}}\n".format,
                                  trials.tolist(), timestamps.tolist()))
        outputs.append("events.csv")

    manifest = RunManifest(seed=result.seed, trials=result.trials,
                           workers=result.workers,
                           wall_time_seconds=result.wall_time_seconds,
                           config_text=config_text, outputs=sorted(outputs))
    (out / "manifest.json").write_text(manifest.to_json())
    return manifest


SWEEP_COLUMNS = ("value",) + REPORT_FIELDS + ("verdict",)


def derived_seed(seed: int, index: int) -> int:
    """Deterministic per-run seed for sweeps and repeated runs."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def check_sweep_parameter(parameter: str, trials: int | None = None) -> None:
    """Raise ConfigError unless sweeping ``parameter`` changes the runs."""
    if parameter not in {f.name for f in fields(ExperimentConfig)}:
        raise ConfigError(f"unknown config parameter {parameter!r}")
    if parameter == "rng_seed":
        raise ConfigError("rng_seed cannot be swept: each value runs with "
                          "a derived seed")
    if parameter == "n_trials" and trials is not None:
        raise ConfigError("n_trials cannot be swept while trials is given")


def sweep(config: ExperimentConfig, parameter: str, values,
          trials: int | None = None, seed: int | None = None,
          workers: int = 1) -> list[dict[str, object]]:
    """One simulate_run per parameter value, with derived per-value seeds.

    Returns one row (dict keyed by SWEEP_COLUMNS) per value.  Parameters
    that ``check_sweep_parameter`` refuses, values that make an invalid
    config (ConfigError), and worker counts, trial counts or seeds that
    ``simulate_run`` refuses (ValueError) raise before the first run.

    Every value's blocks come from one ``_sampled`` over the whole sweep.
    Rows do not depend on ``workers``.
    """
    check_sweep_parameter(parameter, trials)
    trials, seed, workers = _run_arguments(config, trials, seed, workers)
    variants = [(v, replace(config, **{parameter: v})) for v in values]
    seeds = [derived_seed(seed, index) for index in range(len(variants))]
    tasks = [_block_tasks(variant, variant.n_trials if trials is None else trials,
                          value_seed)
             for (_, variant), value_seed in zip(variants, seeds)]
    rows: list[dict[str, object]] = []
    with contextlib.closing(_sampled(tasks, workers)) as sampled:
        for (value, variant), value_seed in zip(variants, seeds):
            rep = simulate_run(variant, trials=trials, seed=value_seed,
                               workers=workers, _blocks=next(sampled)).report
            numbers = {c: float("nan") if rep is None else getattr(rep, c)
                       for c in REPORT_FIELDS}
            rows.append({"value": value, **numbers, "verdict": verdict(rep)})
    return rows


def export_sweep(rows: list[dict[str, object]], path) -> None:
    """Write sweep rows as delimited text with the fixed column order."""
    with open(path, "w") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(render_value(row[c]) for c in SWEEP_COLUMNS) + "\n")
