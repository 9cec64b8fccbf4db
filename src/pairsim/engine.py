"""Run orchestration: trial simulation, histogram reduction, exports, sweeps.

One trial is a full duty cycle: write pulse (Stokes gate opens at the cycle
start), storage delay, read pulse (anti-Stokes gate opens ``delay_dt``
later), gated detection on all four detectors.  Trials are simulated in
fixed-size blocks; block b draws from a counter-based Philox stream keyed
by (seed, b), so results are bit-identical no matter how blocks are
distributed over workers or in what order they complete.  Blocks are
reduced to click streams and per-trial click-pattern counts immediately;
raw events are only materialized on request.

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

Histograms are built for the pairs (A,B), (C,D), (A,C) and, as a
consistency duplicate, (B,D).  The Stokes detector starts the
time-interval analysis for the cross pairs, matching the write-then-read
time order; the lower-lettered detector starts for the auto pairs.  Peak
windows of the cross pairs are shifted by the write-read delay since their
stop gate lags the start gate by exactly that amount.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .analysis import (CorrelationReport, SinglesRates, UndefinedCorrelationError,
                       cauchy_schwarz, g_ratio, render_report, singles_rates)
from .config import ExperimentConfig, ensure_valid, render_config
from .optics import DETECTOR_IDS, add_background, detect_batch, split, thin
from .source import SourceModel, decohere_memory, retrieve, sample_write
from .tia import CoincidenceHistogram, PeakAreas, TimestampStream, export_histogram
from .tia import histogram as build_histogram
from .tia import peak_areas as extract_peak_areas

BLOCK_TRIALS = 1 << 16
"""Trials per simulation block; fixed so block boundaries never depend on
worker count.  Do not change without bumping the package version: block
boundaries are part of the reproducibility contract."""

GATE1_START = 0.0

SAMPLER = "active_trial"
"""Name of the trial sampler, recorded in every manifest."""

# Independent per-trial sources, in the order that defines a trial's
# "first nonzero source".
SOURCES = ("write", "diffusion", "bg_stokes", "bg_antistokes",
           "dark_A", "dark_B", "dark_C", "dark_D")

# (label, start detector, stop detector, peak windows shifted by delay_dt?)
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
    """Everything simulate_run produces for one configuration."""

    config: ExperimentConfig
    trials: int
    seed: int
    streams: dict[str, TimestampStream]
    click_trials: dict[str, np.ndarray]
    histograms: dict[str, CoincidenceHistogram]
    peaks: dict[str, PeakAreas]
    g: dict[str, tuple[float, float]]
    report: CorrelationReport | None
    undefined_reason: str | None
    pattern_counts: np.ndarray
    singles: SinglesRates
    wall_time_seconds: float
    workers: int


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Counter-based per-block stream; independent for every (seed, block)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.Philox(ss))


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


def _simulate_block(config: ExperimentConfig, seed: int, block_index: int,
                    first_trial: int, n: int):
    """Simulate trials [first_trial, first_trial + n) and reduce to clicks.

    Returns ({detector: (trial indices, timestamps)}, pattern counts).
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
    clicks = {det: (np.empty(0, dtype=np.int64), np.empty(0)) for det in DETECTOR_IDS}
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
        trials = first_trial + active[(by_trial & (1 << bit)) != 0]
        clicks[det] = (trials, trials * config.cycle_period + offsets[det])
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


def _run_blocks(config: ExperimentConfig, trials: int, seed: int, workers: int):
    n_blocks = (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    tasks = [(config, seed, b, b * BLOCK_TRIALS,
              min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS))
             for b in range(n_blocks)]
    pool_size = _pool_size(workers, n_blocks)
    if pool_size == 1:
        results = [_block_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            results = list(pool.map(_block_task, tasks, chunksize=1))
    # Merge in block order: streams come out sorted without any extra sort.
    click_trials: dict[str, np.ndarray] = {}
    click_times: dict[str, np.ndarray] = {}
    for det in DETECTOR_IDS:
        click_trials[det] = np.concatenate([r[0][det][0] for r in results])
        click_times[det] = np.concatenate([r[0][det][1] for r in results])
    pattern_counts = np.sum([r[1] for r in results], axis=0).astype(np.int64)
    return click_trials, click_times, pattern_counts


def simulate_run(config: ExperimentConfig, trials: int | None = None,
                 seed: int | None = None, workers: int = 1) -> RunResult:
    """Execute a full run: trials, histograms, peak areas, correlation report.

    ``trials`` and ``seed`` default to the config's n_trials and rng_seed.
    Results are independent of ``workers``.  When a baseline peak area is
    zero the correlation is undefined; the run still succeeds and reports
    the reason instead of a verdict.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ensure_valid(config)
    trials = config.n_trials if trials is None else int(trials)
    seed = config.rng_seed if seed is None else int(seed)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    started = time.perf_counter()

    click_trials, click_times, pattern_counts = _run_blocks(
        config, trials, seed, workers)
    duration = trials * config.cycle_period
    streams = {det: TimestampStream(detector_id=det,
                                    timestamps=click_times[det],
                                    total_duration=duration)
               for det in DETECTOR_IDS}

    histograms: dict[str, CoincidenceHistogram] = {}
    peaks: dict[str, PeakAreas] = {}
    g: dict[str, tuple[float, float]] = {}
    undefined_reason = None
    for label, start_det, stop_det, shifted in HISTOGRAM_PAIRS:
        hist = build_histogram(streams[start_det], streams[stop_det],
                               config.hist_bin, config.hist_span)
        offset = config.delay_dt if shifted else 0.0
        areas = extract_peak_areas(hist, config.cycle_period, config.gate_width,
                                   config.baseline_peaks, peak_offset=offset)
        histograms[label] = hist
        peaks[label] = areas
        try:
            g[label] = g_ratio(areas.n_same_trial, areas.m_baseline,
                               config.baseline_peaks)
        except UndefinedCorrelationError:
            g[label] = (float("nan"), float("nan"))
            undefined_reason = (f"pair {start_det}{stop_det}: zero baseline "
                                "coincidences, g undefined")

    if undefined_reason is None:
        report = cauchy_schwarz(g["11"], g["22"], g["12"], delay_dt=config.delay_dt)
    else:
        report = None
    singles = singles_rates(streams, duration)
    wall = time.perf_counter() - started
    return RunResult(config=config, trials=trials, seed=seed, streams=streams,
                     click_trials=click_trials, histograms=histograms,
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
                trials_arr = result.click_trials[det]
                times_arr = result.streams[det].timestamps
                for trial, ts in zip(trials_arr, times_arr):
                    fh.write(f"{det},{int(trial)},{float(ts)!r}\n")
        outputs.append("events.csv")

    manifest = RunManifest(seed=result.seed, trials=result.trials,
                           workers=result.workers,
                           wall_time_seconds=result.wall_time_seconds,
                           config_text=config_text, outputs=sorted(outputs))
    (out / "manifest.json").write_text(manifest.to_json())
    return manifest


SWEEP_COLUMNS = ("value", "g11", "g11_sigma", "g22", "g22_sigma", "g12",
                 "g12_sigma", "lhs", "lhs_sigma", "rhs", "rhs_sigma",
                 "ratio", "ratio_sigma", "significance", "verdict")


def derived_seed(seed: int, index: int) -> int:
    """Deterministic per-run seed for sweeps and repeated runs."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sweep(config: ExperimentConfig, parameter: str, values,
          trials: int | None = None, seed: int | None = None,
          workers: int = 1) -> list[dict[str, object]]:
    """One simulate_run per parameter value, with derived per-value seeds.

    Returns one row (dict keyed by SWEEP_COLUMNS) per value.  Unknown
    parameter names are rejected.
    """
    if parameter not in {f.name for f in fields(ExperimentConfig)}:
        raise ValueError(f"unknown config parameter {parameter!r}")
    seed = config.rng_seed if seed is None else int(seed)
    rows: list[dict[str, object]] = []
    for index, value in enumerate(values):
        variant = ensure_valid(replace(config, **{parameter: value}))
        result = simulate_run(variant, trials=trials,
                              seed=derived_seed(seed, index), workers=workers)
        row: dict[str, object] = {"value": value}
        if result.report is not None:
            rep = result.report
            row.update(g11=rep.g11, g11_sigma=rep.g11_sigma,
                       g22=rep.g22, g22_sigma=rep.g22_sigma,
                       g12=rep.g12, g12_sigma=rep.g12_sigma,
                       lhs=rep.lhs, lhs_sigma=rep.lhs_sigma,
                       rhs=rep.rhs, rhs_sigma=rep.rhs_sigma,
                       ratio=rep.ratio, ratio_sigma=rep.ratio_sigma,
                       significance=rep.significance,
                       verdict="violated" if rep.violated else "not_violated")
        else:
            nan = float("nan")
            row.update({c: nan for c in SWEEP_COLUMNS[1:-1]})
            row["verdict"] = "undefined"
        rows.append(row)
    return rows


def export_sweep(rows: list[dict[str, object]], path) -> None:
    """Write sweep rows as delimited text with the fixed column order."""
    with open(path, "w") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for column in SWEEP_COLUMNS:
                value = row[column]
                cells.append(repr(value) if isinstance(value, float) else str(value))
            fh.write(",".join(cells) + "\n")
