"""Run orchestration: trial simulation, peak-area reduction, exports, sweeps.

One trial is a full duty cycle: write pulse (Stokes gate opens at the cycle
start), storage delay, read pulse (anti-Stokes gate opens ``delay_dt``
later), gated detection on all four detectors.  Trials are simulated in
fixed-size blocks; from version 0.3.0 block b draws from an SFC64 stream
keyed by ``SeedSequence(seed, spawn_key=(b,))``, so results are
bit-identical no matter how blocks are distributed over workers or in what
order they complete.  Binomial stages draw nothing for a zero count, and
the stages' array draws are numpy's, computed by whole-array replays of
numpy's loops where those apply (see :mod:`pairsim.optics`).
Blocks are reduced to click tables (block-local trial index as uint16 and
within-cycle offset as float64 of every click, 10 bytes a click) and
per-trial click-pattern counts immediately; raw events are never kept.

The block tables are the run's storage, and ``_block_pieces`` their one
reader: ``_clicks_in`` copies its pieces into one pair of arrays, and
``_scatter`` places them straight into a per-trial array.  Peak areas are
counted one block at a time and singles come from the pattern counts, so a
run that nothing else reads never builds run-level arrays.
``RunResult.streams`` and ``click_trials`` build a detector from the blocks
each time it is indexed, and ``export_run`` reads one detector at a time.

``_sampled`` is the one scheduler of runs and sweeps.  Its unit of work is a
slice, a contiguous range of one run's blocks, sampled and reduced in one
task (``_slice_task``): the task returns the slice's summed pattern counts,
the integer peak counts of the pairs with start and stop both inside it, the
clicks of its first and last ``baseline_peaks`` trials, and its tables only
when they are kept (a single ``simulate_run``, whose result carries them;
a sweep value keeps none).  A run on one worker or one CPU is one slice,
sampled in process; on the process pool every run is cut into one slice
per worker, and a sweep submits every slice of every value to one pool at
once.  On Linux the pool forks, whatever the default start method: forked
workers start fastest, and they inherit the parent's module state, so the
benchmark tracer's wrappers time them too.

Active-trial sampler.  Every trial has eight independent sources (see
``SOURCES``): the write excitation, the diffused-in memory excitations
Poisson(memory_diffusion_in * (1 - survival)), the Stokes and anti-Stokes
backgrounds, and one Bernoulli(1 - exp(-dark_mean)) dark event per
detector.  A trial in which all of them are zero cannot click, so only
*active* trials, where at least one is nonzero, are drawn:

1. With z_i the closed-form zero probability of source i, a trial is active
   with probability a = 1 - prod(z_i); active trials are placed by
   geometric gaps, numpy's ``rng.geometric(a)`` draws (computed on whole
   batches from exponentials where a < 1/3; see ``_active_trials``).
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
stop gate lags the start gate by exactly that amount.

N and M are not read off the histogram.  Peak j of a pair counts the pairs
with the start in trial i, the stop in trial i + j and ``stop offset -
shift >= start offset``, offsets within the cycle.  Gates span at most half
a cycle, so where the bin edges line up with the peak windows (the defaults
do) these are the histogram windows' pairs, up to offsets that differ by a
rounding error of the timestamps.  They are counted from the click tables
where a slice is sampled, one block at a time: the starts of block b against
the stops of block b and of the first ``baseline_peaks`` trials after it
inside the slice, so every start is counted once.  The parent adds the
slices' counts and counts the pairs that cross a slice edge with
``_count_edges``: the starts in each slice's last ``baseline_peaks`` trials
against the stops in the first ``baseline_peaks`` trials of every later
slice within reach.  Integer counts and one float comparison keep the result
independent of how a run is sliced.  ``_count_peaks`` decides once per block
how to count it: in a block where some detector has more than
``DENSE_CLICKS`` clicks, every detector is scattered into a reused array of
per-trial offsets and every pair is counted by whole-array comparisons at
each lag; every pair of any other block goes through the sparse kernel
``extract_peak_areas``, whose caller keeps every start trial below
``len(table) - baseline_peaks``.  Both count the same pairs exactly.  Only
(A,B), (C,D) and (A,C) decide the Cauchy-Schwarz report, and (B,D) is
reported as a check.  The coincidence histograms are built from the
timestamps the first time ``RunResult.histograms`` is read, which
``export_run`` does.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import os
import sys
import time
from collections.abc import Mapping
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
from .tia import (CoincidenceHistogram, PeakAreas, TimestampStream, _require_sorted,
                  export_histogram)
from .tia import histogram as build_histogram

BLOCK_TRIALS = 1 << 16
"""Trials per simulation block; fixed so block boundaries never depend on
worker count.  Do not change without bumping the package version: block
boundaries are part of the reproducibility contract."""
assert BLOCK_TRIALS <= 1 << 16, "block-local trial indices are stored as uint16"

DENSE_CLICKS = BLOCK_TRIALS // 5
"""A block in which some detector has more clicks than this is counted on
per-trial offset arrays (see ``_count_peaks``).  The counts do not depend on
it; it picks the faster path.  On 8 blocks of four detectors with one
click rate (2-core Xeon host), the two paths break even near 0.20 clicks
per trial: all sparse 5.6 and all dense 13.9 ms at 0.04, 15.0 and 15.2 ms
at 0.20, 73.3 and 22.9 ms at 0.99."""

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


class _Detectors(Mapping):
    """One value per detector, built by ``build(det)`` each time it is indexed."""

    def __init__(self, build):
        self._build = build

    def __getitem__(self, det: str):
        if det not in DETECTOR_IDS:
            raise KeyError(det)
        return self._build(det)

    def __iter__(self):
        return iter(DETECTOR_IDS)

    def __len__(self) -> int:
        return len(DETECTOR_IDS)


@dataclass
class RunResult:
    """Everything simulate_run produces for one configuration.

    The clicks are held as ``block_clicks``: per block, per detector, the
    block-local trial indices (uint16) and within-cycle offsets (float64).
    Reading the result never changes them.  ``streams`` and
    ``click_trials`` build a detector from them each time it is indexed;
    ``histograms`` are built on first read and kept.

    A sweep value's run keeps only its counts: its ``block_clicks`` is None,
    and ``click_trials``, ``histograms`` and ``export_run`` raise
    RuntimeError for it.
    """

    config: ExperimentConfig
    trials: int
    seed: int
    block_clicks: list[dict[str, tuple[np.ndarray, np.ndarray]]] | None = field(repr=False)
    peaks: dict[str, PeakAreas]
    g: dict[str, tuple[float, float]]
    report: CorrelationReport | None
    undefined_reason: str | None
    pattern_counts: np.ndarray
    singles: SinglesRates
    wall_time_seconds: float
    workers: int

    def _tables(self) -> list[dict[str, tuple[np.ndarray, np.ndarray]]]:
        if self.block_clicks is None:
            raise RuntimeError("this run kept no click tables: a sweep keeps only "
                               "the counts of each value's run")
        return self.block_clicks

    def _clicks(self, det: str) -> tuple[np.ndarray, np.ndarray]:
        """Run-level trial indices and timestamps of every click of ``det``."""
        trials, timestamps = _clicks_in(self._tables(), det, 0, self.trials)
        timestamps += trials * self.config.cycle_period
        return trials, timestamps

    @property
    def streams(self) -> Mapping[str, TimestampStream]:
        """Click timestamps of each detector over the run, built when indexed.

        A run without tables reads as one without clicks here, unlike
        ``click_trials``: ``benchmark/spans.py`` counts the clicks of every
        run it traces through ``streams``, sweep values included.
        """
        if self.block_clicks is None:
            return {det: TimestampStream(det, np.empty(0)) for det in DETECTOR_IDS}
        return _Detectors(lambda det: TimestampStream(det, self._clicks(det)[1]))

    @property
    def click_trials(self) -> Mapping[str, np.ndarray]:
        """Trial index of every click of each detector, built when indexed."""
        self._tables()  # a run without tables raises here, not when indexed
        return _Detectors(lambda det: self._clicks(det)[0])

    @functools.cached_property
    def histograms(self) -> dict[str, CoincidenceHistogram]:
        """Coincidence histogram of every pair, built on first access."""
        streams = {det: TimestampStream(det, self._clicks(det)[1]) for det in DETECTOR_IDS}
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
    log_zero = [write_vacuum, -_memory_law(config)[1],
                -config.bg_stokes_mean, -config.bg_antistokes_mean]
    log_zero += [-config.dark_mean] * len(DETECTOR_IDS)
    return -np.expm1(np.cumsum(log_zero))


def _memory_law(config: ExperimentConfig) -> tuple[float, float]:
    """(survival, diffusion mean) of the memory over the write-read delay.

    The (1 - survival) factor makes delay == 0 exactly clean.  The sampler
    reads the mean only here, so the diffusion source's zero probability,
    its zero-truncated group and ``decohere_memory`` agree to the last bit.
    """
    survival = math.exp(-config.delay_dt / config.memory_lifetime)
    return survival, config.memory_diffusion_in * (1.0 - survival)


def _active_trials(n: int, active: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices in [0, n), each present with probability ``active``.

    Drawn as geometric gaps, so the work scales with the active trials.
    A gap past n ends the block whatever its length, so gaps are capped at
    n + 1; for a tiny ``active`` they would otherwise overflow int64.

    The gaps are ``rng.geometric(active)``'s, numbers and stream position
    included.  Below active = 1/3 numpy draws ceil(-E / log1p(-active))
    from one standard exponential E per gap; that is done here on the whole
    batch.  From 1/3 on numpy searches the pmf, and ``rng.geometric`` runs.
    """
    if active == 0.0:
        return np.empty(0, dtype=np.int64)
    batch = int(n * active + 5.0 * math.sqrt(n * active)) + 16
    chunks, last = [], -1
    while last < n:  # one batch almost always reaches past n
        # Gaps, turned in place into positions after ``last``.
        if active < 1.0 / 3.0:
            gaps = rng.standard_exponential(batch)
            with np.errstate(over="ignore"):  # a tiny ``active`` gives inf
                gaps /= -math.log1p(-active)
            np.ceil(gaps, out=gaps)
            np.minimum(gaps, n + 1, out=gaps)
            positions = gaps.astype(np.int64)
        else:
            positions = rng.geometric(active, size=batch)
            np.minimum(positions, n + 1, out=positions)
        np.cumsum(positions, out=positions)
        positions += last
        chunks.append(positions)
        last = positions[-1]
    if len(chunks) > 1:
        positions = np.concatenate(chunks)
    return positions[:positions.searchsorted(n)]


def _first_sources(cdf: np.ndarray, rng: np.random.Generator, m: int) -> np.ndarray:
    """Index of the first nonzero source of each of m active trials.

    With u * a uniform on [0, a), that is the number of CDF entries at or
    below u * a.  Only the entries before the last source of positive
    weight are counted: u * a can round up to a itself, and that mass
    belongs to the last source.
    """
    weights = np.diff(cdf, prepend=0.0)
    last = np.flatnonzero(weights > 0)[-1]
    u = rng.random(m)
    u *= cdf[-1]
    first = np.zeros(m, dtype=np.uint8)
    for edge in cdf[:last]:
        first += u >= edge
    return first


def _poisson_nonzero(mean: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Poisson(mean) conditioned on >= 1.

    The first arrival T of a rate-``mean`` process on [0, 1) is drawn
    conditioned on T < 1; the rest of the interval adds Poisson(mean (1 - T)).
    """
    u = rng.random(size)
    rest = np.maximum(mean + np.log1p(u * np.expm1(-mean)), 0.0)
    return 1 + rng.poisson(rest)


def _add_poisson_source(n: np.ndarray, mean: float, start: int, stop: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Add the Poisson source owning grouped slice [start, stop) to n.

    Returns stop entries: an unconditional draw on [0, start), where an
    earlier source already fired, and a zero-truncated one on the slice.
    """
    padded = np.concatenate([n, np.zeros(start - n.size, dtype=np.int64)])
    return np.concatenate([add_background(padded, mean, rng),
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

    n_stokes, n_memory = sample_write(config.p_excitation, config.source_model, rng,
                                      size=end[0])
    survival, diffusion_mean = _memory_law(config)
    memory = np.concatenate([
        decohere_memory(n_memory, survival, diffusion_mean, rng),
        _poisson_nonzero(diffusion_mean, rng, end[1] - end[0])])
    n_antistokes = retrieve(memory, config.retrieval_eff, rng)

    at_splitter_s = _add_poisson_source(
        thin(n_stokes, config.transmission, rng),
        config.bg_stokes_mean, end[1], end[2], rng)
    k_a, k_b = split(at_splitter_s, rng)

    at_splitter_as = _add_poisson_source(
        thin(n_antistokes, config.transmission, rng),
        config.bg_antistokes_mean, end[2], end[3], rng)
    k_c, k_d = split(at_splitter_as, rng)

    gates = {"A": GATE1_START, "B": GATE1_START,
             "C": config.delay_dt, "D": config.delay_dt}
    photons = {"A": k_a, "B": k_b, "C": k_c, "D": k_d}
    # Each detector's photons are written over a prefix of one zeroed
    # buffer.  The prefixes never shrink (A, B, C, D hold end[2], end[2],
    # end[3], end[3] entries), so every entry past the current one is zero.
    padded = np.zeros(end[-1], dtype=np.int64)
    pattern = np.zeros(active.size, dtype=np.uint8)
    offsets = {}
    for bit, det in enumerate(DETECTOR_IDS):
        # This detector's dark source owns slice [start, stop): a sure click.
        start, stop = end[3 + bit], end[4 + bit]
        padded[:photons[det].size] = photons[det]
        clicked, unforced = detect_batch(
            padded[:start], config.detector_eff, config.dark_mean,
            gates[det], config.gate_width, rng)
        pattern[:start] |= clicked.view(np.uint8) << bit
        pattern[start:stop] |= 1 << bit
        out = offsets[det] = np.empty(unforced.size + stop - start)
        out[:unforced.size] = unforced
        forced = rng.random(out=out[unforced.size:])
        forced *= config.gate_width
        forced += gates[det]

    by_trial = np.empty_like(pattern)
    by_trial[order] = pattern
    pattern_counts += np.bincount(by_trial, minlength=16)
    active = active.astype(np.uint16)
    for bit, det in enumerate(DETECTOR_IDS):
        # Offsets are i.i.d. and independent of the trial, so they can be
        # handed out in trial order.
        clicks[det] = active[(by_trial & (1 << bit)) != 0], offsets[det]
    return clicks, pattern_counts


@dataclass
class _Slice:
    """What ``_slice_task`` returns for a contiguous range of one run's blocks.

    ``peaks`` counts the pairs with start and stop both inside the slice.
    ``head`` and ``tail`` hold, per detector, the run-level trials (int64)
    and offsets of the clicks in its first and last ``baseline_peaks``
    trials; each is None where no slice precedes or follows it.  ``blocks``
    holds its tables, or None when they are dropped.
    """

    start: int
    pattern_counts: np.ndarray
    peaks: dict[str, np.ndarray]
    head: dict[str, tuple[np.ndarray, np.ndarray]] | None
    tail: dict[str, tuple[np.ndarray, np.ndarray]] | None
    blocks: list[dict[str, tuple[np.ndarray, np.ndarray]]] | None


def _slice_task(args) -> _Slice:
    """Sample blocks [first, stop) of a run of ``trials`` and reduce them."""
    config, seed, trials, first, stop, keep = args
    sampled = [_simulate_block(config, seed, b, min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS))
               for b in range(first, stop)]
    blocks = [clicks for clicks, _ in sampled]
    start = first * BLOCK_TRIALS
    length = min(trials, stop * BLOCK_TRIALS) - start
    reach = config.baseline_peaks

    def window(lo: int, hi: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        reads = {det: _clicks_in(blocks, det, lo, hi) for det in DETECTOR_IDS}
        for trials_in, _ in reads.values():
            trials_in += start + lo
        return reads

    return _Slice(
        start=start,
        pattern_counts=np.sum([counts for _, counts in sampled], axis=0),
        peaks=_count_peaks(blocks, config.delay_dt, reach),
        head=window(0, reach) if first > 0 else None,
        tail=window(max(0, length - reach), length) if start + length < trials else None,
        blocks=blocks if keep else None)


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(workers: int, n_blocks: int) -> int:
    """Worker processes actually started: never more than CPUs or blocks."""
    return min(workers, _available_cpus(), n_blocks)


def _n_blocks(trials: int) -> int:
    return -(-trials // BLOCK_TRIALS)


def _slice_tasks(config: ExperimentConfig, trials: int, seed: int, slices: int,
                 keep: bool) -> list[tuple]:
    """Arguments of the ``_slice_task``s of a run: at most ``slices``
    contiguous ranges of its blocks, of near-equal block counts, in order."""
    n_blocks = _n_blocks(trials)
    slices = min(slices, n_blocks)
    cuts = [n_blocks * i // slices for i in range(slices + 1)]
    return [(config, seed, trials, first, stop, keep) for first, stop in zip(cuts, cuts[1:])]


def _sampled(runs: list[tuple], workers: int, keep: bool) -> list[list[_Slice]]:
    """The ``_Slice``s of each run (config, trials, seed), one list per run, in order.

    Each run is cut into one slice per pool process (see ``_pool_size``),
    and a slice is sampled and reduced in one task, so its tables travel
    only when ``keep`` asks for them.  With fewer than two pool processes
    the one slice of each run is sampled here.  Otherwise every slice of
    every run goes to one process pool at once, forked on Linux (see the
    module docstring).  The pool is shut down, queued slices cancelled, once
    the results are in or a task has failed.
    """
    pool_size = _pool_size(workers, sum(_n_blocks(trials) for _, trials, _ in runs))
    tasks = [_slice_tasks(*run, pool_size, keep) for run in runs]
    if pool_size < 2:
        return [[_slice_task(task) for task in run] for run in tasks]
    context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
    pool = ProcessPoolExecutor(max_workers=pool_size, mp_context=context)
    try:
        futures = [[pool.submit(_slice_task, task) for task in run] for run in tasks]
        return [[future.result() for future in run] for run in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _block_pieces(blocks, det: str, first: int, stop: int):
    """Each block's share of the clicks of ``det`` in trials [first, stop).

    Returns (base - first, block-local trials, offsets) per block with base
    its first trial; the trial and offset tables are views into the block.
    ``stop`` may lie past the run.  The block tables are read only here, and
    each piece's trials must be strictly increasing (StreamOrderError
    otherwise); blocks hold disjoint, increasing trial ranges.
    """
    pieces = []
    for b in range(first // BLOCK_TRIALS, min(len(blocks), -(-stop // BLOCK_TRIALS))):
        local, offsets = blocks[b][det]
        base = b * BLOCK_TRIALS
        # uint16 keys: a Python int key would first cast the table to int64.
        lo = local.searchsorted(np.uint16(first - base)) if first > base else 0
        hi = (local.searchsorted(np.uint16(stop - base)) if stop - base < BLOCK_TRIALS
              else local.size)
        _require_sorted(local[lo:hi], "click trials")
        pieces.append((base - first, local[lo:hi], offsets[lo:hi]))
    return pieces


def _clicks_in(blocks, det: str, first: int, stop: int):
    """Clicks of ``det`` in trials [first, stop) of the run, copied from the blocks.

    Returns their trial indices relative to ``first`` (int64) and their
    within-cycle offsets, in trial order; ``stop`` may lie past the run.
    """
    pieces = _block_pieces(blocks, det, first, stop)
    size = sum(local.size for _, local, _ in pieces)
    trials, times = np.empty(size, dtype=np.int64), np.empty(size)
    at = 0
    for shift, local, offsets in pieces:
        trials[at:at + local.size] = local
        if shift:
            trials[at:at + local.size] += shift
        times[at:at + local.size] = offsets
        at += local.size
    return trials, times


def _scatter(blocks, det: str, first: int, at: np.ndarray) -> np.ndarray:
    """Fill ``at`` with the offset of the click of ``det`` in each trial of
    [first, first + len(at)), NaN where none is; ``first`` is a block edge.

    Scattered straight from each block's uint16 table, with no int64 or float
    copy.
    """
    at.fill(np.nan)
    for shift, local, offsets in _block_pieces(blocks, det, first, first + at.size):
        at[shift:][local] = offsets
    return at


def extract_peak_areas(start_trials: np.ndarray, start_offsets: np.ndarray,
                       stop_trials: np.ndarray, stop_offsets: np.ndarray,
                       shift: float, baseline_peaks: int,
                       table: np.ndarray) -> np.ndarray:
    """Int64 counts of peaks 0..baseline_peaks of one pair (see the module
    docstring), from the strictly increasing int64 trials of its clicks and
    their offsets.

    ``table`` is all -inf, one entry per trial.  The stops set theirs to
    ``stop offset - shift``, the starts are compared with the entries at
    each lag, and the stops reset theirs to -inf, so one table serves every
    call and the work grows with the clicks.
    """
    counts = np.zeros(baseline_peaks + 1, dtype=np.int64)
    table[stop_trials] = stop_offsets - shift
    for j in range(baseline_peaks + 1):
        counts[j] = np.count_nonzero(table[j:][start_trials] >= start_offsets)
    table[stop_trials] = -np.inf  # cheaper than refilling when clicks are sparse
    return counts


def _count_peaks(blocks, delay_dt: float, baseline_peaks: int) -> dict[str, np.ndarray]:
    """Int64 counts of peaks 0..baseline_peaks of every pair of
    HISTOGRAM_PAIRS with start and stop both in ``blocks``, counted one
    block at a time.

    The starts of each block meet the stops of that block and of the
    ``baseline_peaks`` trials after it that ``blocks`` holds, so every start
    is counted exactly once; the counts of the blocks add up to those of
    the run, or of the slice that ``_slice_task`` gives it.  Each detector
    is read once per block, over the block and its reach.

    A block is dense when one of its detectors has more than DENSE_CLICKS
    clicks in its own table, and all four pairs of a block are counted alike:
    - dense: ``_scatter`` fills a per-trial offset array per detector, and
      peak j adds ``count_nonzero(stop_at[j:j + BLOCK_TRIALS] >= start_at)``
      with ``start_at`` the start offsets of the block and ``stop_at`` the
      stop offsets minus the pair's shift.  NaN, where a detector did not
      click, compares false, so no missing click is counted;
    - sparse: ``_clicks_in`` reads each detector, and ``extract_peak_areas``
      counts the block's starts on one all -inf stop table.
    Both count the same pairs with the same float expressions, so the counts
    do not depend on DENSE_CLICKS.  The stop table, the per-trial arrays and
    ``stop_at`` are made once per call and reused by every block, and a
    dense read copies nothing, so a saturated run does not touch fresh pages
    for them in every block.
    """
    length = BLOCK_TRIALS + baseline_peaks
    counts = {label: np.zeros(baseline_peaks + 1, dtype=np.int64)
              for label, *_ in HISTOGRAM_PAIRS}
    table = np.full(length, -np.inf)
    by_trial = {det: np.empty(length) for det in DETECTOR_IDS}
    stop_at = np.empty(length)
    for b, block in enumerate(blocks):
        first = b * BLOCK_TRIALS
        dense = max(block[det][0].size for det in DETECTOR_IDS) > DENSE_CLICKS
        reads = {det: _scatter(blocks, det, first, by_trial[det]) if dense
                 else _clicks_in(blocks, det, first, first + length)
                 for det in DETECTOR_IDS}
        for label, start_det, stop_det, shifted in HISTOGRAM_PAIRS:
            shift = delay_dt if shifted else 0.0
            start, stop = reads[start_det], reads[stop_det]
            if dense:
                np.subtract(stop, shift, out=stop_at)
                start_at = start[:BLOCK_TRIALS]
                for j in range(baseline_peaks + 1):
                    counts[label][j] += np.count_nonzero(
                        stop_at[j:j + BLOCK_TRIALS] >= start_at)
            else:
                in_block = start[0].searchsorted(BLOCK_TRIALS)
                counts[label] += extract_peak_areas(
                    start[0][:in_block], start[1][:in_block], *stop, shift,
                    baseline_peaks, table)
    return counts


def _count_edges(slices: list[_Slice], delay_dt: float,
                 baseline_peaks: int) -> dict[str, np.ndarray]:
    """Int64 peak counts of every pair whose start and stop lie in different
    slices, from the slices' heads and tails: one ``extract_peak_areas``
    call per pair.

    With k = baseline_peaks, edge e (the first trial t of slice e + 1) owns
    entries [2 k e, 2 k (e + 1)) of one all -inf table, trial i at entry
    i - t + k + 2 k e.  Its starts are the clicks of slice e's tail, in the
    edge's first k entries, and its stops those of trials [t, t + k), read
    from the heads of slice e + 1 and of any later slice that begins within
    reach.  A lag of at most k never leaves the edge's entries, so each
    start meets exactly the stops after its slice that it can reach.
    """
    k = baseline_peaks
    starts = {det: ([], []) for det in DETECTOR_IDS}
    stops = {det: ([], []) for det in DETECTOR_IDS}
    for e, (before, after) in enumerate(zip(slices, slices[1:])):
        edge = after.start
        shift = k + 2 * k * e - edge
        for det in DETECTOR_IDS:
            trials, offsets = before.tail[det]
            starts[det][0].append(trials + shift)
            starts[det][1].append(offsets)
            for later in slices[e + 1:]:
                if later.start >= edge + k:
                    break
                trials, offsets = later.head[det]
                near = trials.searchsorted(edge + k)
                stops[det][0].append(trials[:near] + shift)
                stops[det][1].append(offsets[:near])
    reads = {det: [np.concatenate(part) for part in (*starts[det], *stops[det])]
             for det in DETECTOR_IDS}
    table = np.full(2 * k * (len(slices) - 1), -np.inf)
    return {label: extract_peak_areas(*reads[start][:2], *reads[stop][2:],
                                      delay_dt if shifted else 0.0, k, table)
            for label, start, stop, shifted in HISTOGRAM_PAIRS}


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

    ``_blocks`` is for ``sweep`` only: the ``_Slice``s of this run, from the
    sweep's ``_sampled``, without their tables.
    """
    trials, seed, workers = _run_arguments(
        config, config.n_trials if trials is None else trials, seed, workers)
    started = time.perf_counter()

    slices = _blocks
    if slices is None:
        slices = _sampled([(config, trials, seed)], workers, keep=True)[0]
    pattern_counts = np.sum([s.pattern_counts for s in slices], axis=0).astype(np.int64)
    counts = {label: sum(s.peaks[label] for s in slices) for label, *_ in HISTOGRAM_PAIRS}
    if len(slices) > 1:
        for label, edge_counts in _count_edges(slices, config.delay_dt,
                                               config.baseline_peaks).items():
            counts[label] += edge_counts
    peaks = {label: PeakAreas.from_counts(c) for label, c in counts.items()}
    blocks = (None if slices[0].blocks is None
              else [block for s in slices for block in s.blocks])
    del slices

    g: dict[str, tuple[float, float]] = {}
    zero_baseline = []
    for label, start_det, stop_det, _ in HISTOGRAM_PAIRS:
        try:
            g[label] = g_ratio(peaks[label].n_same_trial, peaks[label].m_baseline,
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
    are only written when ``keep_events`` is set.  A run without click
    tables (a sweep value's) raises RuntimeError before anything is written.
    """
    histograms = result.histograms
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []

    for label, hist in histograms.items():
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

    Every value's slices come from one ``_sampled`` call over the whole
    sweep, which submits them all to one pool, without tables: a value's
    ``RunResult`` holds its counts only.  Rows do not depend on ``workers``.
    """
    check_sweep_parameter(parameter, trials)
    trials, seed, workers = _run_arguments(config, trials, seed, workers)
    variants = [(v, replace(config, **{parameter: v})) for v in values]
    seeds = [derived_seed(seed, index) for index in range(len(variants))]
    runs = [(variant, variant.n_trials if trials is None else trials, value_seed)
            for (_, variant), value_seed in zip(variants, seeds)]
    rows: list[dict[str, object]] = []
    sampled = _sampled(runs, workers, keep=False)
    for (value, variant), value_seed, slices in zip(variants, seeds, sampled):
        rep = simulate_run(variant, trials=trials, seed=value_seed,
                           workers=workers, _blocks=slices).report
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
