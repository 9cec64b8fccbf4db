"""Reference implementations, and a strategy of valid configs, that only the
tests use.

The package counts N and M from click tables, block by block
(``engine._count_peaks``: its sparse kernel ``engine.extract_peak_areas``
for sparse blocks, whole per-trial arrays for dense ones);
``counts_in_one_call`` counts a whole run in one kernel call, and the tests
hold both paths to it.
``first_sources`` is the sampler's draw of each active trial's first
nonzero source written as one CDF search.
``joint_pmf`` is the closed form of the unconditioned source law;
``source.sample_write`` draws it conditioned on (n_s, n_m) != (0, 0), and
the source and oracle tests hold both to it.  ``ideal_violation`` is the
Cauchy-Schwarz violation ratio of the noise-free quantum source, which the
analysis tests hold the sampled ratio to.
The package's stage functions take 1-d count arrays, one entry per trial;
the scalar transcriptions here take one count at a time.
The histogram-window reader here is the independent second reduction: it
sums the bins of each peak window of a histogram, built in memory or read
back from an exported file, and the tests check the click counts and the
exported files against it.
``binomial_inversion`` transcribes, one entry at a time, the scalar loop of
numpy's C code that ``optics`` replays on whole arrays; it tells which
uniforms take the loop where the package hands the call back to numpy.
``active_trials`` is the sampler's placement of active trials drawn with
``rng.geometric`` itself.  These two are the only draws the package
replays: ``optics.add_background`` calls ``rng.poisson`` itself, since its
replay of numpy's multiplication loop saved too little to show end to end.
The package never imports this module.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from pairsim import ExperimentConfig, SourceModel
from pairsim.config import NO_DECAY
from pairsim.engine import extract_peak_areas
from pairsim.tia import CoincidenceHistogram, PeakAreas

_means = st.one_of(st.just(0.0), st.floats(1e-4, 0.5))


def valid_configs(dark_max: float) -> st.SearchStrategy[ExperimentConfig]:
    """Configs every run accepts, over both source models, with dark counts
    up to ``dark_max`` per gate."""
    return st.builds(
        ExperimentConfig,
        source_model=st.sampled_from(SourceModel),
        p_excitation=st.one_of(st.just(0.0), st.floats(1e-3, 1.5)),
        delay_dt=st.floats(0.0, 1e-5),
        retrieval_eff=st.floats(0.0, 1.0),
        transmission=st.floats(0.0, 1.0),
        detector_eff=st.floats(0.0, 1.0),
        memory_lifetime=st.one_of(st.just(NO_DECAY), st.floats(1e-7, 1e-4)),
        memory_diffusion_in=_means,
        dark_mean=st.one_of(st.just(0.0), st.floats(1e-4, dark_max)),
        bg_stokes_mean=_means,
        bg_antistokes_mean=_means,
    )


def _window_slice(hist: CoincidenceHistogram, lo: float, hi: float) -> slice:
    """Bins whose left edge lies in [lo, hi); exact at aligned edges."""
    bw = hist.bin_width

    def edge(x: float) -> int:
        q = x / bw
        r = round(q)
        return int(r) if abs(q - r) <= 1e-9 * max(abs(q), 1.0) else int(np.ceil(q))

    return slice(max(edge(lo), 0), min(edge(hi), hist.n_bins))


def peak_areas(hist: CoincidenceHistogram, cycle_period: float,
               gate_width: float, baseline_peaks: int,
               peak_offset: float = 0.0) -> PeakAreas:
    """Integrate the same-trial peak and the cross-trial baseline peaks.

    N sums the bins in [peak_offset, peak_offset + gate_width); peak j
    (j = 1..baseline_peaks) sums [peak_offset + j * cycle_period,
    peak_offset + j * cycle_period + gate_width); M is the arithmetic mean
    of the baseline-peak areas.  ``peak_offset`` shifts all windows by the
    start-stop gate offset of the pair (zero for same-gate pairs).
    """
    if gate_width >= cycle_period:
        raise ValueError("gate_width must be smaller than cycle_period")
    if baseline_peaks < 1:
        raise ValueError(f"baseline_peaks must be >= 1, got {baseline_peaks}")
    needed = baseline_peaks * cycle_period + peak_offset + gate_width
    if hist.span < needed:
        raise ValueError(
            f"histogram span {hist.span} too small: needs >= {needed} to cover "
            f"{baseline_peaks} baseline peaks at offset {peak_offset}")
    areas = []
    for j in range(baseline_peaks + 1):
        lo = peak_offset + j * cycle_period
        areas.append(hist.bins[_window_slice(hist, lo, lo + gate_width)].sum())
    return PeakAreas.from_counts(areas)


def load_histogram(path, bin_width: float, span: float) -> CoincidenceHistogram:
    """Read a histogram written by :func:`export_histogram`.

    The file lists only the nonzero bins; ``bin_width`` and ``span`` (a run's
    ``hist_bin`` and ``hist_span``) give the binning.  A row whose edge is not
    ``repr(i * bin_width)`` for a bin i in range, a bin out of order or
    repeated, and a zero count each raise ValueError.
    """
    n_bins = round(span / bin_width)
    bins = np.zeros(n_bins, dtype=np.int64)
    last = -1
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "delay_bin_start_seconds,count":
            raise ValueError(f"unexpected histogram header: {header!r}")
        for line in fh:
            edge, _, count = line.partition(",")
            at = float(edge) / bin_width
            i = round(at) if math.isfinite(at) else -1
            if not 0 <= i < n_bins or edge != repr(i * bin_width):
                raise ValueError(f"{edge!r} is not the edge of a bin")
            if i <= last:
                raise ValueError(f"bin {i} is out of order or repeated")
            last, bins[i] = i, int(count)
            if bins[i] < 1:
                raise ValueError(f"bin {i} is listed with count {count.strip()}")
    return CoincidenceHistogram(pair_id=("?", "?"), bin_width=bin_width,
                                span=span, bins=bins)


def counts_in_one_call(start_trials, start_offsets, stop_trials, stop_offsets,
                       shift: float, baseline_peaks: int) -> np.ndarray:
    """``engine.extract_peak_areas`` over whole inputs in one call.

    The table gets one entry per trial up to the last click plus
    ``baseline_peaks``, so no start is turned away.
    """
    last = max([-1, *start_trials[-1:], *stop_trials[-1:]])
    table = np.full(int(last) + baseline_peaks + 1, -np.inf)
    return extract_peak_areas(start_trials, start_offsets, stop_trials,
                              stop_offsets, shift, baseline_peaks, table)


def first_sources(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """First nonzero source of active trials with uniforms ``u``: a search
    of the source CDF at u * a, clamped to the last source of positive
    weight (u * a == a belongs to it)."""
    last = np.flatnonzero(np.diff(cdf, prepend=0.0) > 0)[-1]
    return np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"), last)


def joint_pmf(p: float, model: SourceModel, n_s: int, n_m: int) -> float:
    """Exact probability of the joint count (n_s, n_m) under the source law.

    For ``quantum_tms`` the pmf is zero off the diagonal n_s == n_m; for
    ``classical_correlated`` the exponential mixture of Poisson pairs
    integrates to

        P(n_s, n_m) = C(n_s + n_m, n_s) * (1/p) / (2 + 1/p)**(n_s + n_m + 1).
    """
    if p < 0:
        raise ValueError(f"mean excitation p must be >= 0, got {p}")
    if n_s < 0 or n_m < 0:
        raise ValueError("counts must be >= 0")
    if model is SourceModel.QUANTUM_TMS:
        if n_s != n_m:
            return 0.0
        if p == 0:
            return 1.0 if n_s == 0 else 0.0
        return math.exp(n_s * math.log(p) - (n_s + 1) * math.log1p(p))
    if model is SourceModel.CLASSICAL_CORRELATED:
        if p == 0:
            return 1.0 if (n_s == 0 and n_m == 0) else 0.0
        k = n_s + n_m
        log_binom = math.lgamma(k + 1) - math.lgamma(n_s + 1) - math.lgamma(n_m + 1)
        return float(np.exp(log_binom - math.log(p)
                            - (k + 1) * math.log(2.0 + 1.0 / p)))
    raise ValueError(f"unknown source model: {model!r}")


def ideal_violation(p: float) -> float:
    """Violation ratio ((1 + p)/(2 p))**2 of the ideal noise-free source."""
    if not p > 0:  # NaN too
        raise ValueError(f"excitation parameter p must be > 0, got {p}")
    return ((1.0 + p) / (2.0 * p)) ** 2


def binomial_inversion(n: int, p: float, uniforms) -> tuple[int, int]:
    """numpy's Binomial(n, p) draw where min(p, 1 - p) * n <= 30, taking
    uniforms from the sequence ``uniforms``; returns the draw and the
    number of uniforms it took.

    numpy walks Binomial(n, p') with p' = min(p, 1 - p) and returns n minus
    the walk for p > 0.5; a walk past ``bound`` starts again on a fresh
    uniform.  Nothing is drawn for n == 0 or p == 0.
    """
    if n == 0 or p == 0.0:
        return 0, 0
    flip = p > 0.5
    p = 1.0 - p if flip else p
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px, u, used = 0, qn, uniforms[0], 1
    while u > px:
        x += 1
        if x > bound:
            x, px, u, used = 0, qn, uniforms[used], used + 1
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return (n - x if flip else x), used


def active_trials(n: int, active: float, rng: np.random.Generator) -> np.ndarray:
    """``engine._active_trials`` with its gaps drawn by ``rng.geometric``."""
    if active == 0.0:
        return np.empty(0, dtype=np.int64)
    batch = int(n * active + 5.0 * math.sqrt(n * active)) + 16
    chunks, last = [], -1
    while last < n:
        positions = np.cumsum(np.minimum(rng.geometric(active, size=batch), n + 1)) + last
        chunks.append(positions)
        last = positions[-1]
    positions = np.concatenate(chunks)
    return positions[:positions.searchsorted(n)]
