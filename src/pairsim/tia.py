"""Start-stop coincidence histograms and peak-area extraction.

This emulates a time-interval analyzer: one detector provides start
signals, another provides stops, and every stop arriving within ``span``
after a start increments the histogram bin floor(delay / bin_width).
Multi-stop semantics are used (every stop after each start is counted, not
only the first), which keeps the cross-trial baseline unbiased.  Start and
stop streams must be strictly increasing; the engine builds them in trial
order, so they never need sorting here.

Pairs are enumerated one stop rank at a time (see :func:`histogram`), so
memory grows with the starts and bins, never with the pairs.

Export writes one text row per bin.  The rows of one binning are rendered
once with count 0 and kept (about 4 MiB for the preset's 180,000 bins);
each histogram is written by splicing its nonzero counts into that table
(see :func:`export_histogram`), so the four files of a run share it.

Because trials repeat with the duty-cycle period, the histogram clusters
into peaks: the peak at zero lag collects same-trial coincidences and the
peaks at multiples of the cycle period collect accidental coincidences
between different trials.  ``peak_areas`` integrates the same-trial peak
(N) and the mean of the following baseline peaks (M); the normalized
correlation is their ratio (see :mod:`pairsim.analysis`).

For detector pairs whose gates are offset within the cycle (the Stokes to
anti-Stokes pair is delayed by the write-read delay), the peak windows are
shifted by ``peak_offset`` so that they track the actual peak positions.

A run does not need the histogram for N and M.  Peak j of a pair counts
the pairs with the start in trial i, the stop in trial i + j and
``stop offset - shift >= start offset``, offsets taken within the cycle;
:func:`peak_areas_from_clicks` counts exactly that from the per-trial
click tables, without binning, so its areas do not depend on the bin
width.  Wherever the bin edges line up with the peak windows (the
defaults do) it agrees with ``peak_areas`` of the histogram, up to pairs
whose two offsets differ by a rounding error of the timestamps.
``peak_areas`` stays the reader for histograms loaded from files.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


class StreamOrderError(ValueError):
    """A timestamp stream violated its strictly-increasing contract."""


@dataclass
class TimestampStream:
    """Ordered click timestamps of one detector over a whole run."""

    detector_id: str
    timestamps: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)

    def __len__(self) -> int:
        return self.timestamps.size


@dataclass
class CoincidenceHistogram:
    """Binned start-stop delay counts for one detector pair."""

    pair_id: tuple[str, str]
    bin_width: float
    span: float
    bins: np.ndarray = field(repr=False)

    @property
    def n_bins(self) -> int:
        return self.bins.size

    def bin_starts(self) -> np.ndarray:
        """Left edge of every bin, in seconds of delay."""
        return np.arange(self.n_bins) * self.bin_width


@dataclass
class PeakAreas:
    """Same-trial peak area N and cross-trial baseline M for one pair."""

    n_same_trial: float
    m_baseline: float
    per_peak: tuple[float, ...]

    @classmethod
    def from_counts(cls, counts) -> PeakAreas:
        """Areas from the counts of peaks 0..baseline_peaks."""
        areas = [float(c) for c in counts]
        baseline = tuple(areas[1:])
        return cls(n_same_trial=areas[0], m_baseline=sum(baseline) / len(baseline),
                   per_peak=baseline)


def _require_sorted(values: np.ndarray, name: str) -> None:
    if values.size > 1 and not (values[1:] > values[:-1]).all():
        raise StreamOrderError(f"{name} is not strictly increasing")


def _bin_count(span: float, bin_width: float) -> int:
    if bin_width <= 0:
        raise ValueError(f"bin_width must be > 0, got {bin_width}")
    n = span / bin_width
    n_round = round(n)
    if n_round < 1 or abs(n - n_round) > 1e-9 * max(n, 1.0):
        raise ValueError(
            f"span {span} must be a positive integer multiple of bin_width {bin_width}")
    return int(n_round)


def histogram(start: TimestampStream, stop: TimestampStream,
              bin_width: float, span: float) -> CoincidenceHistogram:
    """Build the start-stop coincidence histogram for one detector pair.

    For every start time t_s and stop time t_p with 0 <= t_p - t_s < span
    the bin floor((t_p - t_s) / bin_width) is incremented.  Deterministic;
    negative delays are never recorded.

    Pass r bins each start's r-th stop in range, with O(starts + n_bins)
    temporaries.  Engine streams click at most once per detector per
    trial, so they need at most ceil(span / cycle_period) + 1 passes.
    """
    _require_sorted(start.timestamps, f"stream {start.detector_id}")
    _require_sorted(stop.timestamps, f"stream {stop.detector_id}")
    n_bins = _bin_count(span, bin_width)
    counts = np.zeros(n_bins, dtype=np.int64)
    starts = start.timestamps
    stops = stop.timestamps
    nxt = np.searchsorted(stops, starts, side="left")
    end = np.searchsorted(stops, starts + span, side="left")
    live = np.flatnonzero(nxt < end)
    while live.size:
        bins = np.floor((stops[nxt[live]] - starts[live]) / bin_width).astype(np.int64)
        counts += np.bincount(bins[bins < n_bins], minlength=n_bins)
        nxt[live] += 1
        live = live[nxt[live] < end[live]]
    return CoincidenceHistogram(
        pair_id=(start.detector_id, stop.detector_id),
        bin_width=bin_width, span=span, bins=counts)


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


CHUNK_TRIALS = 1 << 16
"""Trials per chunk of :func:`peak_areas_from_clicks`.  It bounds the dense
stop table of one chunk; the areas do not depend on it."""


def empty_stop_table(baseline_peaks: int) -> np.ndarray:
    """The dense stop table of :func:`peak_areas_from_clicks`, all -inf."""
    return np.full(CHUNK_TRIALS + baseline_peaks, -np.inf)


def peak_areas_from_clicks(start_trials: np.ndarray, start_offsets: np.ndarray,
                           stop_trials: np.ndarray, stop_offsets: np.ndarray,
                           shift: float, baseline_peaks: int,
                           table: np.ndarray | None = None) -> PeakAreas:
    """Peak areas of one pair, counted from its click tables.

    Each detector clicks at most once per trial: ``*_trials`` are its
    strictly increasing trial indices and ``*_offsets`` the within-cycle
    click times in the same order.  Peak j (j = 0..baseline_peaks) counts
    the start-stop pairs with the start in some trial i, the stop in trial
    i + j and ``stop offset - shift >= start offset``; ``shift`` is the
    start-stop gate offset of the pair (zero for same-gate pairs).  These
    are exactly the pairs that the histogram window of peak j collects:
    ``config.validate`` holds gates to at most half a cycle, so no pair at
    trial lag j + 1 reaches that window.

    The run is walked in chunks of ``CHUNK_TRIALS`` start trials, each
    beginning at the first start not yet counted.  Chunk [lo, lo +
    CHUNK_TRIALS) fills one dense table over trials [lo, lo + CHUNK_TRIALS +
    baseline_peaks) with ``stop offset - shift``, or -inf where the stop
    detector did not click, and compares it with each start at lags
    0..baseline_peaks.
    ``table``, if given, is that table as :func:`empty_stop_table` makes
    it.  Each chunk sets its entries back to -inf, so a caller that counts
    a run block by block can pass one table to every call instead of having
    each call fill a fresh one.
    """
    if baseline_peaks < 1:
        raise ValueError(f"baseline_peaks must be >= 1, got {baseline_peaks}")
    start_trials = np.asarray(start_trials, dtype=np.int64)
    stop_trials = np.asarray(stop_trials, dtype=np.int64)
    _require_sorted(start_trials, "start trials")
    _require_sorted(stop_trials, "stop trials")
    counts = np.zeros(baseline_peaks + 1, dtype=np.int64)
    if start_trials.size == 0 or stop_trials.size == 0:
        return PeakAreas.from_counts(counts)
    if table is None:
        table = empty_stop_table(baseline_peaks)
    elif table.shape != (CHUNK_TRIALS + baseline_peaks,):
        raise ValueError(f"table needs {CHUNK_TRIALS + baseline_peaks} entries, "
                         f"got shape {table.shape}")
    s = 0
    while s < start_trials.size:
        first = int(start_trials[s])
        e = start_trials.searchsorted(first + CHUNK_TRIALS)
        stops = slice(stop_trials.searchsorted(first),
                      stop_trials.searchsorted(first + CHUNK_TRIALS + baseline_peaks))
        filled = stop_trials[stops] - first
        table[filled] = stop_offsets[stops] - shift
        at = start_trials[s:e] - first
        offsets = start_offsets[s:e]
        for j in range(baseline_peaks + 1):
            counts[j] += np.count_nonzero(table[j:j + CHUNK_TRIALS][at] >= offsets)
        table[filled] = -np.inf  # cheaper than refilling when clicks are sparse
        s = e
    return PeakAreas.from_counts(counts)


_ROWS_PER_CHUNK = 4096


@functools.lru_cache(maxsize=1)
def _zero_rows(bin_width: float, n_bins: int) -> tuple[bytes, np.ndarray]:
    """Every export row with count 0, and the byte offset of each row's count.

    Edges are rendered a chunk at a time with the floats of ``bin_starts``.
    """
    edges = np.arange(n_bins) * bin_width
    table = b"".join(
        "".join(f"{edge!r},0\n" for edge in edges[i:i + _ROWS_PER_CHUNK].tolist()).encode()
        for i in range(0, n_bins, _ROWS_PER_CHUNK))
    count_at = np.flatnonzero(np.frombuffer(table, np.uint8) == ord("\n")) - 1
    return table, count_at


def export_histogram(hist: CoincidenceHistogram, path) -> None:
    """Write the histogram as delimited text, one row per bin.

    Column order is fixed: delay_bin_start_seconds, count.  Edges are
    ``repr`` floats of :meth:`CoincidenceHistogram.bin_starts`.  The rows are
    rendered once per binning with count 0 (``_zero_rows``, which keeps the
    last binning's table, about 4 MiB at the preset), and each export
    splices in only its nonzero counts.
    """
    table, count_at = _zero_rows(hist.bin_width, hist.n_bins)
    view = memoryview(table)
    nonzero = np.flatnonzero(hist.bins)
    done = 0
    with open(path, "wb") as fh:
        fh.write(b"delay_bin_start_seconds,count\n")
        for at, count in zip(count_at[nonzero].tolist(), hist.bins[nonzero].tolist()):
            fh.write(view[done:at])
            fh.write(b"%d" % count)
            done = at + 1
        fh.write(view[done:])


def load_histogram(path, pair_id: tuple[str, str] = ("?", "?")) -> CoincidenceHistogram:
    """Read a histogram written by :func:`export_histogram`."""
    edges: list[float] = []
    counts: list[int] = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "delay_bin_start_seconds,count":
            raise ValueError(f"unexpected histogram header: {header!r}")
        for line in fh:
            edge, _, count = line.partition(",")
            edges.append(float(edge))
            counts.append(int(count))
    if len(edges) < 2:
        raise ValueError("histogram file needs at least two bins to "
                         "recover the bin width")
    bin_width = edges[1] - edges[0]
    span = bin_width * len(edges)
    return CoincidenceHistogram(pair_id=pair_id, bin_width=bin_width,
                                span=span, bins=np.asarray(counts, dtype=np.int64))
