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
between different trials.  N is the area of the same-trial peak and M the
mean area of the following ``baseline_peaks`` peaks; the normalized
correlation is their ratio (see :mod:`pairsim.analysis`).  For detector
pairs whose gates are offset within the cycle (the Stokes to anti-Stokes
pair is delayed by the write-read delay), the peaks sit ``shift`` later.

N and M are not read off the histogram.  Peak j of a pair counts the pairs
with the start in trial i, the stop in trial i + j and ``stop offset -
shift >= start offset``, offsets taken within the cycle;
:func:`peak_areas_from_clicks` counts exactly that from per-trial click
tables, without binning, so the areas do not depend on the bin width.  It
is called once per block of trials: the caller passes one all -inf table
with an entry per trial of the block plus ``baseline_peaks``, the call
fills it with the block's stops, counts the block's starts against it and
leaves it all -inf again, so the caller reuses it for every block.  Where
the bin edges line up with the peak windows (the defaults do), the counts
equal the histogram windows, up to pairs whose two offsets differ by a
rounding error of the timestamps.
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
    n_round = round(n) if np.isfinite(n) else 0
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


def peak_areas_from_clicks(start_trials: np.ndarray, start_offsets: np.ndarray,
                           stop_trials: np.ndarray, stop_offsets: np.ndarray,
                           shift: float, baseline_peaks: int,
                           table: np.ndarray) -> np.ndarray:
    """Int64 counts of peaks 0..baseline_peaks of one pair, from its click tables.

    Each detector clicks at most once per trial: ``*_trials`` are its
    strictly increasing trial indices and ``*_offsets`` the within-cycle
    click times in the same order.  Peak j counts the start-stop pairs with
    the start in some trial i, the stop in trial i + j and ``stop offset -
    shift >= start offset``; ``shift`` is the start-stop gate offset of the
    pair (zero for same-gate pairs).  These are exactly the pairs that the
    histogram window of peak j collects: every ``ExperimentConfig`` holds
    gates to at most half a cycle, so no pair at trial lag j + 1 reaches
    that window.

    ``table`` is a float array, all -inf, with one entry per trial.  The
    stops set their entries to ``stop offset - shift`` and every start is
    compared with the entries at lags 0..baseline_peaks; then the stops'
    entries go back to -inf, so one table serves every call.  Every start
    trial must be below ``len(table) - baseline_peaks`` (ValueError
    otherwise) and every stop trial below ``len(table)``.
    """
    if baseline_peaks < 1:
        raise ValueError(f"baseline_peaks must be >= 1, got {baseline_peaks}")
    start_trials = np.asarray(start_trials, dtype=np.int64)
    stop_trials = np.asarray(stop_trials, dtype=np.int64)
    _require_sorted(start_trials, "start trials")
    _require_sorted(stop_trials, "stop trials")
    if start_trials.size and start_trials[-1] >= table.size - baseline_peaks:
        raise ValueError(f"start trial {start_trials[-1]} needs a table longer than "
                         f"{table.size} entries to reach {baseline_peaks} peaks on")
    counts = np.zeros(baseline_peaks + 1, dtype=np.int64)
    if start_trials.size == 0 or stop_trials.size == 0:
        return counts
    table[stop_trials] = stop_offsets - shift
    for j in range(baseline_peaks + 1):
        counts[j] = np.count_nonzero(table[j:][start_trials] >= start_offsets)
    table[stop_trials] = -np.inf  # cheaper than refilling when clicks are sparse
    return counts


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
