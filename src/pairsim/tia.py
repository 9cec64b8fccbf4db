"""Start-stop coincidence histograms and their export.

This emulates a time-interval analyzer: one detector provides start
signals, another provides stops, and every stop arriving within ``span``
after a start increments the histogram bin floor(delay / bin_width).
Multi-stop semantics are used (every stop after each start is counted, not
only the first), which keeps the cross-trial baseline unbiased.  Start and
stop streams must be strictly increasing; the engine builds them in trial
order, so they never need sorting here.

Pairs are enumerated one stop rank at a time (see :func:`histogram`), so
memory grows with the starts and bins, never with the pairs.

Because trials repeat with the duty-cycle period, the histogram clusters
into peaks: the peak at zero lag collects same-trial coincidences and the
peaks at multiples of the cycle period collect accidental coincidences
between different trials.  N is the area of the same-trial peak and M the
mean area of the following ``baseline_peaks`` peaks; the normalized
correlation is their ratio (see :mod:`pairsim.analysis`).  For detector
pairs whose gates are offset within the cycle (the Stokes to anti-Stokes
pair is delayed by the write-read delay), the peaks sit ``shift`` later.
"""

from __future__ import annotations

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

    Pass r bins each start's r-th stop in range: every start keeps the index
    of its next stop, and a start leaves once that stop is ``span`` or more
    after it.  Engine streams click at most once per detector per
    trial, so they need at most ceil(span / cycle_period) + 1 passes.  The
    passes' bins are held until they reach ``n_bins`` and then counted in
    one ``bincount``, so temporaries stay O(starts + n_bins).
    """
    _require_sorted(start.timestamps, f"stream {start.detector_id}")
    _require_sorted(stop.timestamps, f"stream {stop.detector_id}")
    n_bins = _bin_count(span, bin_width)
    counts = np.zeros(n_bins, dtype=np.int64)
    starts = start.timestamps
    stops = np.append(stop.timestamps, np.inf)  # every start runs out at inf
    nxt = np.searchsorted(stops, starts, side="left")
    held, n_held = [], 0
    while True:
        delay = stops[nxt] - starts
        going = delay < span
        if not going.all():
            nxt, starts, delay = nxt[going], starts[going], delay[going]
        if not nxt.size:
            break
        delay /= bin_width
        bins = np.floor(delay, out=delay).astype(np.int64)
        held.append(bins[bins < n_bins])
        n_held += held[-1].size
        if n_held >= n_bins:
            counts += np.bincount(np.concatenate(held), minlength=n_bins)
            held, n_held = [], 0
        nxt += 1
    if held:
        counts += np.bincount(np.concatenate(held), minlength=n_bins)
    return CoincidenceHistogram(
        pair_id=(start.detector_id, stop.detector_id),
        bin_width=bin_width, span=span, bins=counts)


def export_histogram(hist: CoincidenceHistogram, path) -> None:
    """Write the histogram's nonzero bins as delimited text, one row each.

    Column order is fixed: delay_bin_start_seconds, count.  Edges are
    ``repr`` floats of :meth:`CoincidenceHistogram.bin_starts`; bins not
    listed are zero, and the run's ``hist_bin`` and ``hist_span`` give the
    binning.
    """
    nonzero = np.flatnonzero(hist.bins)
    edges = (nonzero * hist.bin_width).tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write("delay_bin_start_seconds,count\n")
        fh.writelines(f"{edge!r},{count}\n"
                      for edge, count in zip(edges, hist.bins[nonzero].tolist()))
