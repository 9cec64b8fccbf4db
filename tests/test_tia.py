"""Time-interval analysis: histograms, peak areas, histogram export."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from pairsim import (CoincidenceHistogram, SourceModel, StreamOrderError,
                     TimestampStream, export_histogram, histogram, simulate_run)
from pairsim.config import ExperimentConfig
from pairsim.engine import extract_peak_areas
from pairsim.tia import PeakAreas
from reference import counts_in_one_call, load_histogram, peak_areas


def stream(det, times):
    return TimestampStream(detector_id=det, timestamps=np.asarray(times, float))


def brute_force_histogram(starts, stops, bin_width, span):
    """Quadratic pairing oracle following the histogram definition directly."""
    n_bins = int(round(span / bin_width))
    counts = np.zeros(n_bins, dtype=np.int64)
    for t_s in starts:
        for t_p in stops:
            d = t_p - t_s
            if 0.0 <= d < span:
                b = int(math.floor(d / bin_width))
                if b < n_bins:
                    counts[b] += 1
    return counts


def test_empty_start_stream_gives_zero_histogram():
    hist = histogram(stream("A", []), stream("B", [1e-6, 2e-6]), 1e-8, 1e-6)
    assert hist.bins.sum() == 0
    assert hist.n_bins == 100


def test_single_pair_lands_in_expected_bin():
    hist = histogram(stream("A", [0.0]), stream("B", [55e-9]), 10e-9, 1e-6)
    assert hist.bins[5] == 1
    assert hist.bins.sum() == 1


def test_delay_below_span_that_floors_to_n_bins_is_dropped():
    stop = 0.00019999999999999998
    assert stop < 2e-4 and math.floor(stop / 1e-6) == 200
    hist = histogram(stream("A", [0.0]), stream("B", [stop]), 1e-6, 2e-4)
    assert hist.n_bins == 200
    assert hist.bins.sum() == 0


def test_stop_at_start_lands_in_bin_zero():
    hist = histogram(stream("A", [3e-6]), stream("B", [3e-6]), 1e-8, 1e-6)
    assert hist.bins[0] == 1
    assert hist.bins.sum() == 1


def test_stop_at_start_plus_span_not_counted():
    hist = histogram(stream("A", [0.0]), stream("B", [1e-6 - 1e-8, 1e-6]),
                     1e-8, 1e-6)
    assert hist.bins[-1] == 1
    assert hist.bins.sum() == 1


def test_unsorted_stream_rejected():
    bad = stream("A", [2e-6, 1e-6])
    with pytest.raises(StreamOrderError):
        histogram(bad, stream("B", [1e-6]), 1e-8, 1e-6)


def test_span_must_be_multiple_of_bin_width():
    with pytest.raises(ValueError, match="multiple"):
        histogram(stream("A", [0.0]), stream("B", [1e-7]), 3e-8, 1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_histogram_matches_quadratic_brute_force(seed):
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.uniform(0, 1e-3, size=400))
    stops = np.sort(rng.uniform(0, 1e-3, size=500))
    bin_width, span = 1e-6, 2e-4
    hist = histogram(stream("A", starts), stream("C", stops), bin_width, span)
    brute = brute_force_histogram(starts, stops, bin_width, span)
    assert np.array_equal(hist.bins, brute)
    assert hist.bins.sum() == brute.sum()


@pytest.mark.parametrize("starts, stops", [
    # Binary fractions, so start + span is exact: a stop there is excluded,
    # the stop just before it is counted.
    pytest.param([0.25, 0.5], [0.5, 0.75, 0.9375, 1.0], id="stop_at_start_plus_span"),
    pytest.param([0.125, 0.25, 0.375], [0.125, 0.375, 0.625], id="stop_equal_to_a_start"),
    pytest.param([0.0], [], id="no_stops"),
])
def test_histogram_boundaries_match_brute_force(starts, stops):
    bin_width, span = 1 / 64, 0.5
    hist = histogram(stream("A", starts), stream("B", stops), bin_width, span)
    assert np.array_equal(hist.bins, brute_force_histogram(starts, stops, bin_width, span))


@pytest.mark.parametrize("bin_width, span", [
    (1e-8, 1.8e-3),  # the preset's binning
    (0.1, 0.3),  # span / bin_width rounds below 3: a delay of span floors to bin 2
])
def test_stop_at_rounded_start_plus_span_matches_brute_force(bin_width, span):
    # fl(start + span) lies less than, exactly or more than span after
    # start: the delay decides, as the docstring and the brute force say.
    starts = np.random.default_rng(18).random(2000)
    delays = (starts + span) - starts
    assert (delays < span).sum() > 300 and (delays == span).any()
    for start in starts.tolist():
        stop = start + span
        hist = histogram(stream("A", [start]), stream("B", [stop]), bin_width, span)
        assert np.array_equal(hist.bins, brute_force_histogram([start], [stop], bin_width,
                                                               span)), start


def test_histogram_with_more_pairs_than_bins_counts_in_several_flushes(monkeypatch):
    # About 6,000 pairs in 20 bins: the held bins reach n_bins after every
    # pass, and each flush adds to the same counts.
    rng = np.random.default_rng(4)
    starts = np.sort(rng.uniform(0, 1e-3, size=300))
    stops = np.sort(rng.uniform(0, 1e-3, size=100))
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
    hist = histogram(stream("A", starts), stream("C", stops), 1e-5, 2e-4)
    monkeypatch.undo()
    brute = brute_force_histogram(starts, stops, 1e-5, 2e-4)
    assert brute.sum() > 100 * hist.n_bins and len(calls) > 2
    assert np.array_equal(hist.bins, brute)


def synthetic_histogram(cycle=2e-4, gate=1e-6, bin_width=1e-8, span=1.8e-3,
                        peak0=100, baseline=70, offset=0.0):
    n_bins = int(round(span / bin_width))
    bins = np.zeros(n_bins, dtype=np.int64)
    per_window = int(round(gate / bin_width))
    for j, total in enumerate([peak0] + [baseline] * 7):
        start = int(round((offset + j * cycle) / bin_width))
        if start + per_window > n_bins:
            break
        bins[start:start + per_window] = 0
        bins[start] = total  # all mass in the first bin of the window
    return CoincidenceHistogram(pair_id=("A", "B"), bin_width=bin_width,
                                span=span, bins=bins)


def test_peak_areas_synthetic_counts():
    areas = peak_areas(synthetic_histogram(), 2e-4, 1e-6, 7)
    assert areas.n_same_trial == 100
    assert areas.m_baseline == 70
    assert areas.per_peak == (70,) * 7


def test_peak_areas_all_zero():
    hist = synthetic_histogram(peak0=0, baseline=0)
    areas = peak_areas(hist, 2e-4, 1e-6, 7)
    assert areas.n_same_trial == 0 and areas.m_baseline == 0


def test_peak_areas_with_offset_windows():
    hist = synthetic_histogram(offset=2e-6)
    areas = peak_areas(hist, 2e-4, 1e-6, 7, peak_offset=2e-6)
    assert areas.n_same_trial == 100 and areas.m_baseline == 70
    # Without the offset the shifted peaks are missed entirely.
    assert peak_areas(hist, 2e-4, 1e-6, 7).n_same_trial == 0


def test_peak_areas_linear():
    rng = np.random.default_rng(5)
    base = synthetic_histogram()
    a = dataclasses.replace(base, bins=rng.integers(0, 9, base.n_bins))
    b = dataclasses.replace(base, bins=rng.integers(0, 9, base.n_bins))
    both = dataclasses.replace(base, bins=a.bins + b.bins)
    pa = peak_areas(a, 2e-4, 1e-6, 7)
    pb = peak_areas(b, 2e-4, 1e-6, 7)
    pab = peak_areas(both, 2e-4, 1e-6, 7)
    assert pab.n_same_trial == pa.n_same_trial + pb.n_same_trial
    assert pab.per_peak == tuple(x + y for x, y in zip(pa.per_peak, pb.per_peak))


def test_peak_areas_span_too_small():
    hist = synthetic_histogram(span=1e-3)
    with pytest.raises(ValueError, match="span"):
        peak_areas(hist, 2e-4, 1e-6, 7)


def test_histogram_export_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    base = synthetic_histogram()
    hist = dataclasses.replace(base, bins=rng.integers(0, 50, base.n_bins))
    path = tmp_path / "hist.csv"
    export_histogram(hist, path)
    loaded = load_histogram(path, hist.bin_width, hist.span)
    assert np.array_equal(loaded.bins, hist.bins)
    header = path.read_text().splitlines()[0]
    assert header == "delay_bin_start_seconds,count"


@pytest.mark.parametrize("rows", [
    "1.5e-08,2\n",                  # between two edges
    "1.0000000000000001e-08,2\n",   # not the repr of bin 1's edge
    "-1e-08,2\n",                   # before the first bin
    "0.001,2\n",                    # the end of the span, one past the last bin
    "nan,2\n",
    "2e-08,1\n1e-08,1\n",           # out of order
    "1e-08,1\n1e-08,1\n",           # repeated
    "1e-08,0\n",                    # zero count
], ids=["between-edges", "not-repr", "negative", "past-span", "nan", "out-of-order",
        "repeated", "zero-count"])
def test_load_histogram_rejects_rows_the_writer_never_writes(tmp_path, rows):
    path = tmp_path / "hist.csv"
    path.write_text("delay_bin_start_seconds,count\n" + rows)
    with pytest.raises(ValueError):
        load_histogram(path, 1e-8, 1e-3)


def per_row_export(hist):
    """Reference writer: the one f-string per bin of the 0.3.0 files, with the
    rows of zero-count bins left out."""
    rows = (f"{float(edge)!r},{int(count)}\n"
            for edge, count in zip(hist.bin_starts(), hist.bins))
    return ("delay_bin_start_seconds,count\n"
            + "".join(row for row in rows if not row.endswith(",0\n"))).encode()


def counts_histogram(bin_width, counts):
    counts = np.asarray(counts, dtype=np.int64)
    return CoincidenceHistogram(pair_id=("A", "B"), bin_width=bin_width,
                                span=bin_width * counts.size, bins=counts)


def edge_counts():
    counts = np.zeros(5000, dtype=np.int64)
    counts[[0, 1, 2499, 4999]] = [3, 1, 123456, 2]
    return counts


@pytest.mark.parametrize("bin_width, counts", [
    (1e-8, edge_counts()),
    (3e-9, edge_counts()),
    (1e-8, np.zeros(1000, dtype=np.int64)),
    (1e-8, [7]),
    (1e-8, [0]),
    (5e-7, np.arange(3200) % 3),
], ids=["first-last-and-large", "bin-3ns", "all-zero", "one-bin", "one-zero-bin",
        "dense"])
def test_export_histogram_matches_per_row_writer(tmp_path, bin_width, counts):
    hist = counts_histogram(bin_width, counts)
    export_histogram(hist, tmp_path / "hist.csv")
    assert (tmp_path / "hist.csv").read_bytes() == per_row_export(hist)


def test_export_histogram_alternating_binnings(tmp_path):
    rng = np.random.default_rng(8)
    hists = [counts_histogram(bw, rng.integers(0, 3, n) * (rng.random(n) < 0.01))
             for bw, n in ((1e-8, 4000), (1e-7, 4000), (1e-8, 9000))]
    for i, hist in enumerate(hists + hists[::-1]):
        path = tmp_path / f"hist_{i}.csv"
        export_histogram(hist, path)
        assert path.read_bytes() == per_row_export(hist)


def test_export_histogram_memory_and_size_follow_the_counts(tmp_path):
    # 1.8M bins (hist_bin=1e-9 over the preset span), about 2,000 of them
    # counted: the file and the memory of writing it grow with those, not
    # with the bins.
    rng = np.random.default_rng(12)
    counts = np.zeros(1_800_000, dtype=np.int64)
    counts[rng.choice(counts.size, 2000, replace=False)] = rng.integers(1, 1000, 2000)
    hist = counts_histogram(1e-9, counts)
    path = tmp_path / "hist.csv"
    tracemalloc.start()
    try:
        export_histogram(hist, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert path.stat().st_size < 200_000
    assert np.array_equal(load_histogram(path, hist.bin_width, hist.span).bins, counts)


def test_uncorrelated_streams_have_flat_peaks():
    # Pure background, no source: accidental coincidences are
    # trial-independent, so the same-trial peak is statistically equal to
    # the baseline.
    cfg = ExperimentConfig(
        source_model=SourceModel.QUANTUM_TMS, p_excitation=0.0, delay_dt=0.0,
        retrieval_eff=1.0, transmission=1.0, detector_eff=1.0,
        bg_stokes_mean=0.05, bg_antistokes_mean=0.05)
    result = simulate_run(cfg, trials=400_000, seed=99)
    for pair in ("11", "22", "12"):
        areas = result.peaks[pair]
        n, m = areas.n_same_trial, areas.m_baseline
        sigma = math.sqrt(n + m / cfg.baseline_peaks) or 1.0
        assert abs(n - m) < 4.0 * sigma, pair


def test_symmetric_pair_role_swap_consistent():
    # Using B as start and A as stop must give statistically compatible
    # N and M on a symmetric configuration.
    cfg = ExperimentConfig(
        source_model=SourceModel.QUANTUM_TMS, p_excitation=0.1, delay_dt=0.0,
        retrieval_eff=1.0, transmission=1.0, detector_eff=1.0)
    result = simulate_run(cfg, trials=200_000, seed=42)
    ab = result.peaks["11"]
    ba_hist = histogram(result.streams["B"], result.streams["A"],
                        cfg.hist_bin, cfg.hist_span)
    ba = peak_areas(ba_hist, cfg.cycle_period, cfg.gate_width, cfg.baseline_peaks)
    for x, y in [(ab.n_same_trial, ba.n_same_trial),
                 (ab.m_baseline, ba.m_baseline)]:
        assert abs(x - y) < 4.0 * math.sqrt(x + y + 1.0)


def brute_force_peak_counts(start_trials, start_offsets, stop_trials, stop_offsets,
                            shift, baseline_peaks):
    """Every start-stop pair, counted in peak j = stop trial - start trial."""
    counts = [0] * (baseline_peaks + 1)
    for t_s, o_s in zip(start_trials, start_offsets):
        for t_p, o_p in zip(stop_trials, stop_offsets):
            j = t_p - t_s
            if 0 <= j <= baseline_peaks and o_p - shift >= o_s:
                counts[j] += 1
    return counts


def click_table(rng, trials, gate_start, gate_width=1e-6):
    trials = np.unique(np.asarray(trials, dtype=np.int64))
    return trials, gate_start + gate_width * rng.random(trials.size)


def assert_matches_brute_force(start, stop, shift, baseline_peaks):
    counts = counts_in_one_call(*start, *stop, shift, baseline_peaks)
    brute = brute_force_peak_counts(*start, *stop, shift, baseline_peaks)
    assert counts.dtype == np.int64
    assert counts.tolist() == brute
    assert PeakAreas.from_counts(counts).m_baseline == sum(brute[1:]) / baseline_peaks
    return brute


K = 7
# Trials around 2**16, where a block of the engine ends.
T = 1 << 16
EDGE = list(range(T - K - 1, T + K + 2))


@pytest.mark.parametrize("start_trials, stop_trials", [
    # Starts just below 2**16 whose stops lie past it.
    (EDGE, EDGE),
    ([T - 1], range(T - 1, T + K + 1)),
    # Starts on both sides of 2**16 and 2**17, stops dense around them.
    ([5, T - 2, T, 2 * T - 1, 2 * T + 3],
     list(range(T - 3, T + 9)) + list(range(2 * T - 2, 2 * T + 9))),
    # A run shorter than baseline_peaks.
    ([0, 1, 3], [0, 1, 2, 3, 4]),
    # Stops only beyond the last baseline peak of every start.
    ([0, 1], [K + 2, K + 5]),
], ids=["edge-block", "last-trial-of-chunk", "two-boundaries", "short-run",
        "stops-out-of-reach"])
@pytest.mark.parametrize("shift", [0.0, 2e-6])
def test_peak_areas_from_clicks_match_brute_force(start_trials, stop_trials, shift):
    rng = np.random.default_rng(len(start_trials) + len(stop_trials))
    start = click_table(rng, start_trials, 0.0)
    stop = click_table(rng, stop_trials, shift)
    assert_matches_brute_force(start, stop, shift, K)


@pytest.mark.parametrize("seed", [0, 1])
def test_peak_areas_from_clicks_match_brute_force_random(seed):
    # Sparse clicks over 3 * 2**16 trials, shifted stop gate.
    rng = np.random.default_rng(seed)
    n = 3 * T
    start = click_table(rng, rng.integers(0, n, 300), 0.0)
    stop = click_table(rng, rng.integers(0, n, 300), 5e-6)
    hits = np.concatenate([start[0] + j for j in range(K + 1)])
    stop = click_table(rng, np.concatenate([stop[0], hits[rng.random(hits.size) < 0.2]]),
                       5e-6)
    counts = assert_matches_brute_force(start, stop, 5e-6, K)
    assert min(counts) > 0


def test_peak_areas_from_clicks_leave_a_given_table_empty():
    # One table serves many calls: each call leaves it all -inf again.
    rng = np.random.default_rng(5)
    table = np.full(T + K, -np.inf)
    for _ in range(3):
        start = click_table(rng, rng.integers(0, T, 300), 0.0)
        stop = click_table(rng, rng.integers(0, T + K, 3000), 5e-6)
        assert np.array_equal(extract_peak_areas(*start, *stop, 5e-6, K, table),
                              counts_in_one_call(*start, *stop, 5e-6, K))
        assert np.all(table == -np.inf)


@pytest.mark.parametrize("start_trials, stop_trials", [
    ([], [0, 1, 2]), ([0, 1, 2], []), ([], [])], ids=["no-starts", "no-stops", "none"])
def test_peak_areas_from_clicks_empty_detectors(start_trials, stop_trials):
    rng = np.random.default_rng(4)
    counts = counts_in_one_call(*click_table(rng, start_trials, 0.0),
                                *click_table(rng, stop_trials, 0.0), 0.0, K)
    assert counts.tolist() == [0] * (K + 1)


def test_peak_areas_from_clicks_count_ties_and_apply_shift():
    # stop - shift == start counts, as a zero delay lands in the first bin;
    # a stop just before the shifted window does not.
    # Dyadic offsets make the subtraction exact.
    start = (np.array([0, 1]), np.array([0.25, 0.5]))
    stop = (np.array([0, 1]), np.array([2.25, 2.5 - 2.0 ** -20]))
    assert counts_in_one_call(*start, *stop, 2.0, 1).tolist() == [1, 1]
