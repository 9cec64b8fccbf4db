"""Run orchestration: determinism, parallelism, exports, sweeps."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from pairsim import (ConfigError, ExperimentConfig, SourceModel, __version__,
                     export_run, oracle_report, reference_preset,
                     render_run_report, simulate_run, sweep)
from pairsim import engine
from pairsim.config import NO_DECAY
from pairsim.engine import BLOCK_TRIALS, HISTOGRAM_PAIRS, derived_seed, export_sweep
from pairsim.oracle import pattern_distribution
from pairsim.tia import PeakAreas
from reference import counts_in_one_call, load_histogram, peak_areas

LOSSLESS = ExperimentConfig(
    source_model=SourceModel.QUANTUM_TMS, p_excitation=0.1, delay_dt=2e-6,
    retrieval_eff=1.0, transmission=1.0, detector_eff=1.0,
    memory_lifetime=NO_DECAY)

PATTERN_FAMILY_ALPHA = 1e-6
EXACT_BELOW = 25.0


def pattern_p_values(counts, probs, trials):
    """Two-sided p-value of each click-pattern count under the oracle law.

    Exact binomial test when either tail expects fewer than EXACT_BELOW
    counts, normal approximation otherwise.
    """
    p_values = []
    for count, prob in zip(counts, probs):
        prob = min(max(float(prob), 0.0), 1.0)
        expected = prob * trials
        if min(expected, trials - expected) < EXACT_BELOW:
            p_values.append(binomtest(int(count), trials, prob).pvalue)
        else:
            sigma = math.sqrt(prob * (1.0 - prob) * trials)
            p_values.append(math.erfc(abs(count - expected) / sigma / math.sqrt(2.0)))
    return np.array(p_values)


def assert_patterns_match_oracle(result, cutoff):
    # pattern_distribution is oracle_report's pattern law; unlike
    # oracle_report it also answers for configs whose g values are undefined.
    law = pattern_distribution(result.config)
    p_values = pattern_p_values(result.pattern_counts, law.probs, result.trials)
    assert np.all(p_values >= cutoff), (result.pattern_counts, law.probs * result.trials)


def assert_runs_identical(r1, r2):
    for det in "ABCD":
        assert np.array_equal(r1.streams[det].timestamps,
                              r2.streams[det].timestamps)
        assert np.array_equal(r1.click_trials[det], r2.click_trials[det])
    for pair in r1.histograms:
        assert np.array_equal(r1.histograms[pair].bins, r2.histograms[pair].bins)
    assert np.array_equal(r1.pattern_counts, r2.pattern_counts)
    assert r1.report == r2.report


def test_same_seed_reproduces_bit_identical_results(preset):
    r1 = simulate_run(preset, trials=50_000, seed=7)
    r2 = simulate_run(preset, trials=50_000, seed=7)
    assert_runs_identical(r1, r2)


def test_worker_count_does_not_change_results(preset):
    trials = 3 * BLOCK_TRIALS + 1234  # force several blocks plus a remainder
    r1 = simulate_run(preset, trials=trials, seed=11, workers=1)
    r4 = simulate_run(preset, trials=trials, seed=11, workers=4)
    assert_runs_identical(r1, r4)


def test_different_seeds_differ(preset):
    r1 = simulate_run(preset, trials=50_000, seed=1)
    r2 = simulate_run(preset, trials=50_000, seed=2)
    assert not np.array_equal(r1.streams["A"].timestamps,
                              r2.streams["A"].timestamps)


# sha256 of the preset's pattern counts, then its click trials of A-D, as
# little-endian int64, at seed 2026 over three blocks.  Integers only, so
# float rounding in printing or libm cannot move it.  A change of the RNG
# stream must bump the version and add its digest here.
STREAM_DIGESTS = {
    "0.3.0": "2ef21dc0aa023cdb338c30680e9ef389975dfffbe5f5f362b62aeff3afc09b53",
}


def test_rng_stream_is_pinned_to_version(preset):
    result = simulate_run(preset, trials=3 * BLOCK_TRIALS, seed=2026)
    digest = hashlib.sha256(result.pattern_counts.astype("<i8").tobytes())
    for det in "ABCD":
        digest.update(result.click_trials[det].astype("<i8").tobytes())
    assert digest.hexdigest() == STREAM_DIGESTS[__version__]


# sha256 of each file export_run writes for the same preset run, with
# keep_events.  A change of the writers, the histogram or the stream must
# bump the version and add its digests here.
EXPORT_DIGESTS = {
    "0.3.0": {
        "hist_11.csv": "b21b335a99234fa7416a9495e5e11b8efb95ba4cdb93c59551498b08de25555d",
        "hist_22.csv": "5f0da53f27389b25dee7dfd908789813aa121d31ffa43c2c3b6499f75fca4e97",
        "hist_12.csv": "0cd5ada12f238030bde5e75a8e6a38cca8436ebbfc533aae2603d04871c36738",
        "hist_12b.csv": "f4d1687c7c1095f17b863909f495ac052d91574319558b692f6315cd77829cab",
        "events.csv": "4f4d3283e79a2be6eca6efbfc0a1c3a9a27bcfd2a20b55b535b6d3d3a4a53a05",
    },
}


def test_export_format_is_pinned_to_version(preset, tmp_path):
    result = simulate_run(preset, trials=3 * BLOCK_TRIALS, seed=2026)
    export_run(result, tmp_path, keep_events=True)
    expected = EXPORT_DIGESTS[__version__]
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in expected} == expected


def test_streams_are_built_on_each_read_and_leave_the_blocks(preset, tmp_path):
    result = simulate_run(preset, trials=3 * BLOCK_TRIALS, seed=2026)
    blocks = result.block_clicks
    before = [{det: (trials.copy(), offsets.copy()) for det, (trials, offsets)
               in block.items()} for block in blocks]
    digest = hashlib.sha256(result.pattern_counts.astype("<i8").tobytes())
    for det in "ABCD":
        digest.update(result.click_trials[det].astype("<i8").tobytes())
    assert digest.hexdigest() == STREAM_DIGESTS[__version__]
    first, second = result.streams, result.streams
    assert first is not second
    for det in "ABCD":
        assert np.array_equal(first[det].timestamps, second[det].timestamps)
        assert np.array_equal(result.click_trials[det], result.click_trials[det])
    export_run(result, tmp_path, keep_events=True)
    render_run_report(result)
    assert result.block_clicks is blocks and len(blocks) == len(before)
    for block, kept in zip(blocks, before):
        assert block.keys() == kept.keys()
        for det, (trials, offsets) in kept.items():
            assert np.array_equal(block[det][0], trials) and block[det][0].dtype == np.uint16
            assert np.array_equal(block[det][1], offsets)


def test_reading_streams_holds_nothing_after_the_read(preset):
    # A saturated run over 4 blocks; a cached copy of the streams would
    # hold 16 bytes a click after the read.
    result = simulate_run(dataclasses.replace(preset, dark_mean=5.0),
                          trials=4 * BLOCK_TRIALS, seed=3)
    clicks = int(result.pattern_counts @ [bin(mask).count("1") for mask in range(16)])
    assert clicks > 4 * BLOCK_TRIALS * 3.9
    tracemalloc.start()
    try:
        held_before, _ = tracemalloc.get_traced_memory()
        streams = result.streams
        held_while, _ = tracemalloc.get_traced_memory()
        del streams
        result.click_trials  # read and dropped as well
        held_after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held_while - held_before > 8 * clicks
    assert held_after - held_before < clicks


def merged_offsets(result):
    """Within-cycle click offsets of the whole run, concatenated from the block tables."""
    return {det: np.concatenate([block[det][1] for block in result.block_clicks])
            for det in "ABCD"}


def one_pass_peaks(result, offsets):
    """Peak areas from one counter call over the merged tables and a run-sized table."""
    config = result.config
    return {label: PeakAreas.from_counts(counts_in_one_call(
                result.click_trials[start], offsets[start],
                result.click_trials[stop], offsets[stop],
                config.delay_dt if shifted else 0.0, config.baseline_peaks))
            for label, start, stop, shifted in HISTOGRAM_PAIRS}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("trials", [
    BLOCK_TRIALS,  # exactly one block
    3 * BLOCK_TRIALS + 3,  # the last block is shorter than baseline_peaks
    4 * BLOCK_TRIALS + 1000,
])
@pytest.mark.parametrize("dark_mean", [None, 5.0])
def test_peaks_counted_per_block_equal_one_pass(preset, monkeypatch, dark_mean,
                                                trials, workers):
    monkeypatch.setattr(engine, "_available_cpus", lambda: 2)
    config = preset if dark_mean is None else dataclasses.replace(preset,
                                                                  dark_mean=dark_mean)
    result = simulate_run(config, trials=trials, seed=13, workers=workers)
    offsets = merged_offsets(result)
    if dark_mean is not None:
        # Every gate nearly always clicks, so pairs straddle every block edge.
        reach = config.baseline_peaks
        for edge in range(BLOCK_TRIALS, trials, BLOCK_TRIALS):
            for det in "ABCD":
                near = result.click_trials[det]
                assert np.any((near >= edge - reach) & (near < edge))
                assert np.any((near >= edge) & (near < edge + reach))
    assert result.peaks == one_pass_peaks(result, offsets)


def test_peaks_reach_past_the_next_block():
    # More baseline peaks than a block has trials: the stops of one start
    # block come from the two blocks after it.
    rng = np.random.default_rng(4)
    reach = BLOCK_TRIALS + 2
    blocks = []
    for _ in range(4):
        inner = rng.choice(np.arange(1, BLOCK_TRIALS - 1), size=4, replace=False)
        trials = np.sort(np.concatenate([[0, BLOCK_TRIALS - 1], inner]))
        blocks.append({det: (trials.astype(np.uint16), rng.random(trials.size))
                       for det in "AB"})
    merged = {det: [np.concatenate([b * BLOCK_TRIALS + block[det][0].astype(np.int64)
                                    for b, block in enumerate(blocks)]),
                    np.concatenate([block[det][1] for block in blocks])]
              for det in "AB"}
    expected = PeakAreas.from_counts(
        counts_in_one_call(*merged["A"], *merged["B"], 0.0, reach))
    assert engine._count_peaks(blocks, "A", "B", 0.0, reach) == expected
    assert sum(expected.per_peak[BLOCK_TRIALS:]) > 0  # lags past one block


def reader_blocks():
    """Block tables of detectors A and B over 3 blocks and a 1000-trial
    remainder, with clicks on both edges of block 0 and none in block 1;
    and the run-level trial indices and offsets of A."""
    rng = np.random.default_rng(6)
    local_trials = [
        np.concatenate([[0], np.sort(rng.choice(np.arange(1, BLOCK_TRIALS - 1), 300,
                                                replace=False)), [BLOCK_TRIALS - 1]]),
        np.empty(0, dtype=np.int64),
        np.sort(rng.choice(BLOCK_TRIALS, 500, replace=False)),
        np.sort(rng.choice(1000, 40, replace=False)),
    ]
    blocks = [{"A": (trials.astype(np.uint16), rng.random(trials.size)),
               "B": (trials[::2].astype(np.uint16), rng.random(trials[::2].size))}
              for trials in local_trials]
    merged = (np.concatenate([b * BLOCK_TRIALS + block["A"][0].astype(np.int64)
                              for b, block in enumerate(blocks)]),
              np.concatenate([block["A"][1] for block in blocks]))
    return blocks, merged


READER_RANGES = [
    (0, 3 * BLOCK_TRIALS + 1000),  # the whole run
    (0, BLOCK_TRIALS),  # exactly one block, clicks on both of its edges
    (BLOCK_TRIALS, 2 * BLOCK_TRIALS),  # exactly the empty block
    (BLOCK_TRIALS, 3 * BLOCK_TRIALS),  # from block edge to block edge
    (BLOCK_TRIALS - 1, BLOCK_TRIALS + 1),  # the last trial before an edge
    (3, BLOCK_TRIALS - 1),  # inside one block, stopping just before its last trial
    (BLOCK_TRIALS - 5, 3 * BLOCK_TRIALS + 5),  # a reach longer than one block
    (2 * BLOCK_TRIALS, 2 * BLOCK_TRIALS + BLOCK_TRIALS + 7),  # into the remainder
    (3 * BLOCK_TRIALS + 500, 10 * BLOCK_TRIALS),  # stop past the run's end
    (5 * BLOCK_TRIALS, 6 * BLOCK_TRIALS),  # wholly past the run's end
    (7, 7),  # empty
]


@pytest.mark.parametrize("first, stop", READER_RANGES)
def test_clicks_in_is_a_slice_of_the_merged_tables(first, stop):
    blocks, (trials, offsets) = reader_blocks()
    inside = (trials >= first) & (trials < stop)
    got_trials, got_offsets = engine._clicks_in(blocks, "A", first, stop)
    assert got_trials.dtype == np.int64
    assert np.array_equal(got_trials, trials[inside] - first)
    assert np.array_equal(got_offsets, offsets[inside])


def test_clicks_in_random_ranges():
    blocks, (trials, offsets) = reader_blocks()
    rng = np.random.default_rng(8)
    for _ in range(200):
        first = int(rng.integers(0, 4 * BLOCK_TRIALS))
        stop = first + int(rng.integers(0, 2 * BLOCK_TRIALS))
        inside = (trials >= first) & (trials < stop)
        got_trials, got_offsets = engine._clicks_in(blocks, "A", first, stop)
        assert np.array_equal(got_trials, trials[inside] - first), (first, stop)
        assert np.array_equal(got_offsets, offsets[inside]), (first, stop)


def test_run_holds_at_most_16_bytes_per_click(preset):
    # Saturated run over 8 blocks.  Holding merged copies of the click
    # tables next to the block tables peaks at about 32 bytes a click; the
    # block tables alone hold 10 and the run peaks near 12.
    config = dataclasses.replace(preset, dark_mean=5.0)
    simulate_run(config, trials=BLOCK_TRIALS, seed=0)  # warm caches and imports
    tracemalloc.start()
    try:
        result = simulate_run(config, trials=8 * BLOCK_TRIALS, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    clicks = sum(trials.size for block in result.block_clicks
                 for trials, _ in block.values())
    assert clicks > 8 * BLOCK_TRIALS * 3.9
    assert peak < 16 * clicks
    render_run_report(result)
    assert "streams" not in vars(result) and "click_trials" not in vars(result)


def test_histograms_are_built_on_first_access_only(preset, monkeypatch, tmp_path):
    def no_histogram(*args, **kwargs):
        raise AssertionError("simulate_run built a histogram")

    monkeypatch.setattr(engine, "build_histogram", no_histogram)
    result = simulate_run(preset, trials=3 * BLOCK_TRIALS, seed=2026)
    monkeypatch.undo()
    assert result.histograms is result.histograms
    export_run(result, tmp_path)
    expected = {name: digest for name, digest in EXPORT_DIGESTS[__version__].items()
                if name.startswith("hist_")}
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in expected} == expected


def test_vacuum_run_reports_undefined_correlation():
    cfg = ExperimentConfig(
        source_model=SourceModel.QUANTUM_TMS, p_excitation=0.0, delay_dt=2e-6,
        retrieval_eff=1.0, transmission=1.0, detector_eff=1.0)
    result = simulate_run(cfg, trials=20_000, seed=3)
    assert all(len(result.streams[det]) == 0 for det in "ABCD")
    assert result.report is None
    assert "undefined" in result.undefined_reason
    text = render_run_report(result)
    assert "verdict = undefined" in text


def test_undefined_reason_names_every_zero_baseline_pair():
    cfg = ExperimentConfig(
        source_model=SourceModel.QUANTUM_TMS, p_excitation=0.0, delay_dt=2e-6,
        retrieval_eff=1.0, transmission=1.0, detector_eff=1.0)
    result = simulate_run(cfg, trials=20_000, seed=3)
    assert result.undefined_reason == (
        "g undefined for AB, CD, AC, BD: zero baseline coincidences")


def test_duplicate_pair_alone_does_not_undefine_the_run(preset):
    # Find a short run where only (B,D) has no baseline coincidence; the
    # report is decided by (A,B), (C,D) and (A,C), and the duplicate shows
    # up as nan.  The search keeps the scenario whatever the RNG stream.
    config = dataclasses.replace(preset, dark_mean=2e-3)
    runs = (simulate_run(config, trials=2_000, seed=seed) for seed in range(500))
    result = next((run for run in runs
                   if [run.peaks[label].m_baseline > 0
                       for label in ("11", "22", "12", "12b")]
                   == [True, True, True, False]), None)
    assert result is not None, "no seed below 500 leaves only (B,D) without a baseline"
    assert result.report is not None and result.undefined_reason is None
    assert all(math.isnan(x) for x in result.g["12b"])
    lines = dict(line.split(" = ") for line in render_run_report(result).splitlines())
    assert lines["verdict"] in ("violated", "not_violated")
    assert lines["g12_check_bd"] == "nan"


def test_peaks_do_not_depend_on_hist_bin(preset):
    # 3 ns bins do not line up with the 200 us peak spacing, so histogram
    # windows would drop the pairs in the bin straddling each window start.
    runs = [simulate_run(dataclasses.replace(preset, hist_bin=hist_bin),
                         trials=1_000_000, seed=11) for hist_bin in (1e-8, 3e-9)]
    assert runs[0].peaks == runs[1].peaks
    assert runs[0].g == runs[1].g
    assert runs[0].report == runs[1].report


PEAK_CONFIGS = {
    "preset": (reference_preset(), 200_000),
    "ideal": (LOSSLESS, 200_000),
    "classical": (dataclasses.replace(
        reference_preset(), source_model=SourceModel.CLASSICAL_CORRELATED), 200_000),
    "saturated": (dataclasses.replace(reference_preset(), dark_mean=5.0), 30_000),
    # The longest valid gate: the window of peak j just misses the pairs at
    # trial lag j + 1.
    "half_cycle_gate": (dataclasses.replace(
        reference_preset(), gate_width=1e-4, delay_dt=0.0, dark_mean=1.0), 20_000),
    "half_cycle_gate_late_read": (dataclasses.replace(
        reference_preset(), gate_width=1e-4, delay_dt=1e-4, dark_mean=1.0), 20_000),
}


@pytest.mark.parametrize("name", list(PEAK_CONFIGS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_peaks_equal_histogram_windows(name, seed):
    # At the default binning the bin edges line up with the peak windows,
    # so counting pairs from the click tables and summing histogram
    # windows give the same areas.
    config, trials = PEAK_CONFIGS[name]
    result = simulate_run(config, trials=trials, seed=seed)
    for label, _, _, shifted in HISTOGRAM_PAIRS:
        assert result.peaks[label] == peak_areas(
            result.histograms[label], config.cycle_period, config.gate_width,
            config.baseline_peaks, peak_offset=config.delay_dt if shifted else 0.0)


def test_click_timestamps_stay_inside_gates(preset):
    result = simulate_run(preset, trials=30_000, seed=5)
    for det, gate_start in (("A", 0.0), ("B", 0.0),
                            ("C", preset.delay_dt), ("D", preset.delay_dt)):
        trials_arr = result.click_trials[det]
        offsets = result.streams[det].timestamps - trials_arr * preset.cycle_period
        assert np.all(offsets >= gate_start)
        assert np.all(offsets < gate_start + preset.gate_width)
        assert np.all(np.diff(result.streams[det].timestamps) > 0)


def test_pattern_counts_consistent_with_streams(preset):
    result = simulate_run(preset, trials=40_000, seed=6)
    assert result.pattern_counts.sum() == result.trials
    masks = np.arange(16)
    for bit, det in enumerate("ABCD"):
        from_patterns = result.pattern_counts[(masks & (1 << bit)) != 0].sum()
        assert from_patterns == len(result.streams[det])


def test_export_round_trip_and_manifest(preset, tmp_path):
    result = simulate_run(preset, trials=30_000, seed=8)
    manifest = export_run(result, tmp_path / "out")
    for name in manifest.outputs:
        assert (tmp_path / "out" / name).exists()
    loaded = load_histogram(tmp_path / "out" / "hist_12.csv")
    assert np.array_equal(loaded.bins, result.histograms["12"].bins)
    raw = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert raw["seed"] == 8 and raw["trials"] == 30_000
    assert __version__ == "0.3.0" and raw["version"] == __version__
    assert manifest.sampler == raw["sampler"] == "active_trial"
    report_text = (tmp_path / "out" / "report.txt").read_text()
    assert report_text == render_run_report(result)


def test_export_is_deterministic(preset, tmp_path):
    for name in ("a", "b"):
        result = simulate_run(preset, trials=20_000, seed=9)
        export_run(result, tmp_path / name)
    for fname in ("hist_11.csv", "hist_22.csv", "hist_12.csv", "hist_12b.csv",
                  "report.txt", "config.txt"):
        assert ((tmp_path / "a" / fname).read_bytes()
                == (tmp_path / "b" / fname).read_bytes()), fname


def test_manifests_differ_only_in_seed_and_timing(preset, tmp_path):
    m1 = export_run(simulate_run(preset, trials=10_000, seed=1), tmp_path / "s1")
    m2 = export_run(simulate_run(preset, trials=10_000, seed=2), tmp_path / "s2")
    assert m1.seed != m2.seed
    assert m1.config_text == m2.config_text
    assert m1.outputs == m2.outputs
    assert m1.trials == m2.trials


def test_keep_events_round_trips_through_merge(preset, tmp_path):
    result = simulate_run(preset, trials=20_000, seed=10)
    export_run(result, tmp_path / "ev", keep_events=True)
    trials = {det: [] for det in "ABCD"}
    times = {det: [] for det in "ABCD"}
    with open(tmp_path / "ev" / "events.csv") as fh:
        assert fh.readline().strip() == "detector,trial_index,timestamp_seconds"
        for line in fh:
            det, trial, ts = line.strip().split(",")
            trials[det].append(int(trial))
            times[det].append(float(ts))
    for det in "ABCD":
        assert np.array_equal(trials[det], result.click_trials[det])
        assert np.array_equal(times[det], result.streams[det].timestamps)


def test_cross_pair_duplicate_consistent(preset):
    result = simulate_run(preset, trials=500_000, seed=12)
    (g_ac, s_ac), (g_bd, s_bd) = result.g["12"], result.g["12b"]
    assert abs(g_ac - g_bd) < 4.0 * math.hypot(s_ac, s_bd)


def test_sweep_empty_values(preset):
    assert sweep(preset, "delay_dt", []) == []


def test_sweep_unknown_parameter(preset):
    with pytest.raises(ValueError, match="unknown config parameter"):
        sweep(preset, "detuning", [1.0])


@pytest.mark.parametrize("parameter, trials, message", [
    ("rng_seed", None, "rng_seed cannot be swept"),
    ("rng_seed", 1000, "rng_seed cannot be swept"),
    ("n_trials", 1000, "n_trials cannot be swept"),
])
def test_sweep_refuses_ignored_parameter(preset, parameter, trials, message):
    # Each value would run with a derived seed, or with ``trials`` trials.
    with pytest.raises(ConfigError, match=message):
        sweep(preset, parameter, [1000, 2000], trials=trials)


def test_sweep_n_trials_without_trials_override(preset):
    rows = sweep(preset, "n_trials", [1000, 2000], seed=4)
    assert [row["value"] for row in rows] == [1000, 2000]


def test_sweep_validates_every_value_before_running(preset, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("simulate_run called before validation")

    monkeypatch.setattr(engine, "simulate_run", no_run)
    with pytest.raises(ConfigError, match="delay_dt"):
        sweep(preset, "delay_dt", [0.0, 2e-6, 1.0], trials=1000)


@pytest.mark.parametrize("seed", [2 ** 64, -1])
def test_sweep_refuses_seed_outside_64_bits(preset, seed):
    with pytest.raises(ValueError, match="seed"):
        sweep(preset, "delay_dt", [0.0], trials=1000, seed=seed)


@pytest.mark.parametrize("trials, workers, message", [
    (1000, 0, "workers"),
    (0, 2, "trials"),
])
def test_sweep_checks_run_arguments_before_any_pool(preset, monkeypatch, trials,
                                                    workers, message):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(engine, "_available_cpus", lambda: 2)
    with pytest.raises(ValueError, match=message):
        sweep(preset, "delay_dt", [0.0, 2e-6], trials=trials, workers=workers)


@pytest.mark.parametrize("parameter, values, trials", [
    ("delay_dt", [0.0, 2e-6, 8e-6], 3 * BLOCK_TRIALS + 1234),
    # One, two and three blocks per value; the last value ends in a remainder block.
    ("n_trials", [1000, 2 * BLOCK_TRIALS, 2 * BLOCK_TRIALS + 777], None),
])
def test_sweep_does_not_depend_on_workers(preset, monkeypatch, tmp_path, parameter,
                                          values, trials):
    # Two CPUs whatever the host has, so workers=2 really uses the pool.
    monkeypatch.setattr(engine, "_available_cpus", lambda: 2)
    out = {}
    for workers in (1, 2):
        rows = sweep(preset, parameter, values, trials=trials, seed=5, workers=workers)
        export_sweep(rows, tmp_path / f"sweep_{workers}.csv")
        out[workers] = (repr(rows), (tmp_path / f"sweep_{workers}.csv").read_bytes())
    assert out[1] == out[2]


class CountingPool(engine.ProcessPoolExecutor):
    """A process pool that records its construction, submits and shutdown."""

    created = 0
    submitted: list = []  # seed of every submitted block, in submit order
    shutdowns: list = []  # cancel_futures of every shutdown call

    def __init__(self, *args, **kwargs):
        type(self).created += 1
        super().__init__(*args, **kwargs)

    def submit(self, fn, task, **kwargs):
        type(self).submitted.append(task[1])
        return super().submit(fn, task, **kwargs)

    def shutdown(self, wait=True, *, cancel_futures=False):
        type(self).shutdowns.append(cancel_futures)
        super().shutdown(wait, cancel_futures=cancel_futures)


@pytest.fixture
def counting_pool(monkeypatch):
    """Count the pools sweep starts, and the values queued at each simulate_run.

    Yields (CountingPool, calls, counted).  ``calls`` gets one (seed,
    _blocks given, seeds of the values queued but not yet reduced) per
    simulate_run call; setting ``counted.fail_at`` to n makes call n raise.
    """
    monkeypatch.setattr(CountingPool, "created", 0)
    monkeypatch.setattr(CountingPool, "submitted", [])
    monkeypatch.setattr(CountingPool, "shutdowns", [])
    monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(engine, "_available_cpus", lambda: 2)
    calls, reduced = [], set()
    inner = engine.simulate_run

    def counted(*args, **kwargs):
        blocks = kwargs.get("_blocks")
        calls.append((kwargs["seed"], blocks is not None,
                      set(CountingPool.submitted) - reduced))
        if len(calls) == counted.fail_at:
            raise RuntimeError("simulate_run failed")
        result = inner(*args, **kwargs)
        reduced.add(kwargs["seed"])
        return result

    counted.fail_at = None
    monkeypatch.setattr(engine, "simulate_run", counted)
    yield CountingPool, calls, counted


SWEEP_DELAYS = [0.0, 1e-6, 2e-6, 4e-6, 8e-6]


def test_sweep_starts_one_pool_and_queues_one_value_ahead(preset, counting_pool):
    pool, calls, _ = counting_pool
    rows = sweep(preset, "delay_dt", SWEEP_DELAYS, trials=2000, seed=7, workers=2)
    assert len(rows) == len(SWEEP_DELAYS)
    assert pool.created == 1 and pool.shutdowns == [True]
    seeds = [derived_seed(7, index) for index in range(len(SWEEP_DELAYS))]
    assert pool.submitted == seeds  # one block per value, each submitted once
    assert [seed for seed, _, _ in calls] == seeds
    for index, (seed, with_blocks, queued) in enumerate(calls):
        # This value and the next one are queued; nothing further ahead.
        assert with_blocks
        assert queued == set(seeds[index:index + 2])


def test_sweep_on_one_worker_starts_no_pool(preset, counting_pool):
    pool, calls, _ = counting_pool
    sweep(preset, "delay_dt", SWEEP_DELAYS, trials=2000, seed=7, workers=1)
    assert pool.created == 0 and pool.submitted == []
    assert len(calls) == len(SWEEP_DELAYS)
    assert not any(with_blocks for _, with_blocks, _ in calls)


def test_failed_sweep_value_shuts_the_pool_down(preset, counting_pool):
    pool, calls, counted = counting_pool
    counted.fail_at = 2
    with pytest.raises(RuntimeError, match="simulate_run failed"):
        sweep(preset, "delay_dt", SWEEP_DELAYS, trials=2000, seed=7, workers=2)
    assert len(calls) == 2
    assert pool.created == 1 and pool.shutdowns == [True]
    assert len(pool.submitted) < len(SWEEP_DELAYS)


def test_sweep_rows_and_export(preset, tmp_path):
    rows = sweep(preset, "p_excitation", [0.05, 0.14], trials=20_000, seed=4)
    assert [row["value"] for row in rows] == [0.05, 0.14]
    assert all(row["verdict"] in ("violated", "not_violated", "undefined")
               for row in rows)
    export_sweep(rows, tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("value,g11,")
    assert len(lines) == 3


def test_sweep_csv_is_the_same_for_numpy_values(preset, tmp_path):
    paths = []
    for values in ([0.0, 2e-6], np.array([0.0, 2e-6])):
        paths.append(tmp_path / f"sweep_{len(paths)}.csv")
        export_sweep(sweep(preset, "delay_dt", values, trials=2000, seed=4), paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_text().splitlines()[1].startswith("0.0,")


def test_sweep_uses_derived_seeds(preset):
    rows = sweep(preset, "p_excitation", [0.14, 0.14], trials=20_000)
    # Same value swept twice must use different derived seeds.
    assert rows[0]["g12"] != rows[1]["g12"]
    assert derived_seed(1, 0) != derived_seed(1, 1)
    assert derived_seed(1, 0) == derived_seed(1, 0)


def test_sweep_excitation_tracks_oracle():
    # Lossless violation ratio falls steeply with the mean excitation and
    # every swept point agrees with the analytic prediction.
    values = [0.05, 0.1, 0.2]
    rows = sweep(LOSSLESS, "p_excitation", values, trials=200_000, seed=31)
    ratios = [row["ratio"] for row in rows]
    assert ratios[0] > ratios[1] > ratios[2]
    for value, row in zip(values, rows):
        pred = oracle_report(dataclasses.replace(LOSSLESS, p_excitation=value))
        assert abs(row["g12"] - pred.g12) < 4.0 * row["g12_sigma"], value
        assert row["verdict"] == "violated"


def test_normalized_correlation_is_loss_robust():
    # Same source through transmissions {0.25, 0.5, 1}: measured g12 must
    # agree within 4 sigma (low-flux loss robustness).
    results = []
    for index, t in enumerate((0.25, 0.5, 1.0)):
        cfg = dataclasses.replace(LOSSLESS, transmission=t, detector_eff=0.64)
        res = simulate_run(cfg, trials=400_000, seed=100 + index)
        results.append(res.g["12"])
    for (g_a, s_a), (g_b, s_b) in zip(results, results[1:]):
        assert abs(g_a - g_b) < 4.0 * math.hypot(s_a, s_b)


_PRESET = reference_preset()
ORACLE_CONFIGS = {
    "preset": _PRESET,
    "inactive": dataclasses.replace(
        _PRESET, p_excitation=0.0, memory_diffusion_in=0.0, dark_mean=0.0,
        bg_stokes_mean=0.0, bg_antistokes_mean=0.0),
    "backgrounds_only": dataclasses.replace(
        _PRESET, p_excitation=0.0, memory_diffusion_in=0.0, dark_mean=0.0,
        bg_stokes_mean=0.2, bg_antistokes_mean=0.2),
    "unit_detector_eff": dataclasses.replace(_PRESET, detector_eff=1.0),
    "no_decay": dataclasses.replace(_PRESET, memory_lifetime=NO_DECAY),
    "classical_p2": dataclasses.replace(
        _PRESET, source_model=SourceModel.CLASSICAL_CORRELATED, p_excitation=2.0),
    "saturated_dark": dataclasses.replace(_PRESET, dark_mean=5.0),
    "tiny_p": dataclasses.replace(
        _PRESET, p_excitation=1e-20, memory_diffusion_in=0.0, dark_mean=0.0,
        bg_stokes_mean=0.0, bg_antistokes_mean=0.0),
    # Validator edges: the read gate ends with the cycle, so the last shifted
    # baseline window ends at the smallest span the validator accepts.
    "read_gate_at_cycle_end": dataclasses.replace(
        _PRESET, delay_dt=_PRESET.cycle_period - _PRESET.gate_width),
    # The span is the smallest the validator accepts.
    "min_hist_span": dataclasses.replace(
        _PRESET, hist_span=(_PRESET.baseline_peaks + 1) * _PRESET.cycle_period),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
def test_run_matches_oracle_quickly(name):
    # Smoke-level oracle agreement; the acceptance suite does this at scale.
    config = ORACLE_CONFIGS[name]
    trials = 200_000
    result = simulate_run(config, trials=trials, seed=21)
    assert_patterns_match_oracle(result, PATTERN_FAMILY_ALPHA / 16)
    if result.report is None:  # no clicks to correlate
        return
    pred = oracle_report(config)
    for pair, target in (("11", pred.g11), ("22", pred.g22), ("12", pred.g12)):
        g, sigma = result.g[pair]
        assert abs(g - target) < 4.0 * sigma, pair
    # 10 Hz is over 4 sigma at the preset; busier configs get 4 sigma.
    p_a, p_b = pred.p_click["A"], pred.p_click["B"]
    variance = p_a * (1 - p_a) + p_b * (1 - p_b) + 2 * (pred.p_joint["AB"] - p_a * p_b)
    sigma_hz = math.sqrt(variance / trials) / config.cycle_period
    assert abs(result.singles.stokes - pred.singles.stokes) < max(10.0, 4.0 * sigma_hz)


_means = st.one_of(st.just(0.0), st.floats(1e-4, 0.5))
_valid_configs = st.builds(
    ExperimentConfig,
    source_model=st.sampled_from(SourceModel),
    p_excitation=st.one_of(st.just(0.0), st.floats(1e-3, 1.5)),
    delay_dt=st.floats(0.0, 1e-5),
    retrieval_eff=st.floats(0.0, 1.0),
    transmission=st.floats(0.0, 1.0),
    detector_eff=st.floats(0.0, 1.0),
    memory_lifetime=st.one_of(st.just(NO_DECAY), st.floats(1e-7, 1e-4)),
    memory_diffusion_in=_means,
    dark_mean=st.one_of(st.just(0.0), st.floats(1e-4, 3.0)),
    bg_stokes_mean=_means,
    bg_antistokes_mean=_means,
)
PROPERTY_EXAMPLES = 30


@settings(max_examples=PROPERTY_EXAMPLES, derandomize=True, database=None,
          deadline=None)
@given(config=_valid_configs)
def test_pattern_counts_match_oracle_property(config):
    # Bonferroni over every cell of every example: family-wise error 1e-6.
    result = simulate_run(config, trials=BLOCK_TRIALS + 4321, seed=77)
    assert_patterns_match_oracle(
        result, PATTERN_FAMILY_ALPHA / (16 * PROPERTY_EXAMPLES))


def test_workers_must_be_positive(preset):
    with pytest.raises(ValueError, match="workers"):
        simulate_run(preset, trials=1000, workers=0)


@pytest.mark.parametrize("arguments, name", [
    ({"trials": 1.9, "seed": 3}, "trials"),
    ({"trials": 1000, "seed": 3.7}, "seed"),
    ({"trials": 1000.0, "seed": 3}, "trials"),
])
def test_non_integral_trials_and_seed_are_refused(preset, arguments, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        simulate_run(preset, **arguments)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        sweep(preset, "delay_dt", [0.0], **arguments)


def test_bool_trials_and_seed_are_refused(preset):
    for arguments, name in (({"trials": True}, "trials"), ({"seed": False}, "seed")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            simulate_run(preset, **arguments)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sweep(preset, "delay_dt", [0.0], **arguments)


def test_numpy_integer_trials_and_seed_are_accepted(preset):
    given_numpy = simulate_run(preset, trials=np.int64(1000), seed=np.uint64(3))
    given_int = simulate_run(preset, trials=1000, seed=3)
    assert type(given_numpy.trials) is int and type(given_numpy.seed) is int
    assert given_numpy.peaks == given_int.peaks
    assert np.array_equal(given_numpy.pattern_counts, given_int.pattern_counts)
    # Compared as repr, since a short run's undefined g is nan.
    rows = [sweep(preset, "delay_dt", [0.0], trials=trials, seed=seed)
            for trials, seed in ((np.int32(1000), np.uint8(3)), (1000, 3))]
    assert repr(rows[0]) == repr(rows[1])


def test_pool_is_clamped_to_cpus_and_blocks(monkeypatch):
    monkeypatch.setattr(engine, "_available_cpus", lambda: 2)
    assert engine._pool_size(64, 100) == 2
    assert engine._pool_size(64, 1) == 1
    assert engine._pool_size(1, 100) == 1


def test_huge_worker_count_starts_no_pool_for_one_block(preset, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
    result = simulate_run(preset, trials=BLOCK_TRIALS, seed=3, workers=10 ** 6)
    assert result.pattern_counts.sum() == BLOCK_TRIALS


def test_benchmark_tracer_names_exist_in_engine():
    # The benchmark tracer wraps these engine attributes by name.
    path = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert [name for name in spans.ENGINE_NAMES if not hasattr(engine, name)] == []
