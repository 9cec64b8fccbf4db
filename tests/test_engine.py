"""Run orchestration: determinism, parallelism, exports, sweeps."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import multiprocessing
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest, kstest, uniform

from pairsim import (ConfigError, ExperimentConfig, SourceModel, StreamOrderError,
                     __version__, export_run, oracle_report, reference_preset,
                     render_run_report, simulate_run, sweep)
from pairsim import engine
from pairsim.config import NO_DECAY
from pairsim.engine import BLOCK_TRIALS, HISTOGRAM_PAIRS, derived_seed, export_sweep
from pairsim.oracle import pattern_distribution
from pairsim.tia import PeakAreas
from reference import (active_trials, counts_in_one_call, first_sources, load_histogram,
                       peak_areas, valid_configs)

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

# The same digest off the preset: the classical source; forced dark clicks,
# dense peak counting and numpy's own geometric gaps (dark_mean=5); and
# numpy's BTPE branch of the 50/50 split (p_excitation=50).
VARIANT_STREAM_DIGESTS = {
    "0.3.0": {
        "classical": "86cd32414aa97704344cf2b2f2979b0fcb7704e1dfcf34a3fc20dac1ac5f8544",
        "dark_mean=5": "0b58e2a07149b849f71082406dd20cb1d9f1d8e64218d98249fe67935a45a57d",
        "p_excitation=50": "1a3f36be55c8135abf5954b1b708834d34ff1387ccc797c6ccb1cc0c0a470c53",
    },
}
STREAM_VARIANTS = {
    "classical": {"source_model": SourceModel.CLASSICAL_CORRELATED},
    "dark_mean=5": {"dark_mean": 5.0},
    "p_excitation=50": {"p_excitation": 50.0},
}


def stream_digest(config) -> str:
    result = simulate_run(config, trials=3 * BLOCK_TRIALS, seed=2026)
    digest = hashlib.sha256(result.pattern_counts.astype("<i8").tobytes())
    for det in "ABCD":
        digest.update(result.click_trials[det].astype("<i8").tobytes())
    return digest.hexdigest()


def test_rng_stream_is_pinned_to_version(preset):
    assert stream_digest(preset) == STREAM_DIGESTS[__version__]


@pytest.mark.parametrize("variant", STREAM_VARIANTS)
def test_rng_stream_off_the_preset_is_pinned_to_version(preset, variant):
    config = dataclasses.replace(preset, **STREAM_VARIANTS[variant])
    assert stream_digest(config) == VARIANT_STREAM_DIGESTS[__version__][variant]


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


def test_each_detector_is_built_when_indexed(preset, monkeypatch):
    result = simulate_run(preset, trials=2 * BLOCK_TRIALS, seed=2026)
    read = []
    clicks_in = engine._clicks_in
    monkeypatch.setattr(engine, "_clicks_in",
                        lambda blocks, det, *args: read.append(det) or clicks_in(
                            blocks, det, *args))
    result.streams["C"]
    result.click_trials["D"]
    assert read == ["C", "D"]
    read.clear()
    result.histograms
    assert sorted(read) == list("ABCD")  # once each for four pairs
    with pytest.raises(KeyError):
        result.streams["E"]


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
        streams = dict(result.streams)  # every detector built
        held_while, _ = tracemalloc.get_traced_memory()
        del streams
        dict(result.click_trials)  # read and dropped as well
        held_after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held_while - held_before > 8 * clicks
    assert held_after - held_before < clicks


class StubUniforms:
    """Stands in for a Generator whose next ``random(m)`` returns ``u``."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


def uniforms_onto(target, a):
    """Every u < 1 within 64 ulps of target / a with u * a == target exactly."""
    near = (np.float64(target / a).view(np.int64) + np.arange(-64, 65)).view(np.float64)
    return near[(near * a == target) & (near < 1.0)]


@pytest.mark.parametrize("noise", [
    pytest.param({}, id="preset"),
    pytest.param({"bg_stokes_mean": 0.0}, id="zero_weight_in_the_middle"),
    pytest.param({"dark_mean": 0.0}, id="zero_weights_at_the_end"),
    pytest.param({"bg_stokes_mean": 0.0, "dark_mean": 0.0}, id="both"),
])
def test_first_sources_is_a_clamped_cdf_search(preset, noise):
    cdf = engine._source_cdf(dataclasses.replace(preset, **noise))
    a = cdf[-1]
    last = np.flatnonzero(np.diff(cdf, prepend=0.0) > 0)[-1]
    exact = [uniforms_onto(edge, a) for edge in cdf[:last]]
    # No double u puts u * a on cdf[0] for these configs; every later edge
    # before the last source is hit.
    assert all(hits.size for hits in exact[1:]), exact
    on_edges = np.concatenate(exact)
    u = np.concatenate([
        on_edges,
        np.nextafter(on_edges, -np.inf),
        np.nextafter(on_edges, np.inf),
        [0.0, np.nextafter(1.0, 0.0), 1.0],  # u = 1 stands for u * a rounding up to a
        np.random.default_rng(3).random(2000),
    ])
    got = engine._first_sources(cdf, StubUniforms(u), u.size)
    assert got.dtype == np.uint8
    assert np.array_equal(got, first_sources(cdf, u))
    # u * a on an edge goes to the next source of positive weight, past
    # any of zero weight; u * a == a goes to the last one.
    for i, hits in enumerate(exact):
        successor = min(np.searchsorted(cdf, cdf[i], side="right"), last)
        assert np.all(got[np.isin(u, hits)] == successor), i
    assert got[on_edges.size * 3 + 2] == last
    if "bg_stokes_mean" in noise:
        assert cdf[2] == cdf[1] and np.all(got[np.isin(u, exact[1])] == 3)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.SFC64],
                         ids=["pcg64", "sfc64"])
@pytest.mark.parametrize("active", [
    5e-324, 1e-300, 1e-6, 0.12, 0.1973,
    np.nextafter(1.0 / 3.0, 0.0),  # numpy's last probability drawn by inversion
    1.0 / 3.0, 0.5, 0.99, 1.0,
])
@pytest.mark.parametrize("n", [1, 1000, BLOCK_TRIALS])
def test_active_trials_match_numpys_geometric_gaps(n, active, bit_generator):
    # The same trials, and the same stream position, as gaps drawn by
    # rng.geometric, on both sides of numpy's switch at 1/3; the tiniest
    # probabilities give gaps past int64, capped at n + 1.
    rng = np.random.Generator(bit_generator(9))
    twin = np.random.Generator(bit_generator(9))
    assert np.array_equal(engine._active_trials(n, active, rng),
                          active_trials(n, active, twin))
    np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)


def merged_clicks(blocks):
    """Run-level trial indices and offsets of every detector, concatenated
    from the block tables without the engine's reader."""
    return {det: (np.concatenate([b * engine.BLOCK_TRIALS + block[det][0].astype(np.int64)
                                  for b, block in enumerate(blocks)]),
                  np.concatenate([block[det][1] for block in blocks]))
            for det in "ABCD"}


def areas(counts):
    """Peak areas of every pair from its int64 peak counts."""
    return {label: PeakAreas.from_counts(c) for label, c in counts.items()}


def one_call_peaks(clicks, delay_dt, baseline_peaks):
    """Peak areas of every pair from one counter call over run-level tables."""
    return {label: PeakAreas.from_counts(counts_in_one_call(
                *clicks[start], *clicks[stop], delay_dt if shifted else 0.0,
                baseline_peaks))
            for label, start, stop, shifted in HISTOGRAM_PAIRS}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("trials", [
    BLOCK_TRIALS,  # exactly one block
    3 * BLOCK_TRIALS + 3,  # the last block is shorter than baseline_peaks
    4 * BLOCK_TRIALS + 1000,
])
@pytest.mark.parametrize("noise, dense", [
    pytest.param({}, "", id="None"),
    pytest.param({"dark_mean": 5.0}, "ABCD", id="5.0"),
    # Dense Stokes arm, sparse anti-Stokes arm, and the reverse.
    pytest.param({"bg_stokes_mean": 5.0}, "AB", id="stokes_bg_5.0"),
    pytest.param({"bg_antistokes_mean": 5.0}, "CD", id="antistokes_bg_5.0"),
])
def test_peaks_counted_per_block_equal_one_pass(preset, monkeypatch, noise, dense,
                                                trials, workers):
    monkeypatch.setattr(engine, "_available_cpus", lambda: 2)
    sparse_calls = []
    extract = engine.extract_peak_areas
    monkeypatch.setattr(engine, "extract_peak_areas",
                        lambda *args: sparse_calls.append(1) or extract(*args))
    config = dataclasses.replace(preset, **noise)
    result = simulate_run(config, trials=trials, seed=13, workers=workers)
    click_rate = {det: result.click_trials[det].size / trials for det in "ABCD"}
    assert {det for det, rate in click_rate.items()
            if rate > engine.DENSE_CLICKS / BLOCK_TRIALS} == set(dense), click_rate
    # One density decision per block: a block whose largest table is at
    # most DENSE_CLICKS makes four sparse calls, any other block none, so a
    # full block with one dense arm counts its sparse arm densely too.  On
    # two workers the blocks are counted in the workers.
    sparse = [max(block[det][0].size for det in "ABCD") <= engine.DENSE_CLICKS
              for block in result.block_clicks]
    if workers == 1:
        assert len(sparse_calls) == 4 * sum(sparse)
    assert not dense or not any(sparse[:trials // BLOCK_TRIALS])
    # Dense detectors nearly always click, so their pairs straddle every block edge.
    reach = config.baseline_peaks
    for edge in range(BLOCK_TRIALS, trials, BLOCK_TRIALS):
        for det in dense:
            near = result.click_trials[det]
            assert np.any((near >= edge - reach) & (near < edge))
            assert np.any((near >= edge) & (near < edge + reach))
    assert result.peaks == one_call_peaks(merged_clicks(result.block_clicks),
                                          config.delay_dt, config.baseline_peaks)


def test_peaks_reach_past_the_next_block():
    # More baseline peaks than a block has trials: the stops of one start
    # block come from the two blocks after it.
    rng = np.random.default_rng(4)
    reach = BLOCK_TRIALS + 2
    blocks = []
    for _ in range(4):
        inner = rng.choice(np.arange(1, BLOCK_TRIALS - 1), size=4, replace=False)
        trials = np.sort(np.concatenate([[0, BLOCK_TRIALS - 1], inner]))
        block = {det: (trials.astype(np.uint16), rng.random(trials.size)) for det in "AB"}
        # C clicks as B, in a gate 0.25 later.  D never clicks, so only two
        # pairs walk a reach this long.
        block["C"] = (block["B"][0], block["B"][1] + 0.25)
        block["D"] = (block["B"][0][:0], block["B"][1][:0])
        blocks.append(block)
    expected = one_call_peaks(merged_clicks(blocks), 0.25, reach)
    assert areas(engine._count_peaks(blocks, 0.25, reach)) == expected
    assert sum(expected["11"].per_peak[BLOCK_TRIALS:]) > 0  # lags past one block
    assert sum(expected["12"].per_peak[BLOCK_TRIALS:]) > 0


CLICK_RATES = st.sampled_from([0.0, 0.02, 0.1, 0.4, 0.8, 1.0])


@settings(max_examples=150, deadline=None)
@given(block_trials=st.integers(8, 48), n_blocks=st.integers(1, 4),
       last=st.floats(0.0, 1.0), reach=st.floats(0.0, 1.0),
       delay_dt=st.sampled_from([0.0, 0.5]),
       rates=st.tuples(CLICK_RATES, CLICK_RATES, CLICK_RATES, CLICK_RATES),
       seed=st.integers(0, 2 ** 32 - 1))
def test_count_peaks_equals_one_call_at_every_density(block_trials, n_blocks, last,
                                                      reach, delay_dt, rates, seed):
    # Blocks are shrunk, with the switch at the same share of a block, so
    # that reaches past a whole block stay cheap on the dense path.  Rates
    # fall on both sides of the switch, per detector, so a block is dense
    # through one arm or both, or sparse, and density is decided per block.
    # Offsets on a grid of quarters make ties of stop - shift and start.
    rng = np.random.default_rng(seed)
    baseline_peaks = 1 + int(reach * (2 * block_trials + 2))
    sizes = [block_trials] * (n_blocks - 1) + [1 + int(last * (block_trials - 1))]
    blocks = []
    for size in sizes:
        block = {}
        for det, rate in zip("ABCD", rates):
            trials = np.flatnonzero(rng.random(size) < rate)
            gate = delay_dt if det in "CD" else 0.0
            block[det] = (trials.astype(np.uint16),
                          gate + 0.25 * rng.integers(0, 4, trials.size))
        blocks.append(block)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BLOCK_TRIALS", block_trials)
        patch.setattr(engine, "DENSE_CLICKS", block_trials * engine.DENSE_CLICKS // BLOCK_TRIALS)
        expected = one_call_peaks(merged_clicks(blocks), delay_dt, baseline_peaks)
        assert areas(engine._count_peaks(blocks, delay_dt, baseline_peaks)) == expected


@pytest.mark.parametrize("n_blocks", [4, 16])
def test_counting_peaks_holds_memory_set_by_one_block(preset, n_blocks):
    # Saturated runs: every detector is dense in every block.  Counting
    # holds a stop table, four per-trial arrays and the shifted stops, and
    # scatters each dense read straight from the block tables: about 49
    # bytes per trial of a block and its reach.  Copying each read to int64
    # trials and float offsets first takes about 65; holding the four reads
    # of a block as well takes at least 112.
    config = dataclasses.replace(preset, dark_mean=5.0)
    result = simulate_run(config, trials=n_blocks * BLOCK_TRIALS, seed=5)
    tracemalloc.start()
    try:
        peaks = engine._count_peaks(result.block_clicks, config.delay_dt,
                                    config.baseline_peaks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert areas(peaks) == result.peaks
    assert peak < 56 * (BLOCK_TRIALS + config.baseline_peaks)


@pytest.mark.parametrize("fault", ["swapped", "repeated"])
@pytest.mark.parametrize("det", list("ABCD"))
@pytest.mark.parametrize("clicking", [BLOCK_TRIALS, 300], ids=["dense", "sparse"])
def test_peak_counting_refuses_unordered_trials(clicking, det, fault):
    # Every detector clicks in the first ``clicking`` trials: all of a block
    # takes the dense path, a few hundred trials the sparse one.
    trials = np.arange(clicking, dtype=np.uint16)
    bad = trials.copy()
    bad[[100, 101]] = [101, 100] if fault == "swapped" else [100, 100]
    block = {d: (bad if d == det else trials, np.zeros(clicking)) for d in "ABCD"}
    with pytest.raises(StreamOrderError, match="click trials"):
        engine._count_peaks([block], 0.0, 7)


def dense_blocks():
    """Detector A's tables over 3 full blocks and a 3-trial last block, about
    60% of trials clicking, with clicks on both edges of every block."""
    rng = np.random.default_rng(9)
    blocks = []
    for size in [BLOCK_TRIALS] * 3 + [3]:
        trials = np.flatnonzero(rng.random(size) < 0.6)
        trials = np.union1d(trials, [0, size - 1]).astype(np.uint16)
        blocks.append({"A": (trials, rng.random(trials.size))})
    return blocks


@pytest.mark.parametrize("first, length", [
    (0, BLOCK_TRIALS + 7),  # from block 0, reaching into block 1
    (BLOCK_TRIALS, BLOCK_TRIALS + 7),  # from a middle block
    (BLOCK_TRIALS, 2 * BLOCK_TRIALS + 5),  # reaching past the next block
    (2 * BLOCK_TRIALS, BLOCK_TRIALS + 7),  # into a last block shorter than the reach
    (3 * BLOCK_TRIALS, BLOCK_TRIALS + 7),  # on that last block alone
])
def test_dense_read_scatters_what_by_trial_builds(first, length):
    blocks = dense_blocks()
    trials, offsets = engine._clicks_in(blocks, "A", first, first + length)
    expected = np.full(length, np.nan)
    expected[trials] = offsets
    at = np.full(length, 7.0)  # left from an earlier block
    got = engine._scatter(blocks, "A", first, at)
    assert got is at
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.count_nonzero(~np.isnan(got)) > 0


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


def test_click_offsets_are_uniform_over_each_gate(preset):
    # N and M cannot see where in its gate a click lands; only the histogram
    # shape does.  At the preset almost every click is drawn by gated
    # detection; at dark_mean=5 most of A's are forced dark clicks.  A KS
    # test per detector and config, Bonferroni over all of them.
    configs = {"preset": preset, "dark_mean=5": dataclasses.replace(preset, dark_mean=5.0)}
    cutoff = PATTERN_FAMILY_ALPHA / (len(configs) * 4)
    for name, config in configs.items():
        result = simulate_run(config, trials=200_000, seed=31)
        for det, gate_start in (("A", 0.0), ("B", 0.0),
                                ("C", config.delay_dt), ("D", config.delay_dt)):
            offsets = (result.streams[det].timestamps
                       - result.click_trials[det] * config.cycle_period)
            law = uniform(loc=gate_start, scale=config.gate_width)
            p_value = kstest(offsets, law.cdf).pvalue
            assert p_value >= cutoff, (name, det, offsets.size, p_value)


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
    # 14 slices on the pool at once, far more than there are workers.
    ("delay_dt", [0.0, 1e-6, 2e-6, 3e-6, 4e-6, 6e-6, 8e-6], 2 * BLOCK_TRIALS),
])
def test_sweep_does_not_depend_on_workers(preset, monkeypatch, tmp_path, parameter,
                                          values, trials):
    # Three CPUs whatever the host has, so workers 2 and 3 really use the pool.
    monkeypatch.setattr(engine, "_available_cpus", lambda: 3)
    out = {}
    for workers in (1, 2, 3):
        rows = sweep(preset, parameter, values, trials=trials, seed=5, workers=workers)
        assert [row["value"] for row in rows] == values
        export_sweep(rows, tmp_path / f"sweep_{workers}.csv")
        out[workers] = (repr(rows), (tmp_path / f"sweep_{workers}.csv").read_bytes())
    assert out[1] == out[2] == out[3]


def runs_of_sweep(*args, **kwargs):
    """Rows of ``sweep(*args, **kwargs)`` and the RunResult of each value."""
    runs = []
    inner = engine.simulate_run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "simulate_run",
                      lambda *a, **k: runs.append(inner(*a, **k)) or runs[-1])
        rows = sweep(*args, **kwargs)
    return rows, runs


def counted(result):
    """What a run reports, from its counts: N, M, g, report, pattern counts."""
    return (repr(result.peaks), repr(result.g), repr(result.report),
            tuple(result.pattern_counts.tolist()))


def sliced_alike(config, trials, seed):
    """The kept ``workers=1`` run of a one-value sweep's config, trials and
    value seed, once ``simulate_run`` and the sweep have given the same
    counts and rows at ``workers`` 1, 2 and 3."""
    runs = [simulate_run(config, trials=trials, seed=derived_seed(seed, 0), workers=w)
            for w in (1, 2, 3)]
    swept = [runs_of_sweep(config, "delay_dt", [config.delay_dt], trials=trials, seed=seed,
                           workers=w) for w in (1, 2, 3)]
    assert {repr(rows) for rows, _ in swept} == {repr(swept[0][0])}
    assert {counted(r) for r in runs + [values[0] for _, values in swept]} == {counted(runs[0])}
    return runs[0]


@pytest.mark.parametrize("n_blocks", [1, 2, 3, 5])
@pytest.mark.parametrize("noise", [{}, {"dark_mean": 5.0}], ids=["sparse", "dense"])
def test_slice_edges_change_no_count(preset, monkeypatch, noise, n_blocks):
    # Three CPUs whatever the host has.  A run is cut into one slice per
    # worker, whether it keeps its tables (simulate_run) or drops them (a
    # sweep value): 5 blocks make slices of 2 and 3 blocks at two workers,
    # of 1, 2 and 2 at three.  Every run ends in a remainder block.
    monkeypatch.setattr(engine, "_available_cpus", lambda: 3)
    config = dataclasses.replace(preset, **noise)
    run = sliced_alike(config, (n_blocks - 1) * BLOCK_TRIALS + 1234, seed=17)
    assert run.peaks == one_call_peaks(merged_clicks(run.block_clicks),
                                       config.delay_dt, config.baseline_peaks)


def test_edge_pairs_skip_a_whole_slice(preset, monkeypatch):
    # A reach of a block and two trials: starts at the end of the first
    # block meet stops in the third.  The per-lag gathers of so long a
    # reach are slow at full size, so blocks are shrunk to 64 trials, with
    # the density switch at the same share of a block; the forked workers
    # inherit the patch.
    monkeypatch.setattr(engine, "_available_cpus", lambda: 3)
    monkeypatch.setattr(engine, "BLOCK_TRIALS", 64)
    monkeypatch.setattr(engine, "DENSE_CLICKS", 64 * engine.DENSE_CLICKS // BLOCK_TRIALS)
    config = dataclasses.replace(preset, dark_mean=2.0, baseline_peaks=66,
                                 hist_span=67 * preset.cycle_period)
    # A seed where such pairs are counted (below).
    run = sliced_alike(config, 2 * 64 + 3, seed=18)
    clicks = merged_clicks(run.block_clicks)
    assert run.peaks == one_call_peaks(clicks, config.delay_dt, 66)
    # Some (A, B) pair counted in a peak starts in the first block and stops in the third.
    (a, a_at), (b, b_at) = clicks["A"], clicks["B"]
    first, third = a < 64, b >= 128
    lag = b[third][None, :] - a[first][:, None]
    assert np.any((lag <= 66) & (b_at[third][None, :] >= a_at[first][:, None]))


def test_sweep_slices_of_unequal_length_change_no_count(preset, monkeypatch):
    # One, two and three blocks per value: at three workers the values are
    # cut into 1, 2 and 3 slices; at two the last one into slices of 1 and
    # 2 blocks.
    monkeypatch.setattr(engine, "_available_cpus", lambda: 3)
    values = [1000, 2 * BLOCK_TRIALS, 2 * BLOCK_TRIALS + 777]
    swept = {w: runs_of_sweep(preset, "n_trials", values, seed=5, workers=w)
             for w in (1, 2, 3)}
    assert {repr(rows) for rows, _ in swept.values()} == {repr(swept[1][0])}
    for index, value in enumerate(values):
        kept = simulate_run(dataclasses.replace(preset, n_trials=value),
                            seed=derived_seed(5, index))
        assert {counted(runs[index]) for _, runs in swept.values()} == {counted(kept)}
        assert kept.peaks == one_call_peaks(merged_clicks(kept.block_clicks),
                                            preset.delay_dt, preset.baseline_peaks)


def test_pool_sweep_holds_no_tables_in_the_parent(preset, monkeypatch):
    # Saturated values hold about 2.6 MB of tables a block.  The parent
    # gets counts and edge windows, so its traced peak must not grow with
    # the blocks of a value; holding one value's tables would add 20 MB at
    # 8 blocks.
    monkeypatch.setattr(engine, "_available_cpus", lambda: 2)
    config = dataclasses.replace(preset, dark_mean=5.0)
    sweep(config, "delay_dt", [0.0], trials=BLOCK_TRIALS, seed=3, workers=2)  # warm up
    peaks = {}
    for blocks in (2, 8):
        tracemalloc.start()
        try:
            sweep(config, "delay_dt", [0.0, 2e-6], trials=blocks * BLOCK_TRIALS, seed=3,
                  workers=2)
            _, peaks[blocks] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[8] - peaks[2] < 2_600_000


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_value_runs_refuse_reading_clicks(preset, monkeypatch, tmp_path, workers):
    monkeypatch.setattr(engine, "_available_cpus", lambda: 2)
    _, runs = runs_of_sweep(preset, "delay_dt", [2e-6],
                            trials=2 * BLOCK_TRIALS, seed=3, workers=workers)
    run = runs[0]
    assert run.block_clicks is None and run.pattern_counts.sum() == 2 * BLOCK_TRIALS
    reads = [lambda: run.click_trials, lambda: run.histograms,
             lambda: export_run(run, tmp_path / "out")]
    for read in reads:
        with pytest.raises(RuntimeError, match="no click tables"):
            read()
    assert not (tmp_path / "out").exists()


class CountingPool(engine.ProcessPoolExecutor):
    """A process pool that records its construction, submits and shutdown."""

    created = 0
    contexts: list = []  # mp_context of every pool
    submitted: list = []  # seed of every block of each submitted slice, in submit order
    tasks: list = []  # seed of every submitted slice, in submit order
    shutdowns: list = []  # cancel_futures of every shutdown call

    def __init__(self, *args, **kwargs):
        type(self).created += 1
        type(self).contexts.append(kwargs.get("mp_context"))
        super().__init__(*args, **kwargs)

    def submit(self, fn, task, **kwargs):
        _, seed, _, first, stop, _ = task
        type(self).submitted.extend([seed] * (stop - first))
        type(self).tasks.append(seed)
        return super().submit(fn, task, **kwargs)

    def shutdown(self, wait=True, *, cancel_futures=False):
        type(self).shutdowns.append(cancel_futures)
        super().shutdown(wait, cancel_futures=cancel_futures)


@pytest.fixture
def counting_pool(monkeypatch):
    """Count the pools that runs and sweeps start, and the simulate_run calls.

    Yields (CountingPool, calls, counted).  ``calls`` gets one (seed,
    _blocks given) per simulate_run call; setting ``counted.fail_at`` to n
    makes call n raise.
    """
    monkeypatch.setattr(CountingPool, "created", 0)
    monkeypatch.setattr(CountingPool, "contexts", [])
    monkeypatch.setattr(CountingPool, "submitted", [])
    monkeypatch.setattr(CountingPool, "tasks", [])
    monkeypatch.setattr(CountingPool, "shutdowns", [])
    monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(engine, "_available_cpus", lambda: 2)
    calls = []
    inner = engine.simulate_run

    def counted(*args, **kwargs):
        calls.append((kwargs["seed"], kwargs.get("_blocks") is not None))
        if len(calls) == counted.fail_at:
            raise RuntimeError("simulate_run failed")
        return inner(*args, **kwargs)

    counted.fail_at = None
    monkeypatch.setattr(engine, "simulate_run", counted)
    yield CountingPool, calls, counted


SWEEP_DELAYS = [0.0, 1e-6, 2e-6, 4e-6, 8e-6]


def test_sweep_starts_one_pool_and_submits_each_block_once(preset, counting_pool):
    pool, calls, _ = counting_pool
    trials = 2 * BLOCK_TRIALS + 5
    rows = sweep(preset, "delay_dt", SWEEP_DELAYS, trials=trials, seed=7, workers=2)
    assert len(rows) == len(SWEEP_DELAYS)
    assert pool.created == 1 and pool.shutdowns == [True]
    seeds = [derived_seed(7, index) for index in range(len(SWEEP_DELAYS))]
    assert pool.submitted == [seed for seed in seeds for _ in range(3)]  # every block once
    assert all(pool.tasks.count(seed) <= 2 for seed in seeds)  # at most a slice per worker
    # The values are reduced in order, each from its sampled slices.
    assert calls == [(seed, True) for seed in seeds]


def test_sweep_on_one_worker_starts_no_pool(preset, counting_pool):
    pool, calls, _ = counting_pool
    sweep(preset, "delay_dt", SWEEP_DELAYS, trials=2000, seed=7, workers=1)
    assert pool.created == 0 and pool.submitted == []
    assert len(calls) == len(SWEEP_DELAYS)
    # Every value's blocks come from the sweep's scheduler, sampled in process.
    assert all(with_blocks for _, with_blocks in calls)


def test_failed_sweep_value_shuts_the_pool_down(preset, counting_pool):
    pool, calls, counted = counting_pool
    counted.fail_at = 2
    with pytest.raises(RuntimeError, match="simulate_run failed"):
        sweep(preset, "delay_dt", SWEEP_DELAYS, trials=2000, seed=7, workers=2)
    assert len(calls) == 2
    assert pool.created == 1 and pool.shutdowns == [True]


def test_run_on_two_workers_shuts_its_pool_down(preset, counting_pool):
    pool, _, _ = counting_pool
    trials = 3 * BLOCK_TRIALS + 5
    result = simulate_run(preset, trials=trials, seed=7, workers=2)
    assert pool.created == 1 and pool.shutdowns == [True]
    assert pool.submitted == [7] * 4  # every block submitted once
    assert pool.tasks == [7, 7]  # in one slice per worker
    assert result.pattern_counts.sum() == trials


def _failing_block(config, seed, block_index, n):
    raise RuntimeError(f"block {block_index} failed")


@pytest.mark.parametrize("run", [
    lambda config: simulate_run(config, trials=3 * BLOCK_TRIALS, seed=7, workers=2),
    lambda config: sweep(config, "delay_dt", [0.0, 1e-6, 2e-6], trials=3 * BLOCK_TRIALS,
                         seed=7, workers=2),
], ids=["simulate_run", "sweep"])
def test_failed_block_on_a_pool_propagates_and_leaves_no_process(preset, monkeypatch,
                                                                 counting_pool, run):
    pool, _, _ = counting_pool
    # The workers are forked after the patch, so they run the failing block.
    monkeypatch.setattr(engine, "_simulate_block", _failing_block)
    with pytest.raises(RuntimeError, match="block 0 failed"):
        run(preset)
    assert pool.created == 1 and pool.shutdowns == [True]
    assert multiprocessing.active_children() == []


def test_pool_forks_whatever_the_default_start_method(preset, counting_pool):
    pool, _, _ = counting_pool
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("forkserver", force=True)
    try:
        rows = {workers: repr(sweep(preset, "delay_dt", [0.0, 2e-6], trials=2 * BLOCK_TRIALS,
                                    seed=5, workers=workers))
                for workers in (1, 2)}
    finally:
        multiprocessing.set_start_method(default, force=True)
    assert rows[1] == rows[2]
    assert pool.created == 1
    if sys.platform == "linux":
        assert pool.contexts[0].get_start_method() == "fork"
    else:
        assert pool.contexts == [None]


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


def test_survival_matches_oracle_where_nothing_masks_it(preset):
    # At the preset, diffused-in excitations fill in most of what survival
    # loses.  Here none diffuse in, the lifetime equals the delay, and
    # retrieval, transmission and detection are lossless with no noise, so
    # a survival exponent 5% off moves the pattern counts of 1e6 trials far
    # past the cutoff.
    config = dataclasses.replace(
        preset, p_excitation=0.5, memory_diffusion_in=0.0, memory_lifetime=2e-6,
        delay_dt=2e-6, retrieval_eff=1.0, transmission=1.0, detector_eff=1.0,
        dark_mean=0.0, bg_stokes_mean=0.0, bg_antistokes_mean=0.0)
    result = simulate_run(config, trials=1_000_000, seed=21)
    assert_patterns_match_oracle(result, PATTERN_FAMILY_ALPHA / 16)


PROPERTY_EXAMPLES = 30


@settings(max_examples=PROPERTY_EXAMPLES, derandomize=True, database=None,
          deadline=None)
@given(config=valid_configs(dark_max=3.0))
def test_pattern_counts_match_oracle_property(config):
    # Bonferroni over every cell of every example: family-wise error 1e-6.
    result = simulate_run(config, trials=BLOCK_TRIALS + 4321, seed=77)
    assert_patterns_match_oracle(
        result, PATTERN_FAMILY_ALPHA / (16 * PROPERTY_EXAMPLES))


def test_workers_must_be_positive(preset):
    with pytest.raises(ValueError, match="workers"):
        simulate_run(preset, trials=1000, workers=0)


@pytest.mark.parametrize("workers", [2.5, 1.5, True, "2"])
@pytest.mark.parametrize("entry", ["simulate_run", "sweep"])
def test_workers_must_be_an_integer(preset, monkeypatch, entry, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(engine, "_available_cpus", lambda: 2)
    with pytest.raises(ValueError, match="workers must be an integer"):
        if entry == "simulate_run":
            simulate_run(preset, trials=3 * BLOCK_TRIALS, workers=workers)
        else:
            sweep(preset, "delay_dt", [0.0, 2e-6], trials=2000, workers=workers)


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


def test_numpy_integer_config_seed_is_recorded_as_int(preset, tmp_path):
    config = dataclasses.replace(preset, rng_seed=np.uint64(3), n_trials=np.int64(2000))
    result = simulate_run(config)
    assert type(result.seed) is int
    export_run(result, tmp_path / "out")
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["seed"] == 3


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


def benchmark_spans():
    """The benchmark's tracer module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_names_exist_in_engine():
    # The benchmark tracer wraps these engine attributes by name.
    spans = benchmark_spans()
    assert [name for name in spans.ENGINE_NAMES if not hasattr(engine, name)] == []


SAMPLER_SPANS = {"source.sample_write", "source.decohere_memory", "source.retrieve",
                 "optics.thin", "optics.add_background", "optics.split",
                 "optics.detect_batch"}


@pytest.mark.parametrize("noise", [{}, {"dark_mean": 5.0}], ids=["preset", "dark_5.0"])
def test_benchmark_tracer_sees_every_layer_call(preset, tmp_path, noise):
    # The tracer only sees a layer that the engine calls through the name
    # it wraps; a call that bypasses it would read as zero time per layer.
    config = dataclasses.replace(preset, **noise)
    tracer = benchmark_spans().Tracer(tmp_path)
    with tracer.installed():
        traced = engine.simulate_run(config, trials=2 * BLOCK_TRIALS, seed=21)
    untraced = engine.simulate_run(config, trials=2 * BLOCK_TRIALS, seed=21)
    assert traced.peaks == untraced.peaks
    names = {span["name"] for span in tracer.spans}
    assert SAMPLER_SPANS <= names
    if not noise:  # sparse blocks
        assert "tia.peak_areas" in names
    clicks = sum(bin(pattern).count("1") * int(count)
                 for pattern, count in enumerate(traced.pattern_counts))
    assert tracer.counters[None]["optics.clicks"] == clicks > 0


def test_benchmark_tracer_traces_a_sweep(preset, tmp_path):
    # The tracer reads the streams of every simulate_run it wraps, and a
    # sweep's runs hold no tables.
    tracer = benchmark_spans().Tracer(tmp_path)
    with tracer.installed():
        rows = engine.sweep(preset, "delay_dt", [0.0, 2e-6], trials=BLOCK_TRIALS, seed=3)
    assert rows == sweep(preset, "delay_dt", [0.0, 2e-6], trials=BLOCK_TRIALS, seed=3)
    assert tracer.counters[None]["optics.trials"] == 2 * BLOCK_TRIALS


@pytest.mark.parametrize("model", SourceModel, ids=lambda model: model.value)
def test_engine_hands_stages_1d_int64_counts(preset, monkeypatch, model):
    # The stage functions take 1-d int64 count arrays, one entry per trial;
    # sample_write takes none and hands its excitations on as counts.
    counts = {name: [] for name in ("sample_write", "decohere_memory", "retrieve",
                                    "thin", "add_background", "split", "detect_batch")}

    def watched(name, stage):
        def call(*args, **kwargs):
            out = stage(*args, **kwargs)
            counts[name] += list(out) if name == "sample_write" else [args[0]]
            return out
        return call

    for name in counts:
        monkeypatch.setattr(engine, name, watched(name, getattr(engine, name)))
    config = dataclasses.replace(preset, source_model=model)
    engine.simulate_run(config, trials=2 * BLOCK_TRIALS, seed=21)
    for name, seen in counts.items():
        assert seen, name
        assert all(isinstance(n, np.ndarray) and n.ndim == 1 and n.dtype == np.int64
                   for n in seen), name
