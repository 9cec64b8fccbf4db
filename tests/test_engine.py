"""Run orchestration: determinism, parallelism, exports, sweeps."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from pairsim import (ClickEvent, ExperimentConfig, SourceModel, __version__,
                     export_run, load_histogram, merge_pair_streams, oracle_report,
                     reference_preset, render_run_report, simulate_run, sweep)
from pairsim import engine
from pairsim.config import NO_DECAY
from pairsim.engine import BLOCK_TRIALS, derived_seed, export_sweep
from pairsim.oracle import required_n_max, truncated_joint

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
    # truncated_joint is oracle_report's pattern law; unlike oracle_report it
    # also answers for configs whose g values are undefined.
    law = truncated_joint(result.config, n_max=required_n_max(result.config))
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
    assert __version__ == "0.2.0" and raw["version"] == __version__
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
    events = []
    with open(tmp_path / "ev" / "events.csv") as fh:
        assert fh.readline().strip() == "detector,trial_index,timestamp_seconds"
        for line in fh:
            det, trial, ts = line.strip().split(",")
            events.append(ClickEvent(det, float(ts), int(trial)))
    merged = merge_pair_streams(events, result.streams["A"].total_duration)
    for det in "ABCD":
        assert np.array_equal(merged[det].timestamps,
                              result.streams[det].timestamps)


def test_cross_pair_duplicate_consistent(preset):
    result = simulate_run(preset, trials=500_000, seed=12)
    (g_ac, s_ac), (g_bd, s_bd) = result.g["12"], result.g["12b"]
    assert abs(g_ac - g_bd) < 4.0 * math.hypot(s_ac, s_bd)


def test_sweep_empty_values(preset):
    assert sweep(preset, "delay_dt", []) == []


def test_sweep_unknown_parameter(preset):
    with pytest.raises(ValueError, match="unknown config parameter"):
        sweep(preset, "detuning", [1.0])


def test_sweep_rows_and_export(preset, tmp_path):
    rows = sweep(preset, "p_excitation", [0.05, 0.14], trials=20_000, seed=4)
    assert [row["value"] for row in rows] == [0.05, 0.14]
    assert all(row["verdict"] in ("violated", "not_violated", "undefined")
               for row in rows)
    export_sweep(rows, tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("value,g11,")
    assert len(lines) == 3


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
    pred = oracle_report(config, n_max=required_n_max(config))
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
