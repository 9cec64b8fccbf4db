"""Acceptance suite: one test per release criterion, at stated tolerances.

Every test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them).  Each run is fully deterministic through fixed seeds, so a passing
suite stays green.

Criterion 2 is split: the auto-correlation bracket for the anti-Stokes
channel is strictly infeasible at the committed preset (matching the
70 s^-1 anti-Stokes singles rate at mean excitation 0.14 caps the
correlated fraction f of anti-Stokes light near 0.18, and a thermal
fraction f can only reach g22 = 1 + f^2 ~ 1.03 < 1.2).  That check is
implemented faithfully and marked as a strict expected failure rather
than weakened.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.stats import binomtest, norm

from pairsim import (ExperimentConfig, SourceModel, compare,
                     oracle_report, reference_preset, simulate_run, sweep)
from pairsim.config import NO_DECAY
from pairsim.engine import derived_seed
from pairsim.tia import histogram as build_histogram

TWO_SIDED_P_AT_4_SIGMA = 2.0 * norm.sf(4.0)

IDEAL = ExperimentConfig(
    source_model=SourceModel.QUANTUM_TMS, p_excitation=0.1, delay_dt=2e-6,
    retrieval_eff=1.0, transmission=1.0, detector_eff=1.0,
    memory_lifetime=NO_DECAY)


def announce(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def preset():
    return reference_preset()


@pytest.fixture(scope="module")
def preset_run_10m(preset):
    return simulate_run(preset, trials=10_000_000)  # seed = preset default


@pytest.fixture(scope="module")
def ideal_run_1m():
    return simulate_run(IDEAL, trials=1_000_000)  # seed = config default


def _ideal_click_targets(p: float) -> dict[str, float]:
    """Exact g11, g22, g12 and ratio for IDEAL with binary click detectors.

    The Stokes and anti-Stokes numbers are both n ~ Geom0(mean p), and
    E[x**n] = 1 / (1 + p (1 - x)).  Each photon reaches a given detector
    of its 50/50 split with probability 1/2, so one detector stays dark
    with probability 1 / (1 + p/2), both Stokes detectors with
    1 / (1 + p) and detectors A and C with 1 / (1 + 3p/4).
    """
    p_a = 1.0 - 1.0 / (1.0 + p / 2.0)
    p_ab = 1.0 - 2.0 / (1.0 + p / 2.0) + 1.0 / (1.0 + p)
    p_ac = 1.0 - 2.0 / (1.0 + p / 2.0) + 1.0 / (1.0 + 0.75 * p)
    g_auto, g_cross = p_ab / p_a ** 2, p_ac / p_a ** 2
    return {"g11": g_auto, "g22": g_auto, "g12": g_cross,
            "ratio": g_cross ** 2 / g_auto ** 2}


def test_criterion_1_ideal_case_formula(ideal_run_1m):
    """Noise-free quantum source at p = 0.1: g11, g22, g12 and the ratio
    match the closed form for binary click detectors.

    The first-order values g11 = g22 = 2, g12 = 1 + 1/p and
    ``ideal_violation(p)`` hold for number-resolving detection.  At p = 0.1
    and unit efficiency, click saturation moves them to 1.909, 1.909, 11.23
    and 34.6, several sigma away at 1e6 trials, so the targets are the
    closed form of :func:`_ideal_click_targets`.
    """
    r = ideal_run_1m.report
    target = _ideal_click_targets(IDEAL.p_excitation)
    checks = {
        "g11": (r.g11, r.g11_sigma, target["g11"]),
        "g22": (r.g22, r.g22_sigma, target["g22"]),
        "g12": (r.g12, r.g12_sigma, target["g12"]),
        "ratio": (r.ratio, r.ratio_sigma, target["ratio"]),
    }
    zs = {name: (value - target) / sigma
          for name, (value, sigma, target) in checks.items()}
    runtime = ideal_run_1m.wall_time_seconds
    ok = all(abs(z) <= 3.0 for z in zs.values()) and runtime <= 30.0
    detail = (", ".join(f"{k} z={zs[k]:+.2f}" for k in checks)
              + f", runtime {runtime:.1f}s (<=30s)")
    announce(1, "ideal-case formula", ok, detail)
    for name, z in zs.items():
        assert abs(z) <= 3.0, f"{name}: z={z:+.2f}"
    assert runtime <= 30.0


def test_criterion_2_cauchy_schwarz_violation_at_preset(preset_run_10m):
    """Reference preset at 1e7 trials: the classicality bound is clearly
    violated and the cross correlation dominates both auto correlations."""
    r = preset_run_10m.report
    ok = (r.violated and r.significance >= 3.0
          and r.g12 > max(r.g11, r.g22)
          and 1.2 <= r.g11 <= 3.0 and 1.2 <= r.g12 <= 3.0)
    detail = (f"lhs {r.lhs:.2f} > rhs {r.rhs:.2f}, significance {r.significance:.1f}, "
              f"g11 {r.g11:.3f}, g22 {r.g22:.3f}, g12 {r.g12:.3f}")
    announce(2, "preset violation", ok, detail)
    assert r.violated and r.significance >= 3.0
    assert r.g12 > max(r.g11, r.g22)
    assert 1.2 <= r.g11 <= 3.0
    assert 1.2 <= r.g12 <= 3.0


@pytest.mark.xfail(
    strict=True,
    reason="infeasible at the committed preset: the 70/s anti-Stokes singles "
           "calibration at mean excitation 0.14 leaves a correlated fraction "
           "f ~ 0.18 of anti-Stokes light, and a thermal fraction f can only "
           "reach g22 = 1 + f^2 ~ 1.03 < 1.2")
def test_criterion_2_antistokes_auto_correlation_bracket(preset_run_10m):
    r = preset_run_10m.report
    ok = 1.2 <= r.g22 <= 3.0
    announce(2, "g22 bracket", ok, f"g22 {r.g22:.3f} (expected infeasible)")
    assert 1.2 <= r.g22 <= 3.0


def test_criterion_3_classical_boundary(preset):
    """P-representable source: the bound holds for every loss/noise budget."""
    classical = dataclasses.replace(preset,
                                    source_model=SourceModel.CLASSICAL_CORRELATED)
    ratios, significances = [], []
    for i in range(20):
        res = simulate_run(classical, trials=500_000,
                           seed=derived_seed(20240301, i))
        ratios.append(res.report.ratio)
        significances.append(res.report.significance)
    ratios = np.asarray(ratios)
    sem = ratios.std(ddof=1) / math.sqrt(ratios.size)
    mean_ok = ratios.mean() <= 1.0 + 3.0 * sem
    no_violation = max(significances) < 4.0
    ok = mean_ok and no_violation
    announce(3, "classical boundary", ok,
             f"mean R {ratios.mean():.3f} <= 1 + 3 SEM ({1 + 3 * sem:.3f}), "
             f"max significance {max(significances):.2f}")
    assert mean_ok
    assert no_violation


def _pattern_cell_ok(count: int, prob: float, trials: int) -> tuple[bool, float]:
    """4-sigma agreement; exact binomial tail for low-expectation cells."""
    expectation = prob * trials
    if prob <= 0.0:
        return count == 0, 0.0 if count == 0 else math.inf
    if expectation < 25.0:
        pvalue = binomtest(count, trials, prob).pvalue
        return pvalue >= TWO_SIDED_P_AT_4_SIGMA, float("nan")
    z = (count - expectation) / math.sqrt(trials * prob * (1.0 - prob))
    return abs(z) <= 4.0, z


def test_criterion_4_oracle_equivalence(preset):
    """Five configurations: every click-pattern frequency and correlation
    from the sampler agrees with the analytic oracle within 4 sigma."""
    lossy = ExperimentConfig(
        source_model=SourceModel.QUANTUM_TMS, p_excitation=0.14, delay_dt=2e-6,
        retrieval_eff=0.32, transmission=0.5, detector_eff=0.64,
        memory_lifetime=NO_DECAY)
    configs = {
        "lossless": IDEAL,
        "lossy": lossy,
        "noisy": dataclasses.replace(
            lossy, memory_lifetime=3e-6, memory_diffusion_in=0.3,
            dark_mean=2e-4, bg_stokes_mean=0.002, bg_antistokes_mean=0.003),
        "classical": dataclasses.replace(
            preset, source_model=SourceModel.CLASSICAL_CORRELATED),
        "preset": preset,
    }
    trials = 1_000_000
    failures, worst = [], 0.0
    for index, (name, cfg) in enumerate(configs.items()):
        result = simulate_run(cfg, trials=trials, seed=derived_seed(20240401, index))
        prediction = oracle_report(cfg)
        for mask in range(16):
            count = int(result.pattern_counts[mask])
            prob = float(prediction.pattern.probs[mask])
            cell_ok, z = _pattern_cell_ok(count, prob, trials)
            if not math.isnan(z):
                worst = max(worst, abs(z))
            if not cell_ok:
                failures.append(f"{name}/pattern{mask}")
        mc_g = {"g11": result.g["11"], "g22": result.g["22"],
                "g12": result.g["12"]}
        for row in compare(result.pattern_counts, mc_g, prediction, trials):
            if not row.quantity.startswith("pattern_"):
                worst = max(worst, abs(row.z))
                if row.flagged:
                    failures.append(f"{name}/{row.quantity}")
    ok = not failures
    announce(4, "oracle equivalence", ok,
             f"5 configs x (16 patterns + 3 g), worst |z| {worst:.2f}"
             + (f", failures: {failures}" if failures else ""))
    assert not failures


def _allowed_peak_mask(hist, cycle, gate_width, offset):
    allowed = np.zeros(hist.n_bins, dtype=bool)
    edges = hist.bin_starts()
    j = 0
    while j * cycle + offset - gate_width < hist.span:
        lo = j * cycle + offset - gate_width
        hi = j * cycle + offset + gate_width
        allowed |= (edges >= lo - hist.bin_width) & (edges < hi)
        j += 1
    return allowed


def brute_force_bins(starts, stops, bin_width, span):
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


def test_criterion_5_histogram_structure(preset, preset_run_10m):
    """Coincidence mass appears only at duty-cycle multiples (shifted by the
    read delay for cross pairs); peak windows reproduce N and M; the fast
    histogram matches a quadratic brute-force pairing oracle exactly."""
    run = preset_run_10m
    offsets = {"11": 0.0, "22": 0.0, "12": preset.delay_dt, "12b": preset.delay_dt}
    stray = {}
    for pair, offset in offsets.items():
        hist = run.histograms[pair]
        allowed = _allowed_peak_mask(hist, preset.cycle_period,
                                     preset.gate_width, offset)
        stray[pair] = int(hist.bins[~allowed].sum())
        areas = run.peaks[pair]
        assert areas.n_same_trial > 0, pair
        assert all(area > 0 for area in areas.per_peak), pair
        # Manual window sums must reproduce the extracted areas.
        edges = hist.bin_starts()
        for j, expected in enumerate((areas.n_same_trial,) + areas.per_peak):
            lo = offset + j * preset.cycle_period
            window = (edges >= lo - 1e-15) & (edges < lo + preset.gate_width - 1e-15)
            assert hist.bins[window].sum() == expected, (pair, j)
    structure_ok = all(v == 0 for v in stray.values())

    sub_a = run.streams["A"].timestamps[:1000]
    sub_c = run.streams["C"].timestamps[:1000]
    fast = build_histogram(
        dataclasses.replace(run.streams["A"], timestamps=sub_a),
        dataclasses.replace(run.streams["C"], timestamps=sub_c),
        preset.hist_bin, preset.hist_span)
    brute = brute_force_bins(sub_a, sub_c, preset.hist_bin, preset.hist_span)
    brute_ok = np.array_equal(fast.bins, brute)
    ok = structure_ok and brute_ok
    announce(5, "histogram structure", ok,
             f"stray counts outside peaks {stray}, brute-force subsample "
             f"({brute.sum()} pairs) exact match: {brute_ok}")
    assert structure_ok
    assert brute_ok


def test_criterion_6_singles_rate_calibration(preset_run_10m):
    """Committed preset noise constants reproduce the reference singles
    rates of 220 and 70 counts per second within 15 percent."""
    singles = preset_run_10m.singles
    stokes_ok = abs(singles.stokes - 220.0) <= 0.15 * 220.0
    anti_ok = abs(singles.antistokes - 70.0) <= 0.15 * 70.0
    ok = stokes_ok and anti_ok
    announce(6, "singles calibration", ok,
             f"stokes {singles.stokes:.1f}/s (target 220 +-15%), "
             f"anti-stokes {singles.antistokes:.1f}/s (target 70 +-15%)")
    assert stokes_ok and anti_ok


def test_criterion_7_delay_sweep(preset):
    """With a 3 us memory lifetime the cross correlation decays with the
    write-read delay, and the violation persists at the 2 us delay."""
    cfg = dataclasses.replace(preset, memory_lifetime=3e-6)
    delays = [0.0, 1e-6, 2e-6, 4e-6]
    rows = sweep(cfg, "delay_dt", delays, trials=1_000_000, seed=20240501)
    monotone = all(
        rows[i + 1]["g12"] <= rows[i]["g12"]
        + 2.0 * math.hypot(rows[i]["g12_sigma"], rows[i + 1]["g12_sigma"])
        for i in range(len(rows) - 1))
    at_2us = rows[2]
    persists = at_2us["verdict"] == "violated" and at_2us["significance"] >= 3.0
    ok = monotone and persists
    announce(7, "delay sweep", ok,
             "g12(dt): " + ", ".join(f"{r['g12']:.2f}" for r in rows)
             + f"; at 2us significance {at_2us['significance']:.1f}")
    assert monotone
    assert persists


def test_criterion_8_determinism_and_throughput(preset):
    """Identical outputs for 1 and 4 workers; at least 1e5 trials per
    second per core and a 1e6-trial run within 10 seconds."""
    t0 = time.perf_counter()
    single = simulate_run(preset, trials=1_000_000, seed=20240801, workers=1)
    elapsed = time.perf_counter() - t0
    quad = simulate_run(preset, trials=1_000_000, seed=20240801, workers=4)
    identical = all(
        np.array_equal(single.streams[d].timestamps, quad.streams[d].timestamps)
        for d in "ABCD")
    identical &= all(np.array_equal(single.histograms[k].bins,
                                    quad.histograms[k].bins)
                     for k in single.histograms)
    identical &= single.report == quad.report
    throughput = 1_000_000 / elapsed
    ok = identical and throughput >= 1e5 and elapsed <= 10.0
    announce(8, "determinism and throughput", ok,
             f"workers 1 vs 4 identical: {identical}, "
             f"{throughput:,.0f} trials/s, end-to-end {elapsed:.2f}s")
    assert identical
    assert throughput >= 1e5
    assert elapsed <= 10.0


def test_criterion_9_error_model_against_bootstrap(preset):
    """The Poisson-propagated sigma of g agrees with a 1000-resample
    trial-level bootstrap within 10 percent on a preset dataset."""
    trials = 300_000
    run = simulate_run(preset, trials=trials, seed=20240601)

    def table(det, gate_start):
        clicked = np.zeros(trials, dtype=bool)
        position = np.zeros(trials)
        idx = run.click_trials[det]
        clicked[idx] = True
        position[idx] = (run.streams[det].timestamps
                         - idx * preset.cycle_period - gate_start)
        return clicked, position

    c_a, v_a = table("A", 0.0)
    c_b, v_b = table("B", 0.0)

    # The identity permutation must reproduce the TIA peak areas exactly.
    assert (np.count_nonzero(c_a & c_b & (v_b > v_a))
            == run.peaks["11"].n_same_trial)

    rng = np.random.default_rng(7)
    resampled = np.empty(1000)
    for b in range(resampled.size):
        idx = rng.integers(0, trials, trials)
        s_a, p_a = c_a[idx], v_a[idx]
        s_b, p_b = c_b[idx], v_b[idx]
        n_same = np.count_nonzero(s_a & s_b & (p_b > p_a))
        baseline = np.mean([
            np.count_nonzero(s_a[:-j] & s_b[j:] & (p_b[j:] > p_a[:-j]))
            for j in range(1, preset.baseline_peaks + 1)])
        resampled[b] = n_same / baseline
    sigma_boot = resampled.std(ddof=1)
    _, sigma_formula = run.g["11"]
    rel = abs(sigma_formula - sigma_boot) / sigma_formula
    ok = rel <= 0.10
    announce(9, "error model vs bootstrap", ok,
             f"formula sigma {sigma_formula:.4f}, bootstrap sigma "
             f"{sigma_boot:.4f}, relative difference {rel:.1%} (<=10%)")
    assert rel <= 0.10
