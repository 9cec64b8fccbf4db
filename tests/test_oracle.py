"""Analytic click-pattern oracle against independent closed forms."""

import ast
import dataclasses
import functools
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from pairsim import ExperimentConfig, SourceModel, compare, engine, oracle, oracle_report
from pairsim.config import NO_DECAY, ConfigDomainError, ConfigError, reference_preset
from pairsim.oracle import (_classical_expect, _no_click_factors, _thermal_expect,
                            pattern_distribution)
from pairsim.source import joint_pmf
from reference import valid_configs

Q = SourceModel.QUANTUM_TMS
C = SourceModel.CLASSICAL_CORRELATED


def make_config(model=Q, p=0.1, **overrides):
    base = dict(source_model=model, p_excitation=p, delay_dt=2e-6,
                retrieval_eff=1.0, transmission=1.0, detector_eff=1.0,
                memory_lifetime=NO_DECAY)
    base.update(overrides)
    return ExperimentConfig(**base)


def geometric_expect(p, x):
    """E[x**n] for the geometric law of mean p (closed form)."""
    return 1.0 / (1.0 + p * (1.0 - x))


def classical_expect(p, x, y):
    """E[x**n_s * y**n_m] for the exponential-mixture law (closed form)."""
    return 1.0 / (1.0 + p * (2.0 - x - y))


def closed_form_lossless_quantum(p):
    """Independent derivation of the lossless click correlations.

    With every efficiency 1, a photon reaching detector X of its pair
    survives the splitter with factor 1/2 in the no-click expectation, so
        Q(A)    = E[(1/2)**n]
        Q(A,B)  = E[0**n]          (both Stokes detectors dark)
        Q(A,C)  = E[(1/4)**n]      (one detector of each pair dark)
    and inclusion-exclusion gives the click joints.
    """
    q_a = geometric_expect(p, 0.5)
    q_ab = geometric_expect(p, 0.0)
    q_ac = geometric_expect(p, 0.25)
    p_a = 1.0 - q_a
    p_ab = 1.0 - 2.0 * q_a + q_ab
    p_ac = 1.0 - 2.0 * q_a + q_ac
    return p_a, p_ab / p_a ** 2, p_ac / p_a ** 2


def test_vacuum_source_never_clicks():
    dist = pattern_distribution(make_config(p=0.0))
    assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)
    assert dist.probs[1:].sum() == pytest.approx(0.0, abs=1e-12)


def test_lossless_quantum_matches_closed_form():
    p = 0.1
    p_a, g11_cf, g12_cf = closed_form_lossless_quantum(p)
    assert g11_cf == pytest.approx(21 / 11, rel=1e-12)
    assert g12_cf == pytest.approx(483 / 43, rel=1e-12)
    pred = oracle_report(make_config(p=p))
    assert pred.p_click["A"] == pytest.approx(p_a, rel=1e-9)
    assert pred.g11 == pytest.approx(g11_cf, rel=1e-9)
    assert pred.g22 == pytest.approx(g11_cf, rel=1e-9)
    assert pred.g12 == pytest.approx(g12_cf, rel=1e-9)
    assert pred.report.violated


def test_lossless_classical_sits_on_boundary():
    pred = oracle_report(make_config(model=C, p=0.1))
    assert pred.g11 == pytest.approx(pred.g12, rel=1e-9)
    assert pred.g22 == pytest.approx(pred.g12, rel=1e-9)
    # Exact equality case: the ratio is 1 up to round-off, so the
    # strict-inequality verdict bit is not meaningful here.
    assert pred.report.ratio == pytest.approx(1.0, abs=1e-9)
    assert abs(pred.report.lhs - pred.report.rhs) < 1e-9


def test_single_detector_click_probability_geometric_series():
    # Geometric mean 0.2 through per-photon detection probability 1/2:
    # click probability mu*eta/(1 + mu*eta) = 0.1/1.1.
    pred = oracle_report(make_config(p=0.2))
    assert pred.p_click["A"] == pytest.approx(0.1 / 1.1, rel=1e-9)


def test_classical_no_click_family():
    # P(no Stokes click) = 1/(1 + p*t*d); both channels dark:
    # 1/(1 + 2p) when lossless (exponential-mixture closed forms).
    p = 0.2
    dist = pattern_distribution(make_config(model=C, p=p))
    masks = np.arange(16)
    assert dist.probs[0] == pytest.approx(1.0 / (1.0 + 2 * p), rel=1e-9)
    no_stokes = dist.probs[(masks & 0b0011) == 0].sum()
    assert no_stokes == pytest.approx(classical_expect(p, 0.0, 1.0), rel=1e-9)
    lossy = pattern_distribution(make_config(model=C, p=p, transmission=0.8,
                                             detector_eff=0.5))
    no_stokes_lossy = lossy.probs[(masks & 0b0011) == 0].sum()
    assert no_stokes_lossy == pytest.approx(1.0 / (1.0 + p * 0.8 * 0.5), rel=1e-9)


def test_pattern_distribution_sums_to_one():
    for cfg in (make_config(p=0.4), make_config(model=C, p=0.4),
                reference_preset()):
        dist = pattern_distribution(cfg)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist.probs >= 0.0)


@functools.cache
def pmf_table(p, model, n=120):
    return [[joint_pmf(p, model, i, j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("model, expect", [(Q, _thermal_expect),
                                           (C, _classical_expect)])
@pytest.mark.parametrize("p", [0.0, 1e-3, 0.14, 0.5])
@pytest.mark.parametrize("a, b", [(0.0, 0.0), (1.0, 1.0), (0.5, 0.25),
                                  (0.9, 0.1), (0.3, 1.0), (1.0, 0.0)])
def test_generating_function_equals_pmf_sum(model, expect, p, a, b):
    # Beyond index 119 the source mass is below 1e-35 for these p.
    pmf = pmf_table(p, model)
    brute = math.fsum(prob * a ** i * b ** j
                      for i, row in enumerate(pmf) for j, prob in enumerate(row))
    assert abs(expect(p, 1.0 - a, 1.0 - b) - brute) <= 1e-13


@pytest.mark.parametrize("model", [Q, C])
def test_huge_source_mean_gives_a_report(model):
    cfg = dataclasses.replace(reference_preset(), source_model=model,
                              p_excitation=1e6)
    probs = oracle_report(cfg).pattern.probs
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) <= 1e-12


def _relative_imports(module):
    """{relative module: imported names} of one pairsim module's source."""
    imports = {}
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.setdefault(node.module, set()).update(
                alias.name for alias in node.names)
    return imports


def test_oracle_and_sampler_stay_independent():
    imports = _relative_imports(oracle)
    assert imports.get("source") == {"SourceModel"}
    assert "engine" not in imports and "optics" not in imports
    assert "oracle" not in _relative_imports(engine)


def test_pattern_symmetry_under_detector_relabeling():
    dist = pattern_distribution(reference_preset())
    for mask in range(16):
        a, b = mask & 1, (mask >> 1) & 1
        c, d = (mask >> 2) & 1, (mask >> 3) & 1
        swapped = b | (a << 1) | (d << 2) | (c << 3)
        assert dist.probs[mask] == pytest.approx(dist.probs[swapped], rel=1e-12)


def test_background_dilutes_cross_correlation_monotonically():
    last = math.inf
    for bg in (0.0, 0.002, 0.01, 0.05, 0.2):
        cfg = dataclasses.replace(reference_preset(), bg_antistokes_mean=bg)
        g12 = oracle_report(cfg).g12
        assert g12 < last
        last = g12


def test_compare_exact_agreement_is_all_zero():
    pred = oracle_report(reference_preset())
    trials = 10 ** 6
    counts = pred.pattern.probs * trials  # float counts for an exact match
    mc_g = {"g11": (pred.g11, 0.01), "g22": (pred.g22, 0.01),
            "g12": (pred.g12, 0.01)}
    rows = compare(counts, mc_g, pred, trials)
    assert all(row.z == 0.0 for row in rows)
    assert not any(row.flagged for row in rows)


def test_compare_flags_injected_offset():
    pred = oracle_report(reference_preset())
    trials = 10 ** 6
    counts = pred.pattern.probs * trials
    p0 = pred.pattern.probs[1]
    counts[1] += 5.0 * math.sqrt(trials * p0 * (1 - p0))
    mc_g = {"g11": (pred.g11, 0.01), "g22": (pred.g22, 0.01),
            "g12": (pred.g12 + 0.06, 0.01)}
    rows = {row.quantity: row for row in compare(counts, mc_g, pred, trials)}
    assert rows["pattern_A"].flagged
    assert rows["g12"].flagged
    assert not rows["g11"].flagged


def test_compare_zero_sigma_flags_only_a_discrepancy():
    pred = oracle_report(make_config(p=0.1))
    # Lossless: a Stokes click always comes with an anti-Stokes click.
    assert pred.pattern.probs[0b0001] == 0.0
    trials = 10 ** 6
    counts = pred.pattern.probs * trials
    g12 = pred.g12
    rows = {row.quantity: row for row in compare(
        counts, {"g12": (g12, 0.0)}, pred, trials)}
    for name in ("pattern_A", "g12"):
        assert (rows[name].sigma, rows[name].z, rows[name].flagged) == (0.0, 0.0, False)
    counts[0b0001] = 1.0
    rows = {row.quantity: row for row in compare(
        counts, {"g12": (g12 + 0.1, 0.0)}, pred, trials)}
    for name in ("pattern_A", "g12"):
        assert (rows[name].sigma, rows[name].z, rows[name].flagged) == (0.0, math.inf, True)


DETECTOR_BITS = {"A": 1, "B": 2, "C": 4, "D": 8}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(config=valid_configs(dark_max=5.0))
def test_oracle_matches_inclusion_exclusion_of_no_click_factors(config):
    dark = [_no_click_factors(config, mask) for mask in range(16)]
    exact = []
    for pattern in range(16):
        clicks = [bit for bit in DETECTOR_BITS.values() if pattern & bit]
        # P(exactly ``clicks`` click) = sum over W in clicks of
        # (-1)**|W| P(every detector outside clicks, and in W, stays dark),
        # summed without round-off.
        exact.append(math.fsum((-1) ** size * dark[(15 - pattern) | sum(subset)]
                               for size in range(len(clicks) + 1)
                               for subset in itertools.combinations(clicks, size)))
    # The oracle clamps negative round-off to 0.  When every detection
    # chance is tiny that lifts a cell by up to about 1e-15, and a sum of
    # cells by the sum of their lifts.
    lifted = [max(p, 0.0) - p for p in exact]

    def lift(bits):
        return math.fsum(lifted[mask] for mask in range(16) if mask & bits == bits)

    probs = pattern_distribution(config).probs
    for pattern in range(16):
        assert abs(probs[pattern] - max(exact[pattern], 0.0)) <= 1e-15, pattern
    try:
        pred = oracle_report(config)
    except ConfigError as exc:
        never = re.search(r"detector (\w) can never click", str(exc)).group(1)
        assert abs(1.0 - dark[DETECTOR_BITS[never]]) <= 1e-15
        return
    for det, bit in DETECTOR_BITS.items():
        expected = 1.0 - dark[bit] + lift(bit)
        assert abs(pred.p_click[det] - expected) <= 1e-15, det
    for pair in ("AB", "CD", "AC", "BD"):
        x, y = DETECTOR_BITS[pair[0]], DETECTOR_BITS[pair[1]]
        expected = 1.0 - dark[x] - dark[y] + dark[x | y] + lift(x | y)
        assert abs(pred.p_joint[pair] - expected) <= 1e-15, pair


def test_preset_oracle_reproduces_calibration_targets(preset):
    pred = oracle_report(preset)
    assert pred.singles.stokes == pytest.approx(220.0, rel=1e-9)
    assert pred.singles.antistokes == pytest.approx(70.0, rel=1e-9)
    assert pred.g12 == pytest.approx(2.4, rel=1e-9)
    assert pred.report.violated


@pytest.mark.parametrize("overrides, error, message", [
    ({"retrieval_eff": 1.5}, ConfigDomainError, "retrieval_eff"),
    # Longer than half the 2e-4 s cycle of the preset.
    ({"gate_width": 1.5e-4}, ConfigDomainError, "gate_width"),
    ({"source_model": "quantum_tms"}, ConfigError, "source_model"),
])
def test_oracle_refuses_invalid_configs(preset, overrides, error, message):
    with pytest.raises(error, match=message):
        oracle_report(dataclasses.replace(preset, **overrides))
