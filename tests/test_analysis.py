"""Correlation ratios, propagated uncertainties and the classicality test."""

import math

import pytest

from pairsim import (UndefinedCorrelationError, cauchy_schwarz, g_ratio, render_report,
                     singles_rates)
from reference import ideal_violation


def test_g_ratio_reference_numbers():
    g, sigma = g_ratio(1000, 500, 7)
    assert g == 2.0
    expected_sigma = 2.0 * math.sqrt(1 / 1000 + 1 / (7 * 500))
    assert sigma == pytest.approx(expected_sigma, rel=1e-12)
    assert sigma == pytest.approx(0.07171372, abs=1e-7)


def test_g_ratio_uncorrelated():
    g, _ = g_ratio(700, 700, 7)
    assert g == 1.0


def test_g_ratio_zero_numerator():
    g, sigma = g_ratio(0, 100, 7)
    assert g == 0.0
    assert sigma == 0.0  # only the baseline term remains and it scales with g


def test_g_ratio_zero_baseline_raises():
    with pytest.raises(UndefinedCorrelationError):
        g_ratio(10, 0, 7)


@pytest.mark.parametrize("k", [2.0, 10.0, 0.5])
def test_g_ratio_scale_invariance(k):
    g1, s1 = g_ratio(800, 400, 7)
    g2, s2 = g_ratio(800 * k, 400 * k, 7)
    assert g2 == pytest.approx(g1, rel=1e-12)
    assert s2 == pytest.approx(s1 / math.sqrt(k), rel=1e-12)


def test_cauchy_schwarz_reference_experiment_values():
    # Measured reference point: g11 = 1.764(26), g22 = 1.771(28),
    # g12 = 2.043(31).  First-order propagation gives the values below.
    report = cauchy_schwarz((1.764, 0.026), (1.771, 0.028), (2.043, 0.031),
                            delay_dt=2e-6)
    assert report.lhs == pytest.approx(2.043 ** 2, rel=1e-12)
    assert report.lhs == pytest.approx(4.1738, abs=5e-5)
    assert report.lhs_sigma == pytest.approx(2 * 2.043 * 0.031, rel=1e-12)
    assert report.lhs_sigma == pytest.approx(0.1267, abs=5e-5)
    assert report.rhs == pytest.approx(1.764 * 1.771, rel=1e-12)
    assert report.rhs == pytest.approx(3.1240, abs=5e-5)
    expected_rhs_sigma = math.hypot(1.771 * 0.026, 1.764 * 0.028)
    assert report.rhs_sigma == pytest.approx(expected_rhs_sigma, rel=1e-12)
    assert report.violated
    expected_sig = (report.lhs - report.rhs) / math.hypot(report.lhs_sigma,
                                                          expected_rhs_sigma)
    assert report.significance == pytest.approx(expected_sig, rel=1e-12)
    assert report.significance > 7.0


def test_cauchy_schwarz_boundary_not_violated():
    report = cauchy_schwarz((2.0, 0.0), (2.0, 0.0), (2.0, 0.0))
    assert report.lhs == report.rhs == 4.0
    assert not report.violated
    assert report.significance == 0.0


def test_cauchy_schwarz_ideal_source_ratio():
    # Ideal quantum source at p = 0.1: auto correlations 2, cross 1 + 1/p.
    report = cauchy_schwarz((2.0, 0.0), (2.0, 0.0), (11.0, 0.0))
    assert report.ratio == pytest.approx(30.25, rel=1e-12)
    assert report.ratio == pytest.approx(ideal_violation(0.1), rel=1e-12)
    assert report.violated and report.significance == math.inf


def test_cauchy_schwarz_swap_invariance():
    a = cauchy_schwarz((1.5, 0.1), (2.5, 0.2), (3.0, 0.1))
    b = cauchy_schwarz((2.5, 0.2), (1.5, 0.1), (3.0, 0.1))
    assert a.violated == b.violated
    assert a.rhs == pytest.approx(b.rhs, rel=1e-12)
    assert a.rhs_sigma == pytest.approx(b.rhs_sigma, rel=1e-12)
    assert a.significance == pytest.approx(b.significance, rel=1e-12)


def test_cauchy_schwarz_rejects_bad_input():
    with pytest.raises(ValueError):
        cauchy_schwarz((-1.0, 0.0), (2.0, 0.0), (2.0, 0.0))
    with pytest.raises(ValueError):
        cauchy_schwarz((math.nan, 0.0), (2.0, 0.0), (2.0, 0.0))


def test_ideal_violation_values():
    assert ideal_violation(1.0) == 1.0
    assert ideal_violation(0.15) == pytest.approx((1.15 / 0.30) ** 2, rel=1e-12)
    assert ideal_violation(0.15) == pytest.approx(14.6944, abs=5e-4)
    assert ideal_violation(0.1) == 30.25


def test_ideal_violation_domain():
    with pytest.raises(ValueError):
        ideal_violation(0.0)
    with pytest.raises(ValueError):
        ideal_violation(-0.5)
    with pytest.raises(ValueError, match=r"\bp must be"):
        ideal_violation(math.nan)


def test_singles_rates_empty():
    rates = singles_rates({"A": 0, "B": 0, "C": 0, "D": 0}, 1.0)
    assert rates.stokes == 0.0 and rates.antistokes == 0.0


def test_singles_rates_reference_calibration_point():
    # 44 clicks on A plus 44 on B in 0.4 s: Stokes rate 220 per second.
    rates = singles_rates({"A": 44, "B": 44, "C": 0, "D": 0}, 0.4)
    assert rates.stokes == pytest.approx(220.0, rel=1e-12)
    assert rates.per_detector["A"] == pytest.approx(110.0, rel=1e-12)


def test_singles_rates_requires_positive_duration():
    with pytest.raises(ValueError):
        singles_rates({"A": 1}, 0.0)


def test_render_report_fixed_fields():
    report = cauchy_schwarz((1.9, 0.05), (1.1, 0.07), (2.4, 0.06), delay_dt=2e-6)
    text = render_report(report, trials=1000)
    lines = dict(line.split(" = ") for line in text.strip().splitlines())
    for key in ("g11", "g11_sigma", "g22", "g22_sigma", "g12", "g12_sigma",
                "lhs", "lhs_sigma", "rhs", "rhs_sigma", "ratio", "ratio_sigma",
                "significance", "verdict", "delay_dt_seconds", "trials"):
        assert key in lines, key
    assert lines["verdict"] == "violated"
    assert float(lines["g12"]) == 2.4


def test_render_report_undefined():
    text = render_report(None, undefined_reason="zero baseline")
    lines = dict(line.split(" = ") for line in text.strip().splitlines())
    assert lines["verdict"] == "undefined"
    assert lines["g11"] == "nan"
    assert lines["undefined_reason"] == "zero baseline"
