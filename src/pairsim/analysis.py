"""Normalized correlations, uncertainty propagation and the classicality test.

The normalized auto/cross correlation of a detector pair is the ratio
g = N / M of its same-trial coincidence peak area to the mean cross-trial
baseline peak area.  Any two fields admitting a positive P-representation
satisfy

    g12**2 <= g11 * g22,

so measuring g12**2 > g11 * g22 certifies nonclassical correlation between
the Stokes and anti-Stokes channels.  For an ideal two-mode source with
excitation parameter p the violation ratio reaches ((1 + p) / (2 p))**2.

Counting uncertainties treat each peak area as Poissonian; the baseline
enters with a 1/(k * M) reduction because it averages k peaks.  The sigma
formula is validated against a trial-level bootstrap in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class UndefinedCorrelationError(ValueError):
    """Raised when the baseline area is zero and g = N/M is undefined."""


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation functions of one run plus the classicality verdict.

    ``lhs`` is g12**2, ``rhs`` is g11*g22, ``ratio`` their quotient, and
    ``significance`` is (lhs - rhs) / sigma(lhs - rhs) with first-order
    propagated sigmas.  ``violated`` is True iff lhs > rhs.
    """

    g11: float
    g11_sigma: float
    g22: float
    g22_sigma: float
    g12: float
    g12_sigma: float
    lhs: float
    lhs_sigma: float
    rhs: float
    rhs_sigma: float
    ratio: float
    ratio_sigma: float
    significance: float
    violated: bool
    delay_dt: float


@dataclass(frozen=True)
class SinglesRates:
    """Per-detector and per-channel click rates in counts per second."""

    per_detector: dict[str, float]
    stokes: float
    antistokes: float


def g_ratio(n_same_trial: float, m_baseline: float,
            n_baseline_peaks: int) -> tuple[float, float]:
    """Normalized correlation g = N/M with its Poisson-propagated sigma.

    sigma = g * sqrt(1/N + 1/(k*M)) for k baseline peaks.  With N == 0 the
    diverging 1/N term is dropped (the baseline term alone remains), which
    evaluates to sigma == 0 since g == 0.
    """
    if n_baseline_peaks < 1:
        raise ValueError(f"n_baseline_peaks must be >= 1, got {n_baseline_peaks}")
    if n_same_trial < 0 or m_baseline < 0:
        raise ValueError("peak areas must be >= 0")
    if m_baseline == 0:
        raise UndefinedCorrelationError(
            "baseline peak area M is zero; g = N/M is undefined")
    g = n_same_trial / m_baseline
    rel_var = 1.0 / (n_baseline_peaks * m_baseline)
    if n_same_trial > 0:
        rel_var += 1.0 / n_same_trial
    return g, g * math.sqrt(rel_var)


def cauchy_schwarz(g11: tuple[float, float], g22: tuple[float, float],
                   g12: tuple[float, float],
                   delay_dt: float = 0.0) -> CorrelationReport:
    """Evaluate the classicality bound g12**2 <= g11*g22.

    Each argument is a (value, sigma) pair.  Sigmas propagate to first
    order: sigma_lhs = 2*g12*sigma_g12 and sigma_rhs adds the two auto
    terms in quadrature.  The verdict is invariant under swapping the two
    auto correlations.
    """
    for name, (value, sigma) in (("g11", g11), ("g22", g22), ("g12", g12)):
        if not (math.isfinite(value) and math.isfinite(sigma)):
            raise ValueError(f"{name} must be finite, got {value} +- {sigma}")
        if value < 0 or sigma < 0:
            raise ValueError(f"{name} must be non-negative, got {value} +- {sigma}")
    v11, s11 = g11
    v22, s22 = g22
    v12, s12 = g12
    lhs = v12 * v12
    lhs_sigma = 2.0 * v12 * s12
    rhs = v11 * v22
    rhs_sigma = math.hypot(v22 * s11, v11 * s22)
    diff_sigma = math.hypot(lhs_sigma, rhs_sigma)
    if diff_sigma > 0:
        significance = (lhs - rhs) / diff_sigma
    else:
        significance = math.inf if lhs > rhs else (-math.inf if lhs < rhs else 0.0)
    if rhs > 0:
        ratio = lhs / rhs
        rel = [lhs_sigma / lhs] if lhs > 0 else []
        rel.append(rhs_sigma / rhs)
        ratio_sigma = ratio * math.sqrt(sum(r * r for r in rel))
    else:
        ratio, ratio_sigma = math.inf, math.inf
    return CorrelationReport(
        g11=v11, g11_sigma=s11, g22=v22, g22_sigma=s22, g12=v12, g12_sigma=s12,
        lhs=lhs, lhs_sigma=lhs_sigma, rhs=rhs, rhs_sigma=rhs_sigma,
        ratio=ratio, ratio_sigma=ratio_sigma, significance=significance,
        violated=lhs > rhs, delay_dt=delay_dt)


def ideal_violation(p: float) -> float:
    """Violation ratio ((1 + p)/(2 p))**2 of the ideal noise-free source."""
    if p <= 0:
        raise ValueError(f"excitation parameter p must be > 0, got {p}")
    return ((1.0 + p) / (2.0 * p)) ** 2


def singles_rates(click_counts: dict[str, int], duration: float) -> SinglesRates:
    """Click rates per detector plus Stokes (A+B) and anti-Stokes (C+D) sums.

    ``click_counts`` maps each detector to its number of clicks in ``duration``.
    """
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    per_detector = {det: count / duration for det, count in click_counts.items()}
    return SinglesRates(
        per_detector=per_detector,
        stokes=per_detector.get("A", 0.0) + per_detector.get("B", 0.0),
        antistokes=per_detector.get("C", 0.0) + per_detector.get("D", 0.0))


REPORT_FIELDS = ("g11", "g11_sigma", "g22", "g22_sigma", "g12", "g12_sigma",
                 "lhs", "lhs_sigma", "rhs", "rhs_sigma", "ratio",
                 "ratio_sigma", "significance")


def verdict(report: CorrelationReport | None) -> str:
    """``violated``, ``not_violated``, or ``undefined`` when there is no report."""
    return ("undefined" if report is None
            else "violated" if report.violated else "not_violated")


def render_report(report: CorrelationReport | None,
                  singles: SinglesRates | None = None,
                  trials: int | None = None,
                  extra: dict[str, object] | None = None,
                  undefined_reason: str | None = None) -> str:
    """Render the correlation summary with fixed field names.

    The same renderer serves Monte Carlo and oracle results so the two can
    be diffed directly.  When the correlation is undefined (no baseline
    coincidences) every numeric field reads nan and the verdict is
    ``undefined``.
    """
    lines = ["schema = correlation_report_v1"]
    if trials is not None:
        lines.append(f"trials = {trials}")
    if report is not None:
        lines.append(f"delay_dt_seconds = {report.delay_dt!r}")
        for name in REPORT_FIELDS:
            lines.append(f"{name} = {getattr(report, name)!r}")
    else:
        for name in ("delay_dt_seconds",) + REPORT_FIELDS:
            lines.append(f"{name} = nan")
    lines.append(f"verdict = {verdict(report)}")
    if report is None and undefined_reason:
        lines.append(f"undefined_reason = {undefined_reason}")
    if extra:
        for key, value in extra.items():
            lines.append(f"{key} = {value!r}" if isinstance(value, float)
                         else f"{key} = {value}")
    if singles is not None:
        for det in sorted(singles.per_detector):
            lines.append(f"rate_{det.lower()}_hz = {singles.per_detector[det]!r}")
        lines.append(f"rate_stokes_hz = {singles.stokes!r}")
        lines.append(f"rate_antistokes_hz = {singles.antistokes!r}")
    return "\n".join(lines) + "\n"
