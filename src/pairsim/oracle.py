"""Analytic click-pattern calculator used to validate the Monte Carlo pipeline.

The per-trial click pattern over the four detectors is computed exactly by
composing, in probability space, the same pipeline the sampler implements:

1. Every loss is a binomial thinning, every background a Poisson
   injection, and the beam splitter a fair binomial split.  For binary
   click detectors only "no click" factor expectations are needed:
   conditioned on the source counts, the probability that every detector
   in a set S stays dark factorizes into one per-photon factor a for the
   Stokes photons, one per-excitation factor b for the stored excitations,
   and closed-form Poisson factors for backgrounds, diffusion and dark
   counts.
2. The source then enters only through its generating function
   E[a**n_s * b**n_m], which both laws have in closed form:

   - two-mode-squeezed (``quantum_tms``): n_s = n_m = n with n geometric
     of mean p, so E = 1 / (1 + p(1 - ab)), with 1 - ab computed as
     (1 - a) + a(1 - b);
   - classical (``classical_correlated``): given an exponential intensity
     lam of mean p the counts are independent Poisson(lam), so
     E = E_lam[exp(-lam(1 - a)) exp(-lam(1 - b))]
       = 1 / (1 + p((1 - a) + (1 - b))).

   This derivation does not use the sampler's geometric-total and
   binomial-split route.  The differences 1 - a and 1 - b are formed
   directly as products of losses, which avoids cancellation.
3. Exact click-pattern probabilities follow from the 16 no-click
   factors by one difference pass per detector: subtracting, for every
   subset S without the detector, the factor of S plus that detector
   leaves P(exactly the detectors in S stay dark), the probability of the
   pattern in which every other detector clicks.

Predicted correlations use per-gate probabilities: the same-trial
coincidence probability normalized by the product of singles
probabilities, the analytic counterpart of the measured N/M ratio (the
baseline M measures exactly the independent-trials product).  The
finite-run estimator differs only through edge effects, since baseline
peak j draws on n - j trial pairs instead of n: the relative bias of M is
(k + 1)/(2n) for k baseline peaks, i.e. 4e-6 for the default k = 7 at a
million trials, far below counting noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import CorrelationReport, SinglesRates, cauchy_schwarz, singles_rates
from .config import ConfigError, ExperimentConfig
from .source import SourceModel

# Bitmask layout of the 16 click patterns: bit 0 = A, 1 = B, 2 = C, 3 = D.
_BITS = {"A": 1, "B": 2, "C": 4, "D": 8}
_MASKS = np.arange(16)


@dataclass(frozen=True)
class ClickPatternDistribution:
    """Probability of each click/no-click pattern over detectors A-D.

    ``probs[mask]`` is the probability that exactly the detectors whose
    bits are set in ``mask`` click in one trial.
    """

    probs: np.ndarray


@dataclass(frozen=True)
class OraclePrediction:
    """Exact per-trial click statistics for one configuration."""

    pattern: ClickPatternDistribution
    p_click: dict[str, float]
    p_joint: dict[str, float]  # keys "AB", "CD", "AC", "BD"
    g11: float
    g22: float
    g12: float
    singles: SinglesRates
    report: CorrelationReport


def _thermal_expect(p: float, one_minus_a: float, one_minus_b: float) -> float:
    """E[a**n_s * b**n_m] of the two-mode-squeezed source."""
    return 1.0 / (1.0 + p * (one_minus_a + (1.0 - one_minus_a) * one_minus_b))


def _classical_expect(p: float, one_minus_a: float, one_minus_b: float) -> float:
    """E[a**n_s * b**n_m] of the exponential-intensity mixture."""
    return 1.0 / (1.0 + p * (one_minus_a + one_minus_b))


_GENERATING_FUNCTION = {SourceModel.QUANTUM_TMS: _thermal_expect,
                        SourceModel.CLASSICAL_CORRELATED: _classical_expect}


def _no_click_factors(config: ExperimentConfig, subset_mask: int) -> float:
    """P(all detectors in the subset stay dark), exact."""
    d = config.detector_eff
    t = config.transmission
    survival = math.exp(-config.delay_dt / config.memory_lifetime)
    q = survival * config.retrieval_eff * t
    diffusion_at_splitter = (config.memory_diffusion_in * (1.0 - survival)
                             * config.retrieval_eff * t)

    z = {det: (1.0 - d) if (subset_mask & bit) else 1.0
         for det, bit in _BITS.items()}
    w_stokes = 0.5 * (z["A"] + z["B"])
    w_anti = 0.5 * (z["C"] + z["D"])
    # 1 - a and 1 - b: the chance that one source photon / stored
    # excitation is detected by the subset.
    expect = _GENERATING_FUNCTION[config.source_model]
    source_factor = expect(config.p_excitation, t * (1.0 - w_stokes),
                           q * (1.0 - w_anti))
    poisson_factor = math.exp(config.bg_stokes_mean * (w_stokes - 1.0)
                              + (config.bg_antistokes_mean + diffusion_at_splitter)
                              * (w_anti - 1.0))
    dark_factor = math.exp(-config.dark_mean * bin(subset_mask).count("1"))
    return source_factor * poisson_factor * dark_factor


def pattern_distribution(config: ExperimentConfig) -> ClickPatternDistribution:
    """Exact click-pattern distribution of one trial."""
    dark = np.array([_no_click_factors(config, mask) for mask in range(16)])
    for bit in _BITS.values():
        without = _MASKS[(_MASKS & bit) == 0]
        dark[without] -= dark[without | bit]
    # dark[S] is now P(exactly the detectors in S stay dark): pattern 15 - S.
    probs = dark[15 - _MASKS]
    # Round-off can leave patterns at tiny negative values; clamp it.
    probs[(probs < 0) & (probs > -1e-12)] = 0.0
    return ClickPatternDistribution(probs=probs)


def oracle_report(config: ExperimentConfig) -> OraclePrediction:
    """Full analytic prediction: pattern law, click and joint probabilities,
    correlation functions and a zero-sigma CorrelationReport.

    Raises ConfigError for an invalid config, and when a detector can never
    click, since its correlation functions are then undefined.
    """
    pattern = pattern_distribution(config)

    def all_click(detectors: str) -> float:
        """P(every detector in ``detectors`` clicks)."""
        bits = sum(_BITS[det] for det in detectors)
        return float(pattern.probs[(_MASKS & bits) == bits].sum())

    p_click = {det: all_click(det) for det in _BITS}
    p_joint = {pair: all_click(pair) for pair in ("AB", "CD", "AC", "BD")}

    def g(pair: str) -> float:
        never = [det for det in pair if p_click[det] == 0]
        if never:
            raise ConfigError(f"correlation {pair} is undefined: detector "
                              f"{never[0]} can never click in this configuration")
        return p_joint[pair] / (p_click[pair[0]] * p_click[pair[1]])

    g11, g22, g12 = g("AB"), g("CD"), g("AC")
    singles = singles_rates(p_click, config.cycle_period)
    report = cauchy_schwarz((g11, 0.0), (g22, 0.0), (g12, 0.0),
                            delay_dt=config.delay_dt)
    return OraclePrediction(pattern=pattern, p_click=p_click, p_joint=p_joint,
                            g11=g11, g22=g22, g12=g12, singles=singles,
                            report=report)


@dataclass(frozen=True)
class ComparisonRow:
    """One Monte Carlo vs oracle quantity with its z-score."""

    quantity: str
    mc_value: float
    oracle_value: float
    sigma: float
    z: float
    flagged: bool


FLAG_THRESHOLD = 4.0
"""|z| above which :func:`compare` flags a row."""


def compare(mc_pattern_counts: np.ndarray, mc_g: dict[str, tuple[float, float]],
            prediction: OraclePrediction, trials: int) -> list[ComparisonRow]:
    """z-score table between Monte Carlo estimates and oracle predictions.

    ``mc_pattern_counts`` holds observed per-trial click-pattern counts in
    the bitmask order of :class:`ClickPatternDistribution`; ``mc_g`` maps
    "g11"/"g22"/"g12" to (value, sigma).  Every |z| > FLAG_THRESHOLD row is
    flagged.  Pattern frequencies use binomial sigmas from the exact
    oracle probability, which holds for any source mean; an exact-zero
    sigma (probability 0 or 1) flags only on a nonzero discrepancy.
    """
    if mc_pattern_counts.shape != (16,):
        raise ValueError("expected 16 click-pattern counts")

    def row(quantity: str, value: float, target: float, sigma: float) -> ComparisonRow:
        if sigma > 0:
            z = (value - target) / sigma
        else:
            z = 0.0 if value == target else math.inf
        return ComparisonRow(quantity=quantity, mc_value=value, oracle_value=target,
                             sigma=sigma, z=z, flagged=abs(z) > FLAG_THRESHOLD)

    rows = []
    for mask in range(16):
        p = float(prediction.pattern.probs[mask])
        label = "".join(det for det, bit in _BITS.items() if mask & bit) or "none"
        rows.append(row(f"pattern_{label}", float(mc_pattern_counts[mask]) / trials,
                        p, math.sqrt(max(p * (1.0 - p), 0.0) / trials)))
    oracle_g = {"g11": prediction.g11, "g22": prediction.g22, "g12": prediction.g12}
    rows += [row(name, value, oracle_g[name], sigma)
             for name, (value, sigma) in mc_g.items()]
    return rows
