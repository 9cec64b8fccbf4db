"""Analytic click-pattern calculator used to validate the Monte Carlo pipeline.

The per-trial click pattern over the four detectors is computed exactly
(up to a bounded source truncation) by composing, in probability space,
the same pipeline the sampler implements:

1. The joint source law P(n_s, n_m) is enumerated up to ``n_max``.
2. Every loss is a binomial thinning, every background a Poisson
   injection, and the beam splitter a fair binomial split.  For binary
   click detectors only "no click" factor expectations are needed:
   conditioned on the source counts, the probability that every detector
   in a set S stays dark factorizes into one per-photon factor per
   channel and closed-form Poisson factors for backgrounds, diffusion and
   dark counts.
3. Exact click-pattern probabilities follow by inclusion-exclusion over
   the 16 detector subsets.

The truncation error of every reported probability is bounded by the
source probability mass beyond the enumerated range, which is reported in
the result and required to be tiny before correlations are predicted.

Predicted correlations use per-gate probabilities: the same-trial
coincidence probability normalized by the product of singles
probabilities, the analytic counterpart of the measured N/M ratio (the
baseline M measures exactly the independent-trials product).  The
finite-run estimator differs only through edge effects, since baseline
peak j draws on n - j trial pairs instead of n: the relative bias of M is
(k + 1)/(2n) for k baseline peaks, i.e. 4e-6 for the default k = 7 at a
million trials, far below counting noise.  Summation order over Fock
indices is fixed for bit-reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import CorrelationReport, SinglesRates, cauchy_schwarz
from .config import ConfigError, ExperimentConfig
from .source import SourceModel, joint_pmf

DEFAULT_N_MAX = 80
PREDICTION_BOUND = 1e-8
WARN_BOUND = 1e-6

# Bitmask layout of the 16 click patterns: bit 0 = A, 1 = B, 2 = C, 3 = D.
_BITS = {"A": 1, "B": 2, "C": 4, "D": 8}


class TruncationError(RuntimeError):
    """Truncated source mass too large for the requested computation."""

    def __init__(self, message: str, required_n_max: int):
        super().__init__(f"{message}; retry with n_max >= {required_n_max}")
        self.required_n_max = required_n_max


@dataclass(frozen=True)
class ClickPatternDistribution:
    """Probability of each click/no-click pattern over detectors A-D.

    ``probs[mask]`` is the probability that exactly the detectors whose
    bits are set in ``mask`` click in one trial.  The probabilities sum to
    the enumerated source mass; ``truncation_error_bound`` is the
    remaining mass, bounding the error of every entry.
    """

    probs: np.ndarray
    n_max: int
    truncation_error_bound: float
    truncation_warning: bool


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


class _SourceLaw:
    """Truncated joint source pmf with fixed-order expectation sums."""

    def __init__(self, config: ExperimentConfig, n_max: int):
        p, model = config.p_excitation, config.source_model
        self.n_max = n_max
        if model is SourceModel.QUANTUM_TMS:
            self._diag = np.array(
                [joint_pmf(p, model, n, n) for n in range(n_max + 1)])
            self._matrix = None
            self.mass = float(self._diag.sum())
        else:
            matrix = np.empty((n_max + 1, n_max + 1))
            for i in range(n_max + 1):
                for j in range(n_max + 1):
                    matrix[i, j] = joint_pmf(p, model, i, j)
            self._diag = None
            self._matrix = matrix
            self.mass = float(matrix.sum())

    def expect(self, a: float, b: float) -> float:
        """E[a**n_s * b**n_m] over the truncated law, fixed summation order."""
        powers_a = np.power(a, np.arange(self.n_max + 1))
        if self._diag is not None:
            powers_b = np.power(b, np.arange(self.n_max + 1))
            return float(np.sum(self._diag * powers_a * powers_b))
        powers_b = np.power(b, np.arange(self.n_max + 1))
        return float(powers_a @ self._matrix @ powers_b)


def _no_click_factors(config: ExperimentConfig, subset_mask: int,
                      law: _SourceLaw) -> float:
    """P(all detectors in the subset stay dark), exact given the truncation."""
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
    # Per source photon / excitation no-click factor through the pipeline.
    a = 1.0 - t + t * w_stokes
    b = 1.0 - q + q * w_anti
    poisson_factor = math.exp(config.bg_stokes_mean * (w_stokes - 1.0)
                              + (config.bg_antistokes_mean + diffusion_at_splitter)
                              * (w_anti - 1.0))
    dark_factor = math.exp(-config.dark_mean * bin(subset_mask).count("1"))
    return law.expect(a, b) * poisson_factor * dark_factor


def required_n_max(config: ExperimentConfig, bound: float = PREDICTION_BOUND) -> int:
    """Smallest n_max whose truncated source mass deficit is within bound."""
    n = 8
    while n <= 1 << 16:
        law = _SourceLaw(config, n)
        if 1.0 - law.mass <= bound:
            return n
        n *= 2
    raise ConfigError("no feasible n_max found; source mean too large")


def truncated_joint(config: ExperimentConfig,
                    n_max: int = DEFAULT_N_MAX) -> ClickPatternDistribution:
    """Exact click-pattern distribution up to the bounded source truncation."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    law = _SourceLaw(config, n_max)
    no_click = np.array([_no_click_factors(config, mask, law)
                         for mask in range(16)])
    probs = np.zeros(16)
    for pattern in range(16):
        complement = 0b1111 & ~pattern
        total = 0.0
        sub = pattern
        # Enumerate subsets W of the click set in a fixed descending order.
        while True:
            sign = -1.0 if bin(sub).count("1") % 2 else 1.0
            total += sign * no_click[complement | sub]
            if sub == 0:
                break
            sub = (sub - 1) & pattern
        probs[pattern] = total
    # Truncation can leave patterns at tiny negative values; clamp round-off.
    probs[(probs < 0) & (probs > -1e-12)] = 0.0
    bound = max(1.0 - law.mass, 0.0)
    return ClickPatternDistribution(
        probs=probs, n_max=n_max, truncation_error_bound=bound,
        truncation_warning=bound > WARN_BOUND)


def predicted_correlations(config: ExperimentConfig,
                           n_max: int = DEFAULT_N_MAX) -> tuple[float, float, float]:
    """Exact (g11, g22, g12) for a configuration; see :func:`oracle_report`."""
    prediction = oracle_report(config, n_max)
    return prediction.g11, prediction.g22, prediction.g12


def oracle_report(config: ExperimentConfig,
                  n_max: int = DEFAULT_N_MAX) -> OraclePrediction:
    """Full analytic prediction: pattern law, click and joint probabilities,
    correlation functions and a zero-sigma CorrelationReport.

    Raises ConfigError when a detector can never click, since its
    correlation functions are then undefined.
    """
    pattern = truncated_joint(config, n_max)
    if pattern.truncation_error_bound > PREDICTION_BOUND:
        raise TruncationError(
            f"truncation error bound {pattern.truncation_error_bound:.3e} "
            f"exceeds {PREDICTION_BOUND:.0e}",
            required_n_max=required_n_max(config))
    masks = np.arange(16)
    p_click = {det: float(pattern.probs[(masks & bit) != 0].sum())
               for det, bit in _BITS.items()}

    def joint(d1: str, d2: str) -> float:
        both = _BITS[d1] | _BITS[d2]
        return float(pattern.probs[(masks & both) == both].sum())

    p_joint = {"AB": joint("A", "B"), "CD": joint("C", "D"),
               "AC": joint("A", "C"), "BD": joint("B", "D")}

    def g(pair: str, d1: str, d2: str) -> float:
        never = [d for d in (d1, d2) if p_click[d] == 0]
        if never:
            raise ConfigError(f"correlation {pair} is undefined: detector "
                              f"{never[0]} can never click in this configuration")
        return p_joint[pair] / (p_click[d1] * p_click[d2])

    g11 = g("AB", "A", "B")
    g22 = g("CD", "C", "D")
    g12 = g("AC", "A", "C")
    trials_per_second = 1.0 / config.cycle_period
    per_detector = {det: p_click[det] * trials_per_second for det in _BITS}
    singles = SinglesRates(
        per_detector=per_detector,
        stokes=per_detector["A"] + per_detector["B"],
        antistokes=per_detector["C"] + per_detector["D"])
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


def compare(mc_pattern_counts: np.ndarray, mc_g: dict[str, tuple[float, float]],
            prediction: OraclePrediction, trials: int,
            flag_threshold: float = 4.0) -> list[ComparisonRow]:
    """z-score table between Monte Carlo estimates and oracle predictions.

    ``mc_pattern_counts`` holds observed per-trial click-pattern counts in
    the bitmask order of :class:`ClickPatternDistribution`; ``mc_g`` maps
    "g11"/"g22"/"g12" to (value, sigma).  Every |z| > flag_threshold row is
    flagged.  Pattern frequencies use binomial sigmas from the oracle
    probability; an exact-zero sigma (probability 0 or 1) flags only on a
    nonzero discrepancy.
    """
    if mc_pattern_counts.shape != (16,):
        raise ValueError("expected 16 click-pattern counts")
    rows: list[ComparisonRow] = []
    for mask in range(16):
        p = float(prediction.pattern.probs[mask])
        observed = float(mc_pattern_counts[mask]) / trials
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
        if sigma > 0:
            z = (observed - p) / sigma
        else:
            z = 0.0 if observed == p else math.inf
        label = "".join(det for det, bit in _BITS.items() if mask & bit) or "none"
        rows.append(ComparisonRow(
            quantity=f"pattern_{label}", mc_value=observed, oracle_value=p,
            sigma=sigma, z=z, flagged=abs(z) > flag_threshold))
    oracle_g = {"g11": prediction.g11, "g22": prediction.g22, "g12": prediction.g12}
    for name, (value, sigma) in mc_g.items():
        target = oracle_g[name]
        if sigma > 0:
            z = (value - target) / sigma
        else:
            z = 0.0 if value == target else math.inf
        rows.append(ComparisonRow(quantity=name, mc_value=value,
                                  oracle_value=target, sigma=sigma, z=z,
                                  flagged=abs(z) > flag_threshold))
    return rows
