#!/usr/bin/env python3
"""Source statistics: the quantum and classical photon-pair laws.

Runs both source models through a lossless, noise-free pipeline, where a
channel clicks exactly when its source number is nonzero, and compares the
sampled click patterns with the analytic oracle and with the closed forms
of the two laws:

    quantum_tms            n_s = n_m = n, P(n) = p**n / (1 + p)**(n + 1)
    classical_correlated   n_s, n_m ~ Poisson(lam), lam exponential of mean p

The two models share identical thermal marginals, so either channel stays
dark with probability 1/(1 + p).  They differ in their correlations: the
quantum two-mode-squeezed law is perfectly number correlated, so the Stokes
side never clicks without the anti-Stokes side, while the classical mixture
leaves the memory empty behind a Stokes photon with probability
1/(1 + p) - 1/(1 + 2p).  That difference is exactly what the
Cauchy-Schwarz test detects downstream.
"""

import math

from pairsim import ExperimentConfig, SourceModel, oracle_report, simulate_run

P = 0.14
TRIALS = 1_000_000
STOKES, ANTI_STOKES = 0b0011, 0b1100  # click-pattern bits of A, B and of C, D


def events(model):
    """{event: (pattern predicate, closed form)} of one source law."""
    dark = 1.0 / (1.0 + P)
    lone = 0.0 if model is SourceModel.QUANTUM_TMS else dark - 1.0 / (1.0 + 2.0 * P)
    return {
        "Stokes dark": (lambda m: not m & STOKES, dark),
        "anti-Stokes dark": (lambda m: not m & ANTI_STOKES, dark),
        "Stokes without anti-Stokes": (
            lambda m: m & STOKES and not m & ANTI_STOKES, lone),
    }


def describe(model):
    config = ExperimentConfig(source_model=model, p_excitation=P, delay_dt=2e-6,
                              retrieval_eff=1.0, transmission=1.0, detector_eff=1.0)
    result = simulate_run(config, trials=TRIALS, seed=42)
    oracle = oracle_report(config)
    print(f"\n{model.value}: {TRIALS:,} lossless trials at mean excitation {P}")
    print(f"  {'event':28s} {'sampled':>9s} {'oracle':>9s} {'closed form':>11s} {'z':>6s}")
    for name, (happens, exact) in events(model).items():
        masks = [m for m in range(16) if happens(m)]
        sampled = result.pattern_counts[masks].sum() / TRIALS
        predicted = float(oracle.pattern.probs[masks].sum())
        sigma = math.sqrt(predicted * (1.0 - predicted) / TRIALS)
        z = f"{(sampled - predicted) / sigma:+6.2f}" if sigma > 0 else "   n/a"
        print(f"  {name:28s} {sampled:9.6f} {predicted:9.6f} {exact:11.6f} {z}")
    for key, label in (("11", "g11"), ("22", "g22"), ("12", "g12")):
        value, sigma = result.g[key]
        print(f"  {label} = {value:.3f} +- {sigma:.3f}   (oracle {getattr(oracle, label):.3f})")
    r = result.report
    print(f"  g12^2 / (g11 g22) = {r.ratio:.3f} +- {r.ratio_sigma:.3f}   "
          f"(oracle {oracle.report.ratio:.3f}; {r.significance:+.1f} sigma above the "
          "classical bound)")


def main():
    describe(SourceModel.QUANTUM_TMS)
    describe(SourceModel.CLASSICAL_CORRELATED)
    print("\nBoth marginals are thermal; only the correlation structure "
          "differs.\nThe quantum law never lights the Stokes side alone, the "
          "classical\nmixture does, and its ratio sits on the classical bound "
          "of 1 within noise.")


if __name__ == "__main__":
    main()
