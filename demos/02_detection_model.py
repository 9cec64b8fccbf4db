#!/usr/bin/env python3
"""Detection chain: losses, backgrounds, beam splitting, gated clicks.

Runs the pipeline on configs that each isolate one part of the detection
model, and compares every detector's click probability per gate with the
analytic oracle and with a closed form:

    dark counts of mean d per gate         1 - exp(-d)
    Poisson background of mean mu          1 - exp(-eta mu / 2)
    geometric light of mean p, path t      x / (1 + x), x = p t eta / 2

The 50/50 beam splitter sends half of each channel's light to either
detector, so both detectors behind it click alike.  Binomial thinning
composes multiplicatively: swapping the transmission t and the detector
efficiency eta leaves the click law unchanged.
"""

import math

from pairsim import ExperimentConfig, SourceModel, oracle_report, simulate_run

TRIALS = 500_000
DETECTORS = "ABCD"


def lossless(**fields):
    """A noise-free quantum-source config with unit efficiencies, then ``fields``."""
    base = dict(source_model=SourceModel.QUANTUM_TMS, p_excitation=0.0, delay_dt=2e-6,
                retrieval_eff=1.0, transmission=1.0, detector_eff=1.0)
    return ExperimentConfig(**{**base, **fields})


CASES = {
    "dark counts, d = 0.02": (lossless(dark_mean=0.02), 1.0 - math.exp(-0.02)),
    "background mu = 0.2 at eta = 0.64": (
        lossless(bg_stokes_mean=0.2, bg_antistokes_mean=0.2, detector_eff=0.64),
        1.0 - math.exp(-0.64 * 0.2 / 2)),
    "geometric p = 0.2, t = 0.8, eta = 0.5": (
        lossless(p_excitation=0.2, transmission=0.8, detector_eff=0.5), 0.04 / 1.04),
    "geometric p = 0.2, t = 0.5, eta = 0.8": (
        lossless(p_excitation=0.2, transmission=0.5, detector_eff=0.8), 0.04 / 1.04),
}


def main():
    print(f"click probability per gate, {TRIALS:,} trials per config")
    for name, (config, exact) in CASES.items():
        result = simulate_run(config, trials=TRIALS, seed=7)
        oracle = oracle_report(config)
        print(f"\n{name}: closed form {exact:.6f}")
        print(f"  {'detector':8s} {'sampled':>9s} {'oracle':>9s} {'z':>6s}")
        for bit, det in enumerate(DETECTORS):
            clicks = sum(int(result.pattern_counts[m]) for m in range(16) if m >> bit & 1)
            predicted = oracle.p_click[det]
            sigma = math.sqrt(predicted * (1.0 - predicted) / TRIALS)
            print(f"  {det:8s} {clicks / TRIALS:9.6f} {predicted:9.6f} "
                  f"{(clicks / TRIALS - predicted) / sigma:+6.2f}")


if __name__ == "__main__":
    main()
