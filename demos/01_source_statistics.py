#!/usr/bin/env python3
"""Source statistics: the quantum and classical photon-pair laws.

Draws a large batch of write pulses from both source models and compares
the sampled number statistics against the closed forms of the joint pmf:

    quantum_tms            P(n, n) = p**n / (1 + p)**(n + 1), zero off the diagonal
    classical_correlated   P(n_s, n_m) = C(n_s + n_m, n_s) p**(n_s + n_m)
                                         / (1 + 2 p)**(n_s + n_m + 1)

The two
models share identical thermal marginals (mean p, variance p(1+p)) but
differ in their correlations: the quantum two-mode-squeezed law is
perfectly number correlated, the classical mixture is only intensity
correlated, and that difference is exactly what the Cauchy-Schwarz test
detects downstream.
"""

import math

import numpy as np

from pairsim import SourceModel, sample_write

P = 0.14
DRAWS = 2_000_000


def joint_pmf(p, model, n_s, n_m):
    """The closed form of the joint law that ``sample_write`` draws."""
    if model is SourceModel.QUANTUM_TMS:
        return p ** n_s / (1 + p) ** (n_s + 1) if n_s == n_m else 0.0
    k = n_s + n_m
    return math.comb(k, n_s) * p ** k / (1 + 2 * p) ** (k + 1)


def describe(model):
    rng = np.random.default_rng(42)
    exc = sample_write(P, model, rng, size=DRAWS)
    ns, nm = exc.n_stokes, exc.n_memory
    print(f"\n{model.value}: {DRAWS:,} write pulses at mean excitation {P}")
    print(f"  mean n_stokes   {ns.mean():.5f}   (law mean {P})")
    print(f"  var  n_stokes   {ns.var():.5f}   (thermal p(1+p) = {P * (1 + P):.5f})")
    print(f"  corr(n_s, n_m)  {np.corrcoef(ns, nm)[0, 1]:.5f}")
    law = ("p**n / (1 + p)**(n + 1) on n_s == n_m" if model is SourceModel.QUANTUM_TMS
           else "C(k, n_s) p**k / (1 + 2p)**(k + 1), k = n_s + n_m")
    print(f"  joint law {law}, sampled vs closed form:")
    print("    (n_s, n_m)   sampled      pmf")
    for i in range(3):
        for j in range(3):
            sampled = np.mean((ns == i) & (nm == j))
            exact = joint_pmf(P, model, i, j)
            if exact > 1e-7 or sampled > 0:
                print(f"    ({i}, {j})      {sampled:.6f}    {exact:.6f}")


def main():
    describe(SourceModel.QUANTUM_TMS)
    describe(SourceModel.CLASSICAL_CORRELATED)
    print("\nBoth marginals are thermal; only the correlation structure "
          "differs.\nThe quantum law never produces (n_s, n_m) with "
          "n_s != n_m, the classical\nmixture does, and its correlations "
          "stay within the classical bound.")


if __name__ == "__main__":
    main()
