"""Correlated write/read photon-pair source models.

A write pulse populates a forward-scattered light mode (the "write" or
Stokes channel) together with a long-lived collective excitation of the
atomic ensemble acting as a bosonic memory mode.  Two source laws are
implemented:

``quantum_tms``
    Two-mode-squeezed statistics: a single excitation number n is drawn
    from the geometric (single-mode thermal) law

        P(n) = p**n / (1 + p)**(n + 1),

    with mean p, and the write mode and the memory mode share that number
    exactly.  This is the nonclassical reference model.

``classical_correlated``
    A common exponentially distributed intensity lam with mean p drives
    two independent Poisson counts.  The joint law admits a positive
    P-representation by construction, so it can never violate the
    Cauchy-Schwarz bound; it serves as the classical boundary model.
    Integrating lam out leaves a geometric total k = n_s + n_m with mean
    2p, split by Binomial(k, 1/2); that is how it is sampled.

After a storage delay the memory mode decoheres (excitations are lost and
uncorrelated ones diffuse in) and a read pulse converts the surviving
excitations to photons in the read (anti-Stokes) channel.

All samplers take and return 1-d count arrays, one entry per trial, and
draw from a caller-supplied ``numpy.random.Generator``.  They are internals
of the sampler in :mod:`pairsim.engine`, and their signatures follow it; the
public API is the top-level names of ``pairsim``.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .optics import add_background, split, thin


class SourceModel(Enum):
    """Physics of the write process."""

    QUANTUM_TMS = "quantum_tms"
    CLASSICAL_CORRELATED = "classical_correlated"


def sample_write(p: float, model: SourceModel, rng: np.random.Generator,
                 size: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_stokes, n_memory) of ``size`` trials, drawn from the law of mean
    excitation p (>= 0) conditioned on (n_s, n_m) != (0, 0).

    Both laws have a geometric total, so by memorylessness the conditioned
    total is 1 + the unconditioned one.  At p == 0 no such excitation
    exists and only size 0 is accepted.  For ``quantum_tms`` both arrays
    are the same object.
    """
    if not p >= 0:  # NaN too
        raise ValueError(f"mean excitation p must be >= 0, got {p}")
    if model not in (SourceModel.QUANTUM_TMS, SourceModel.CLASSICAL_CORRELATED):
        raise ValueError(f"unknown source model: {model!r}")
    if p == 0 and size != 0:
        raise ValueError("no nonzero excitation exists at p == 0")
    if model is SourceModel.QUANTUM_TMS:
        # numpy's geometric is supported on {1, 2, ...}
        n = rng.geometric(1.0 / (1.0 + p), size=size)
        return n, n
    return split(rng.geometric(1.0 / (1.0 + 2.0 * p), size=size), rng)


def decohere_memory(n_memory: np.ndarray, delay: float, lifetime: float,
                    diffusion_in_mean: float, rng: np.random.Generator):
    """Apply storage decoherence to the memory mode.

    Each stored excitation independently survives the write-read delay with
    probability exp(-delay/lifetime).  Uncorrelated excitations diffuse in
    as a Poisson count with mean ``diffusion_in_mean * (1 - survival)``;
    the (1 - survival) scaling makes delay == 0 exactly clean.
    """
    if not delay >= 0:  # NaN too
        raise ValueError(f"delay must be >= 0, got {delay}")
    if not lifetime > 0:
        raise ValueError(f"lifetime must be > 0, got {lifetime}")
    if not diffusion_in_mean >= 0:
        raise ValueError(f"diffusion_in_mean must be >= 0, got {diffusion_in_mean}")
    survival = math.exp(-delay / lifetime)
    return add_background(thin(n_memory, survival, rng),
                          diffusion_in_mean * (1.0 - survival), rng)


def retrieve(n_memory: np.ndarray, eta_r: float, rng: np.random.Generator):
    """Convert stored excitations to read-channel photons (binomial thinning)."""
    return thin(n_memory, eta_r, rng)
