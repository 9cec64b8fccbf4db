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
public API is the top-level names of ``pairsim``.  They take what
``ExperimentConfig`` has validated and do not check it again.
"""

from __future__ import annotations

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
    total is 1 + the unconditioned one.  For ``quantum_tms`` both arrays
    are the same object.
    """
    if model is SourceModel.QUANTUM_TMS:
        # numpy's geometric is supported on {1, 2, ...}
        n = rng.geometric(1.0 / (1.0 + p), size=size)
        return n, n
    return split(rng.geometric(1.0 / (1.0 + 2.0 * p), size=size), rng)


def decohere_memory(n_memory: np.ndarray, survival: float, diffusion_mean: float,
                    rng: np.random.Generator):
    """Apply storage decoherence to the memory mode: each stored excitation
    survives the write-read delay with probability ``survival``, and
    Poisson(``diffusion_mean``) uncorrelated ones diffuse in (see
    ``engine._memory_law``).
    """
    return add_background(thin(n_memory, survival, rng), diffusion_mean, rng)


def retrieve(n_memory: np.ndarray, eta_r: float, rng: np.random.Generator):
    """Convert stored excitations to read-channel photons (binomial thinning)."""
    return thin(n_memory, eta_r, rng)
