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

All samplers accept either scalar counts or numpy arrays (one entry per
trial) and draw from a caller-supplied ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .optics import _binomial


class SourceModel(Enum):
    """Physics of the write process."""

    QUANTUM_TMS = "quantum_tms"
    CLASSICAL_CORRELATED = "classical_correlated"


@dataclass
class TrialExcitation:
    """Write-time excitation numbers of the Stokes and memory modes.

    Fields are ints for a single trial or int64 arrays for a batch of trials.
    """

    n_stokes: np.ndarray | int
    n_memory: np.ndarray | int


def _size_of(n):
    """None for scalars, else the array shape (for rng size arguments)."""
    return None if np.isscalar(n) else np.shape(n)


def sample_write(p: float, model: SourceModel, rng: np.random.Generator,
                 size: int | None = None, nonzero: bool = False) -> TrialExcitation:
    """Sample write-pulse excitation numbers for one trial or a batch.

    Parameters
    ----------
    p : mean excitation number per write pulse (>= 0).
    model : source law, see module docstring.
    rng : numpy Generator.
    size : None for a single trial, else number of trials.
    nonzero : draw from the law conditioned on (n_s, n_m) != (0, 0).  Both
        laws have a geometric total, so by memorylessness the conditioned
        total is 1 + the unconditioned one.  Needs p > 0 unless size is 0.

    For ``quantum_tms`` both fields hold the same object.
    """
    if p < 0:
        raise ValueError(f"mean excitation p must be >= 0, got {p}")
    if model not in (SourceModel.QUANTUM_TMS, SourceModel.CLASSICAL_CORRELATED):
        raise ValueError(f"unknown source model: {model!r}")
    if p == 0:
        if nonzero and size != 0:
            raise ValueError("no nonzero excitation exists at p == 0")
        zero = 0 if size is None else np.zeros(size, dtype=np.int64)
        return TrialExcitation(n_stokes=zero, n_memory=zero)
    shift = 0 if nonzero else 1
    if model is SourceModel.QUANTUM_TMS:
        # numpy's geometric is supported on {1, 2, ...}
        n = rng.geometric(1.0 / (1.0 + p), size=size) - shift
        return TrialExcitation(n_stokes=n, n_memory=n)
    total = rng.geometric(1.0 / (1.0 + 2.0 * p), size=size) - shift
    n_stokes = rng.binomial(total, 0.5)
    return TrialExcitation(n_stokes=n_stokes, n_memory=total - n_stokes)


def joint_pmf(p: float, model: SourceModel, n_s: int, n_m: int) -> float:
    """Exact probability of the joint count (n_s, n_m) under the source law.

    Analytic counterpart of :func:`sample_write`.  For ``quantum_tms`` the
    pmf is zero off the diagonal n_s == n_m; for ``classical_correlated``
    the exponential mixture of Poisson pairs integrates to

        P(n_s, n_m) = C(n_s + n_m, n_s) * (1/p) / (2 + 1/p)**(n_s + n_m + 1).
    """
    if p < 0:
        raise ValueError(f"mean excitation p must be >= 0, got {p}")
    if n_s < 0 or n_m < 0:
        raise ValueError("counts must be >= 0")
    if model is SourceModel.QUANTUM_TMS:
        if n_s != n_m:
            return 0.0
        if p == 0:
            return 1.0 if n_s == 0 else 0.0
        return math.exp(n_s * math.log(p) - (n_s + 1) * math.log1p(p))
    if model is SourceModel.CLASSICAL_CORRELATED:
        if p == 0:
            return 1.0 if (n_s == 0 and n_m == 0) else 0.0
        k = n_s + n_m
        log_binom = math.lgamma(k + 1) - math.lgamma(n_s + 1) - math.lgamma(n_m + 1)
        return float(np.exp(log_binom - math.log(p)
                            - (k + 1) * math.log(2.0 + 1.0 / p)))
    raise ValueError(f"unknown source model: {model!r}")


def decohere_memory(n_memory, delay: float, lifetime: float,
                    diffusion_in_mean: float, rng: np.random.Generator):
    """Apply storage decoherence to the memory mode.

    Each stored excitation independently survives the write-read delay with
    probability exp(-delay/lifetime).  Uncorrelated excitations diffuse in
    as a Poisson count with mean ``diffusion_in_mean * (1 - survival)``;
    the (1 - survival) scaling makes delay == 0 exactly clean.
    """
    if delay < 0:
        raise ValueError(f"delay must be >= 0, got {delay}")
    if lifetime <= 0:
        raise ValueError(f"lifetime must be > 0, got {lifetime}")
    if diffusion_in_mean < 0:
        raise ValueError(f"diffusion_in_mean must be >= 0, got {diffusion_in_mean}")
    survival = math.exp(-delay / lifetime)
    survivors = _binomial(n_memory, survival, rng)
    injected = rng.poisson(diffusion_in_mean * (1.0 - survival),
                           size=_size_of(n_memory))
    return survivors + injected


def retrieve(n_memory, eta_r: float, rng: np.random.Generator):
    """Convert stored excitations to read-channel photons (binomial thinning)."""
    if not 0.0 <= eta_r <= 1.0:
        raise ValueError(f"retrieval efficiency must be in [0, 1], got {eta_r}")
    return _binomial(n_memory, eta_r, rng)
