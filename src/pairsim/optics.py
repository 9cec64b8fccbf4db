"""Optical loss, background injection, beam splitting and gated detection.

Each channel (Stokes or anti-Stokes) is a single spatial mode that passes
through a lossy path to a 50/50 beam splitter feeding two gated click
detectors: A/B on the Stokes side, C/D on the anti-Stokes side.  Background
means are referenced to the beam-splitter input, i.e. they are the filter
leakage that survives the optical path.

Detectors are binary (non-photon-number-resolving) and produce at most one
click per gate.  For n incident photons the click probability is

    1 - (1 - eta)**n * exp(-dark_mean),

which folds dark counts into the per-gate click probability; dark clicks
are indistinguishable from photon clicks in the gated analysis.  Click
offsets are uniform over the gate window.

All count operations accept scalars or numpy arrays (one entry per trial).
Binomial stages pass numpy only the nonzero entries of an array.
Binomial(0, p) is 0 and numpy draws nothing for it either, so the stream is
that of drawing every entry, without numpy's per-entry cost for the zeros.
"""

from __future__ import annotations

import numpy as np

DETECTOR_IDS = ("A", "B", "C", "D")


def _binomial(n, p: float, rng: np.random.Generator):
    """Binomial(n, p), drawn for the nonzero entries of an array n only.

    Zero entries stay 0 without a draw; a scalar n takes one plain draw.
    """
    if np.isscalar(n):
        return rng.binomial(n, p)
    n = np.asarray(n)
    out = np.zeros(n.shape, dtype=np.int64)
    nonzero = n != 0
    out[nonzero] = rng.binomial(n[nonzero], p)
    return out


def thin(n, eta: float, rng: np.random.Generator):
    """Binomial loss: each of n photons survives independently with prob eta."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must be in [0, 1], got {eta}")
    return _binomial(n, eta, rng)


def add_background(n, bg_mean: float, rng: np.random.Generator):
    """Add an independent Poisson background count with the given mean."""
    if bg_mean < 0:
        raise ValueError(f"bg_mean must be >= 0, got {bg_mean}")
    size = None if np.isscalar(n) else np.shape(n)
    return n + rng.poisson(bg_mean, size=size)


def split(n, rng: np.random.Generator):
    """50/50 beam splitter: (k, n - k) with k ~ Binomial(n, 1/2)."""
    k = _binomial(n, 0.5, rng)
    return k, n - k


def click_probability(n, det_eff: float, dark_mean: float):
    """Per-gate click probability of a binary detector seeing n photons."""
    return 1.0 - (1.0 - det_eff) ** n * np.exp(-dark_mean)


def detect_batch(n: np.ndarray, det_eff: float, dark_mean: float,
                 gate_start: float, gate_width: float,
                 rng: np.random.Generator):
    """Vectorized gated detection for a batch of trials.

    Returns
    -------
    clicked : bool array, one entry per trial.
    offsets : float array with one within-cycle offset per clicked trial,
        each inside [gate_start, gate_start + gate_width).
    """
    if not 0.0 <= det_eff <= 1.0:
        raise ValueError(f"detector efficiency must be in [0, 1], got {det_eff}")
    if dark_mean < 0:
        raise ValueError(f"dark_mean must be >= 0, got {dark_mean}")
    if gate_width <= 0:
        raise ValueError(f"gate_width must be > 0, got {gate_width}")
    n = np.asarray(n)
    top = n.max(initial=0)
    if top < n.size:
        # One click probability per photon number up to the largest, looked
        # up per trial; the table is never longer than the batch.
        probability = click_probability(np.arange(top + 1), det_eff, dark_mean)[n]
    else:
        probability = click_probability(n, det_eff, dark_mean)
    clicked = rng.random(n.shape) < probability
    offsets = rng.random(np.count_nonzero(clicked))
    offsets *= gate_width
    offsets += gate_start
    return clicked, offsets

