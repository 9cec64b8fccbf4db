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

Every count operation takes 1-d count arrays, one entry per trial.  These
functions are internals of the sampler in :mod:`pairsim.engine`, and their
signatures follow it; the public API is the top-level names of ``pairsim``.
They take what ``ExperimentConfig`` has validated and do not check it again.
The binomial stages and the background draw return numpy's numbers and
leave the generator where numpy would: ``rng.binomial`` on the nonzero
entries (Binomial(0, p) is 0 and numpy draws nothing for it) and
``rng.poisson`` on every entry, numpy's own call (:func:`add_background`
says why it is not replayed).  The binomial stages repeat numpy's scalar
loop on whole arrays: for the small counts of this model the loop turns one
uniform into its result with a few float operations, which whole-array
passes repeat with the same operations in the same order (libm's ``exp``
and ``log`` through ``math`` for the per-count constants, as numpy's C code
calls them).  A call that such a pass cannot replay, because some entry
would take numpy's other algorithm or draw a further uniform, restores the
saved generator state and hands the whole call to numpy.
"""

from __future__ import annotations

import math

import numpy as np

DETECTOR_IDS = ("A", "B", "C", "D")


def _binomial(n: np.ndarray, p: float, rng: np.random.Generator):
    """Binomial(n, p), drawn for the nonzero entries of n only.

    Zero entries stay 0 without a draw.
    """
    out = np.zeros(n.size, dtype=np.int64)
    # Integer indices gather and scatter faster than the boolean mask.
    nonzero = np.flatnonzero(n != 0)
    out[nonzero] = _binomial_counts(n[nonzero], p, rng)
    return out


def _binomial_counts(n: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """``rng.binomial(n, p)`` for a 1-d array of counts, numpy's numbers and
    stream position included.

    numpy draws Binomial(n, p') with p' = min(p, 1 - p), returning n minus
    the draw when p > 0.5.  Where p' n <= 30 it walks the pmf from x = 0:
    one uniform u per entry, and while u > px, u -= px and px is stepped to
    the next x; a walk past ``bound`` restarts on a fresh uniform.  Here all
    entries walk together, one pass per step.  The call goes to numpy as a
    whole where an entry has p' n > 30 (numpy's BTPE branch), or where the
    counts reach past 1/64 of the entries (one table row per count value
    then costs more than the passes save); and, from the state saved before
    the draw, where a walk passes its bound.
    """
    flip = p > 0.5
    walk_p = 1.0 - p if flip else p
    top = int(n.max(initial=0))
    if not (walk_p * top <= 30.0 and 64 * top <= n.size):
        return rng.binomial(n, p)
    if p == 0.0:
        return np.zeros(n.shape, dtype=np.int64)
    q = 1.0 - walk_p
    # Per count value v: px at x = 0 and at x = 1, and numpy's bound on x.
    first = [0.0] * (top + 1)
    second = [0.0] * (top + 1)
    bound = [0] * (top + 1)
    for v in range(1, top + 1):
        first[v] = math.exp(v * math.log(q))
        second[v] = (v * walk_p * first[v]) / q
        mean = v * walk_p
        bound[v] = int(min(v, mean + 10.0 * math.sqrt(mean * q + 1)))
    state = rng.bit_generator.state
    u = rng.random(n.size)
    px = np.array(first)[n]
    x = (u > px).astype(np.int64)
    # Step 1 on every entry (bound >= 1 always): an entry with u <= px stays
    # at x = 0, as its u - px <= 0 is below the next px.  Every count is a
    # row of the table, so mode="clip" changes nothing but lets ``take``
    # write into px without a buffer.
    u -= px
    np.array(second).take(n, out=px, mode="clip")
    live = np.flatnonzero(u > px)
    u, px, counts = u[live], px[live], n[live]
    bounds, low = np.array(bound), 1
    j = 1
    while live.size:
        j += 1
        if j > low:
            live_bounds = bounds[counts]
            if (j > live_bounds).any():
                rng.bit_generator.state = state
                return rng.binomial(n, p)
            low = int(live_bounds.min())
        u -= px
        px *= (counts - (j - 1)) * walk_p
        px /= j * q
        x[live] = j
        going = u > px
        live, u, px, counts = live[going], u[going], px[going], counts[going]
    if flip:
        np.subtract(n, x, out=x)
    return x


def thin(n: np.ndarray, eta: float, rng: np.random.Generator):
    """Binomial loss: each of n photons survives independently with prob eta."""
    return _binomial(n, eta, rng)


def add_background(n: np.ndarray, bg_mean: float, rng: np.random.Generator):
    """Add an independent Poisson background count with the given mean:
    numpy's ``rng.poisson(bg_mean, size=n.size)``, drawn by numpy itself.

    A whole-array replay of numpy's multiplication loop was faster in
    isolation (59 against 131 us on 12,700 zeros at mean 1.34e-4) but
    saved about 4% of a block, less than the benchmark's run-to-run spread,
    for 30 lines that saved and restored the generator state.
    """
    return n + rng.poisson(bg_mean, size=n.size)


def split(n: np.ndarray, rng: np.random.Generator):
    """50/50 beam splitter: (k, n - k) with k ~ Binomial(n, 1/2)."""
    k = _binomial(n, 0.5, rng)
    return k, n - k


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
    top = n.max(initial=0)
    # One click probability per photon number up to the largest, looked up
    # per trial, where that table is shorter than the batch.
    photons = np.arange(top + 1) if top < n.size else n
    probability = 1.0 - (1.0 - det_eff) ** photons * np.exp(-dark_mean)
    if top < n.size:
        probability = probability[n]
    clicked = rng.random(n.size) < probability
    offsets = rng.random(np.count_nonzero(clicked))
    offsets *= gate_width
    offsets += gate_start
    return clicked, offsets

