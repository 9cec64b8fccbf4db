"""Loss, background, beam splitting and the gated click-detector model."""

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from pairsim.optics import _binomial, add_background, detect_batch, split, thin
from pairsim.source import retrieve
from reference import binomial_inversion

MIXED = np.array([0, 3, 0, 0, 1, 7, 0, 2], dtype=np.int64)
BIT_GENERATORS = {"pcg64": np.random.PCG64, "sfc64": np.random.SFC64}
TOP_UNIFORM = 1.0 - 2.0 ** -53
"""The largest uniform numpy's ``random`` returns."""


def twin_generators(seed=7, bit_generator=np.random.PCG64):
    return (np.random.Generator(bit_generator(seed)),
            np.random.Generator(bit_generator(seed)))


def assert_same_state(rng, twin):
    """Both generators are at one stream position (SFC64 states hold arrays)."""
    np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)


class ScriptedUniforms:
    """A generator whose ``random`` returns scripted uniforms.

    Each ``random`` call still advances the wrapped generator by as many
    uniforms, so the stream position stays honest; every other attribute,
    ``bit_generator`` included, is the wrapped generator's.
    """

    def __init__(self, rng: np.random.Generator, uniforms):
        self._rng = rng
        self._uniforms = list(uniforms)

    def random(self, size):
        self._rng.random(size)
        out, self._uniforms = self._uniforms[:size], self._uniforms[size:]
        assert len(out) == size, "the script ran out of uniforms"
        return np.array(out)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_thin_unit_and_zero_efficiency(rng):
    n = rng.integers(0, 10, size=1000)
    assert np.array_equal(thin(n, 1.0, rng), n)
    assert not thin(n, 0.0, rng).any()


def test_thin_single_photon_half(rng):
    draws = 10 ** 6
    out = thin(np.ones(draws, dtype=np.int64), 0.5, rng)
    assert abs(out.mean() - 0.5) < 4.0 * math.sqrt(0.25 / draws)


def test_thin_composition_example(rng):
    # thin(thin(n, 0.8), 0.5) must be distributed as thin(n, 0.4).
    draws = 10 ** 6
    start = np.full(draws, 5, dtype=np.int64)
    twice = thin(thin(start, 0.8, rng), 0.5, rng)
    pmf = [math.comb(5, k) * 0.4 ** k * 0.6 ** (5 - k) for k in range(6)]
    observed = np.bincount(twice, minlength=6)
    assert chisquare(observed, np.asarray(pmf) * draws).pvalue > 1e-6


@pytest.mark.parametrize("eta1", [0.0, 0.3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("eta2", [0.0, 0.3, 0.5, 0.8, 1.0])
def test_thin_composition_law_grid(eta1, eta2, rng):
    draws = 10 ** 5
    start = np.full(draws, 4, dtype=np.int64)
    twice = thin(thin(start, eta1, rng), eta2, rng)
    q = eta1 * eta2
    mean, var = 4 * q, 4 * q * (1 - q)
    if var == 0:
        assert np.all(twice == round(mean))
    else:
        assert abs(twice.mean() - mean) < 4.0 * math.sqrt(var / draws)


# Binomial stages draw only for nonzero counts: zeros stay 0 and take no
# draw, so the nonzero entries get exactly the draws of the compact array.
BINOMIAL_STAGES = {
    "thin": (lambda n, rng: thin(n, 0.3, rng), 0.3),
    "split": (lambda n, rng: split(n, rng)[0], 0.5),
    "retrieve": (lambda n, rng: retrieve(n, 0.32, rng), 0.32),
}


@pytest.mark.parametrize("stage", BINOMIAL_STAGES)
def test_binomial_stage_all_zero_draws_nothing(stage):
    draw, _ = BINOMIAL_STAGES[stage]
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    out = draw(np.zeros(50, dtype=np.int64), rng)
    assert out.dtype == np.int64 and out.shape == (50,) and not out.any()
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("stage", BINOMIAL_STAGES)
def test_binomial_stage_mixed_draws_nonzero_entries_only(stage):
    draw, p = BINOMIAL_STAGES[stage]
    rng, twin = twin_generators()
    out = draw(MIXED, rng)
    assert out.dtype == np.int64 and out.shape == MIXED.shape
    assert not out[MIXED == 0].any()
    assert np.array_equal(out[MIXED != 0], twin.binomial(MIXED[MIXED != 0], p))
    assert rng.bit_generator.state == twin.bit_generator.state


def _counts(size, top, zero_share, seed=3):
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, top + 1, size=size)
    counts[rng.random(size) < zero_share] = 0
    return counts


BINOMIAL_COUNTS = {
    "empty": np.empty(0, dtype=np.int64),
    "zeros": np.zeros(500, dtype=np.int64),
    "mixed": MIXED,
    "ones": np.ones(3000, dtype=np.int64),
    "small": _counts(5000, 5, 0.4),
    "up_to_100": _counts(8000, 100, 0.1),  # p' * 100 > 30 takes numpy's BTPE
    "up_to_3000": _counts(200, 3000, 0.1),  # more count values than entries
}
BINOMIAL_P = [0.0, 1e-9, 0.01, 0.174, 0.32, 0.5, 0.73, 0.9, 1.0]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("p", BINOMIAL_P)
@pytest.mark.parametrize("counts", BINOMIAL_COUNTS)
def test_binomial_matches_numpy(counts, p, bit_generator):
    # numpy's numbers for the nonzero entries, and numpy's stream position.
    n = BINOMIAL_COUNTS[counts]
    rng, twin = twin_generators(11, BIT_GENERATORS[bit_generator])
    out = _binomial(n, p, rng)
    expected = np.zeros_like(n)
    expected[n != 0] = twin.binomial(n[n != 0], p)
    assert out.dtype == np.int64 and np.array_equal(out, expected)
    assert_same_state(rng, twin)


@pytest.mark.parametrize("n, p", [(2, 0.3), (2, 0.7), (5, 0.32)])
def test_binomial_walk_past_its_bound_goes_to_numpy(n, p):
    # The largest uniform walks these draws past numpy's bound, where numpy
    # starts again on a fresh uniform; the whole call goes back to numpy.
    assert binomial_inversion(n, p, [TOP_UNIFORM, 0.5])[1] == 2
    counts = np.full(400, n)
    uniforms = np.random.default_rng(1).random(400)
    uniforms[123] = TOP_UNIFORM
    rng = ScriptedUniforms(np.random.default_rng(5), uniforms)
    twin = np.random.default_rng(5)
    assert np.array_equal(thin(counts, p, rng), twin.binomial(counts, p))
    assert_same_state(rng, twin)


@pytest.mark.parametrize("p", [0.174, 0.5, 0.9])
def test_binomial_replays_numpys_loop_on_given_uniforms(p):
    # Entry by entry, numpy's loop on the same uniforms gives the same draws.
    counts = _counts(3000, 8, 0.0, seed=4)
    uniforms = np.random.default_rng(2).random(counts.size)
    # Each entry's P(x = 0) is numpy's first threshold: u on it stays at 0,
    # the next double up takes a step.
    q = 1.0 - min(p, 1.0 - p)
    first = [math.exp(int(k) * math.log(q)) for k in counts[:6]]
    uniforms[:6] = [0.0, TOP_UNIFORM * 0.999, first[2], np.nextafter(first[3], 1.0),
                    first[4], np.nextafter(first[5], 1.0)]
    out = thin(counts, p, ScriptedUniforms(np.random.default_rng(5), uniforms))
    expected = [binomial_inversion(int(k), p, [u]) for k, u in zip(counts, uniforms)]
    assert all(used == 1 for _, used in expected)
    assert out.tolist() == [x for x, _ in expected]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("mean", [0.0, 1e-9, 1e-4, 4.5e-3, 0.08, 1.0, 3.0, 12.0])
@pytest.mark.parametrize("size", [0, 1, 7, 12600])
def test_add_background_matches_numpy(size, mean, bit_generator):
    n = _counts(size, 3, 0.5)
    rng, twin = twin_generators(11, BIT_GENERATORS[bit_generator])
    out = add_background(n, mean, rng)
    assert np.array_equal(out, n + twin.poisson(mean, size=size))
    assert_same_state(rng, twin)


def test_add_background_zero_mean_is_identity(rng):
    n = rng.integers(0, 4, size=1000)
    assert np.array_equal(add_background(n, 0.0, rng), n)


def test_add_background_click_probability(rng):
    # P(>= 1) for a Poisson background of mean 0.01: 1 - exp(-0.01).
    draws = 10 ** 7
    out = add_background(np.zeros(draws, dtype=np.int64), 0.01, rng)
    expected = 1.0 - math.exp(-0.01)
    observed = np.mean(out >= 1)
    assert abs(observed - expected) < 4.0 * math.sqrt(expected / draws)


def test_add_background_shifts_mean(rng):
    draws = 10 ** 6
    base = rng.integers(0, 3, size=draws)
    out = add_background(base, 0.5, rng)
    assert abs((out - base).mean() - 0.5) < 3.0 * math.sqrt(0.5 / draws)


def test_split_vacuum(rng):
    a, b = split(np.zeros(1, dtype=np.int64), rng)
    assert (a.tolist(), b.tolist()) == ([0], [0])


def test_split_conserves_count(rng):
    n = rng.integers(0, 10, size=10 ** 5)
    a, b = split(n, rng)
    assert np.array_equal(a + b, n)
    assert a.min() >= 0 and b.min() >= 0


def test_split_single_photon_balanced(rng):
    draws = 10 ** 6
    a, _ = split(np.ones(draws, dtype=np.int64), rng)
    assert abs(a.mean() - 0.5) < 4.0 * math.sqrt(0.25 / draws)


def test_detect_never_clicks_on_vacuum(rng):
    clicked, offsets = detect_batch(np.zeros(10 ** 5, dtype=np.int64),
                                    0.64, 0.0, 0.0, 1e-6, rng)
    assert not clicked.any() and offsets.size == 0


@pytest.mark.parametrize("n", [np.empty(0, dtype=np.int64),
                               np.zeros(6, dtype=np.int64), MIXED,
                               np.array([0, 40, 2], dtype=np.int64)],
                         ids=["empty", "all_zero", "mixed", "count_above_size"])
def test_detect_batch_table_matches_the_formula(n):
    # The per-call click-probability table, or the formula itself where a
    # count exceeds the batch size, gives the same clicks and offsets as
    # evaluating the formula for every entry.
    rng, twin = twin_generators()
    clicked, offsets = detect_batch(n, 0.64, 0.3, 1e-6, 2e-6, rng)
    expected = twin.random(n.shape) < 1.0 - (1.0 - 0.64) ** n * np.exp(-0.3)
    assert clicked.shape == n.shape and np.array_equal(clicked, expected)
    assert np.array_equal(offsets, 1e-6 + 2e-6 * twin.random(int(expected.sum())))


def test_detect_single_photon_reference_efficiency(rng):
    draws = 10 ** 6
    clicked, _ = detect_batch(np.ones(draws, dtype=np.int64), 0.64, 0.0,
                              0.0, 1e-6, rng)
    assert abs(clicked.mean() - 0.64) < 4.0 * math.sqrt(0.64 * 0.36 / draws)


def test_detect_geometric_input_closed_form(rng):
    # Geometric light of mean 0.2 through total efficiency 0.5 clicks with
    # probability eta*mu / (1 + eta*mu) = 0.1/1.1 (geometric series).
    draws, mu, eta = 10 ** 6, 0.2, 0.5
    n = rng.geometric(1.0 / (1.0 + mu), size=draws) - 1
    clicked, _ = detect_batch(n, eta, 0.0, 0.0, 1e-6, rng)
    expected = eta * mu / (1.0 + eta * mu)
    assert abs(expected - 0.1 / 1.1) < 1e-15
    sigma = math.sqrt(expected * (1 - expected) / draws)
    assert abs(clicked.mean() - expected) < 4.0 * sigma


def test_detect_poisson_input_closed_form(rng):
    # 1 - E[(1-eta)^n] e^{-d} = 1 - exp(-eta*mu - d) for Poisson light.
    draws, mu, eta, dark = 10 ** 6, 0.7, 0.3, 0.05
    n = rng.poisson(mu, size=draws)
    clicked, _ = detect_batch(n, eta, dark, 0.0, 1e-6, rng)
    expected = 1.0 - math.exp(-eta * mu - dark)
    sigma = math.sqrt(expected * (1 - expected) / draws)
    assert abs(clicked.mean() - expected) < 4.0 * sigma


def test_detect_dark_counts_only(rng):
    draws, dark = 10 ** 6, 0.02
    clicked, _ = detect_batch(np.zeros(draws, dtype=np.int64), 0.64, dark,
                              0.0, 1e-6, rng)
    expected = 1.0 - math.exp(-dark)
    sigma = math.sqrt(expected * (1 - expected) / draws)
    assert abs(clicked.mean() - expected) < 4.0 * sigma


def test_detect_timestamps_inside_gate(rng):
    draws = 10 ** 5
    gate_start, width = 2e-6, 1e-6
    clicked, offsets = detect_batch(rng.integers(0, 3, size=draws), 0.8, 0.01,
                                    gate_start, width, rng)
    assert offsets.size == clicked.sum()
    assert np.all(offsets >= gate_start) and np.all(offsets < gate_start + width)

