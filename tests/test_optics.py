"""Loss, background, beam splitting and the gated click-detector model."""

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from pairsim import (SourceModel, add_background, detect_batch, retrieve, sample_write,
                     split, thin)
from pairsim.optics import click_probability

MIXED = np.array([0, 3, 0, 0, 1, 7, 0, 2], dtype=np.int64)


def twin_generators(seed=7):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def test_thin_unit_and_zero_efficiency(rng):
    n = rng.integers(0, 10, size=1000)
    assert np.array_equal(thin(n, 1.0, rng), n)
    assert not thin(n, 0.0, rng).any()


def test_thin_rejects_bad_efficiency(rng):
    with pytest.raises(ValueError):
        thin(3, 1.01, rng)


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


@pytest.mark.parametrize("stage", BINOMIAL_STAGES)
@pytest.mark.parametrize("n", [0, 5])
def test_binomial_stage_scalar_takes_one_plain_draw(stage, n):
    draw, p = BINOMIAL_STAGES[stage]
    rng, twin = twin_generators()
    out = draw(n, rng)
    assert np.isscalar(out) and out == twin.binomial(n, p)
    assert rng.bit_generator.state == twin.bit_generator.state


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
    a, b = split(0, rng)
    assert (a, b) == (0, 0)


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
    # evaluating click_probability for every entry.
    rng, twin = twin_generators()
    clicked, offsets = detect_batch(n, 0.64, 0.3, 1e-6, 2e-6, rng)
    expected = twin.random(n.shape) < click_probability(n, 0.64, 0.3)
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
    exc = sample_write(mu, SourceModel.QUANTUM_TMS, rng, size=draws)
    clicked, _ = detect_batch(exc.n_stokes, eta, 0.0, 0.0, 1e-6, rng)
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

