"""Source sampling laws against their analytic counterparts."""

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from pairsim import SourceModel, decohere_memory, joint_pmf, retrieve, sample_write
from pairsim.config import NO_DECAY

Q = SourceModel.QUANTUM_TMS
C = SourceModel.CLASSICAL_CORRELATED


def geometric_pmf(p, n):
    return p ** n / (1.0 + p) ** (n + 1)


def test_vacuum_source_always_empty(rng):
    exc = sample_write(0.0, Q, rng, size=1000)
    assert not exc.n_stokes.any() and not exc.n_memory.any()
    exc = sample_write(0.0, C, rng, size=1000)
    assert not exc.n_stokes.any() and not exc.n_memory.any()


def test_negative_p_rejected(rng):
    with pytest.raises(ValueError):
        sample_write(-0.1, Q, rng)
    with pytest.raises(ValueError):
        joint_pmf(-0.1, Q, 0, 0)


def test_reference_mean_excitation(rng):
    # Reference operating point: mean write excitation 0.14 per pulse.
    p, n = 0.14, 10 ** 6
    exc = sample_write(p, Q, rng, size=n)
    tol = 3.0 * math.sqrt(p * (1.0 + p) / n)
    assert abs(exc.n_stokes.mean() - p) < tol


def test_quantum_single_excitation_frequency(rng):
    # P(1) = p/(1+p)**2 = 0.2/1.44, cross-checked by normalizing the
    # truncated law to n_max = 50.
    p, n = 0.2, 10 ** 6
    probs = [geometric_pmf(p, k) for k in range(51)]
    assert abs(sum(probs) - 1.0) < 1e-12
    expected = probs[1] / sum(probs)
    assert abs(expected - 0.2 / 1.44) < 1e-12
    exc = sample_write(p, Q, rng, size=n)
    observed = np.mean(exc.n_stokes == 1)
    assert abs(observed - expected) < 4.0 * math.sqrt(expected * (1 - expected) / n)


def test_quantum_streams_perfectly_correlated(rng):
    exc = sample_write(0.3, Q, rng, size=10 ** 5)
    assert np.array_equal(exc.n_stokes, exc.n_memory)
    corr = np.corrcoef(exc.n_stokes, exc.n_memory)[0, 1]
    assert corr == 1.0


def test_joint_pmf_quantum_off_diagonal_zero():
    assert joint_pmf(0.7, Q, 1, 2) == 0.0


def test_joint_pmf_quantum_vacuum_term():
    assert abs(joint_pmf(0.2, Q, 0, 0) - 1.0 / 1.2) < 1e-15


def test_joint_pmf_classical_vacuum_term():
    # Exponential mixture of Poisson pairs: P(0,0) = 1/(1+2p).
    assert abs(joint_pmf(0.2, C, 0, 0) - 1.0 / 1.4) < 1e-15


def test_joint_pmf_classical_one_one():
    # Closed form of the mixture integral: P(1,1) = 2p**2/(1+2p)**3.
    p = 0.2
    expected = 2 * p ** 2 / (1 + 2 * p) ** 3
    assert abs(joint_pmf(p, C, 1, 1) - expected) < 1e-15


@pytest.mark.parametrize("model", [Q, C])
@pytest.mark.parametrize("p", [0.05, 0.14, 0.2, 0.5])
def test_joint_pmf_normalizes(model, p):
    n_max = 60
    total = sum(joint_pmf(p, model, i, j)
                for i in range(n_max + 1) for j in range(n_max + 1))
    assert abs(total - 1.0) < 1e-9


@pytest.mark.parametrize("model", [Q, C])
def test_sampler_matches_pmf_within_multinomial_error(model, rng):
    p, n = 0.3, 10 ** 6
    exc = sample_write(p, model, rng, size=n)
    for ns in range(3):
        for nm in range(3):
            prob = joint_pmf(p, model, ns, nm)
            observed = np.mean((exc.n_stokes == ns) & (exc.n_memory == nm))
            sigma = math.sqrt(max(prob * (1 - prob), 1e-12) / n)
            assert abs(observed - prob) < 4.0 * sigma, (ns, nm)


def test_classical_vacuum_probability_monte_carlo(rng):
    p, n = 0.2, 10 ** 7
    exc = sample_write(p, C, rng, size=n)
    observed = np.mean((exc.n_stokes == 0) & (exc.n_memory == 0))
    expected = 1.0 / (1.0 + 2 * p)
    assert abs(observed - expected) < 4.0 * math.sqrt(expected * (1 - expected) / n)


def test_decohere_zero_delay_is_identity(rng):
    n = rng.integers(0, 5, size=1000)
    assert np.array_equal(decohere_memory(n, 0.0, 1e-6, 0.5, rng), n)


def test_decohere_no_decay_lifetime_is_identity(rng):
    n = rng.integers(0, 5, size=1000)
    assert np.array_equal(decohere_memory(n, 2e-6, NO_DECAY, 0.5, rng), n)


def test_decohere_survival_probability(rng):
    # delay == lifetime: survival exp(-1), checked over 1e6 Bernoulli draws.
    draws = 10 ** 6
    ones = np.ones(draws, dtype=np.int64)
    kept = decohere_memory(ones, 2e-6, 2e-6, 0.0, rng)
    expected = math.exp(-1.0)
    sigma = math.sqrt(expected * (1 - expected) / draws)
    assert abs(kept.mean() - expected) < 3.0 * sigma


def test_decohere_diffusion_mean(rng):
    draws = 10 ** 6
    zeros = np.zeros(draws, dtype=np.int64)
    survival = math.exp(-1.0)
    injected = decohere_memory(zeros, 1e-6, 1e-6, 0.8, rng)
    expected = 0.8 * (1.0 - survival)
    assert abs(injected.mean() - expected) < 3.0 * math.sqrt(expected / draws)


def test_decohere_validates_arguments(rng):
    with pytest.raises(ValueError):
        decohere_memory(1, -1e-9, 1e-6, 0.0, rng)
    with pytest.raises(ValueError):
        decohere_memory(1, 1e-9, 0.0, 0.0, rng)
    with pytest.raises(ValueError):
        decohere_memory(1, 1e-9, 1e-6, -0.1, rng)


def test_retrieve_unit_efficiency_is_identity(rng):
    n = rng.integers(0, 6, size=1000)
    assert np.array_equal(retrieve(n, 1.0, rng), n)


def test_retrieve_single_excitation_probability(rng):
    draws = 10 ** 6
    out = retrieve(np.ones(draws, dtype=np.int64), 0.32, rng)
    sigma = math.sqrt(0.32 * 0.68 / draws)
    assert abs(out.mean() - 0.32) < 4.0 * sigma


def test_retrieve_two_excitations_half_efficiency(rng):
    # Brute force over the four equally likely outcomes: P(exactly 1) = 1/2.
    outcomes = [(a, b) for a in (0, 1) for b in (0, 1)]
    expected = sum(1 for a, b in outcomes if a + b == 1) / len(outcomes)
    assert expected == 0.5
    draws = 10 ** 6
    out = retrieve(np.full(draws, 2, dtype=np.int64), 0.5, rng)
    observed = np.mean(out == 1)
    assert abs(observed - expected) < 4.0 * math.sqrt(0.25 / draws)


def test_retrieve_validates_efficiency(rng):
    with pytest.raises(ValueError):
        retrieve(1, 1.2, rng)


def test_decohere_then_retrieve_composes_to_single_thinning(rng):
    # Survival s then retrieval eta must equal one thinning with s*eta.
    draws = 10 ** 6
    s, eta = math.exp(-0.5), 0.6
    start = np.full(draws, 3, dtype=np.int64)
    kept = decohere_memory(start, 0.5e-6, 1e-6, 0.0, rng)
    composed = retrieve(kept, eta, rng)
    q = s * eta
    pmf = [math.comb(3, k) * q ** k * (1 - q) ** (3 - k) for k in range(4)]
    observed = np.bincount(composed, minlength=4)
    stat = chisquare(observed, np.asarray(pmf) * draws)
    assert stat.pvalue > 1e-6
