"""Source sampling laws against their analytic counterparts."""

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from pairsim.config import NO_DECAY
from pairsim.source import SourceModel, decohere_memory, retrieve, sample_write
from reference import joint_pmf

Q = SourceModel.QUANTUM_TMS
C = SourceModel.CLASSICAL_CORRELATED


def geometric_pmf(p, n):
    return p ** n / (1.0 + p) ** (n + 1)


def conditioned_pmf(p, model, n_s, n_m):
    """The source law that ``sample_write`` draws: ``joint_pmf`` conditioned
    on (n_s, n_m) != (0, 0)."""
    if n_s == n_m == 0:
        return 0.0
    return joint_pmf(p, model, n_s, n_m) / (1.0 - joint_pmf(p, model, 0, 0))


def test_vacuum_source_always_empty(rng):
    # At p == 0 every trial is empty, so no trial of the conditioned law exists.
    for model in (Q, C):
        n_stokes, n_memory = sample_write(0.0, model, rng, size=0)
        assert n_stokes.size == n_memory.size == 0
        assert n_stokes.dtype == n_memory.dtype == np.int64


@pytest.mark.parametrize("p", [0.14, 2.0])
@pytest.mark.parametrize("model", [Q, C], ids=lambda model: model.value)
def test_write_draws_no_empty_trial(model, p, rng):
    n_stokes, n_memory = sample_write(p, model, rng, size=10 ** 5)
    assert (n_stokes + n_memory).min() >= 1


def test_negative_p_rejected():
    with pytest.raises(ValueError):
        joint_pmf(-0.1, Q, 0, 0)


def test_reference_mean_excitation(rng):
    # Reference operating point: mean write excitation 0.14 per pulse.  The
    # conditioned quantum marginal is 1 + Geometric(mean p): mean 1 + p,
    # variance p(1 + p).
    p, n = 0.14, 10 ** 6
    n_stokes, _ = sample_write(p, Q, rng, size=n)
    tol = 3.0 * math.sqrt(p * (1.0 + p) / n)
    assert abs(n_stokes.mean() - (1.0 + p)) < tol


def test_quantum_single_excitation_frequency(rng):
    # P(1 | n >= 1) = P(1) / (1 - P(0)) = 1/(1+p) = 1/1.2, cross-checked by
    # normalizing the truncated law to n_max = 50.
    p, n = 0.2, 10 ** 6
    probs = [geometric_pmf(p, k) for k in range(51)]
    assert abs(sum(probs) - 1.0) < 1e-12
    expected = probs[1] / sum(probs[1:])
    assert abs(expected - 1.0 / 1.2) < 1e-12
    n_stokes, _ = sample_write(p, Q, rng, size=n)
    observed = np.mean(n_stokes == 1)
    assert abs(observed - expected) < 4.0 * math.sqrt(expected * (1 - expected) / n)


def test_quantum_streams_perfectly_correlated(rng):
    n_stokes, n_memory = sample_write(0.3, Q, rng, size=10 ** 5)
    assert np.array_equal(n_stokes, n_memory)
    corr = np.corrcoef(n_stokes, n_memory)[0, 1]
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
    n_stokes, n_memory = sample_write(p, model, rng, size=n)
    for ns in range(3):
        for nm in range(3):
            prob = conditioned_pmf(p, model, ns, nm)
            observed = np.mean((n_stokes == ns) & (n_memory == nm))
            sigma = math.sqrt(max(prob * (1 - prob), 1e-12) / n)
            assert abs(observed - prob) < 4.0 * sigma, (ns, nm)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.SFC64],
                         ids=["pcg64", "sfc64"])
@pytest.mark.parametrize("p", [0.01, 0.14, 2.0, 20.0])
def test_classical_write_matches_numpy(p, bit_generator):
    # numpy's numbers and stream position: a geometric total on {1, 2, ...}
    # split by Binomial(total, 1/2).
    size = 5000
    rng = np.random.Generator(bit_generator(12))
    twin = np.random.Generator(bit_generator(12))
    n_stokes, n_memory = sample_write(p, C, rng, size)
    total = twin.geometric(1.0 / (1.0 + 2.0 * p), size=size)
    expected = twin.binomial(total, 0.5)
    assert np.array_equal(n_stokes, expected)
    assert np.array_equal(n_memory, total - expected)
    np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)


def test_classical_vacuum_probability_monte_carlo(rng):
    # The conditioned total is 1 + the unconditioned geometric total, so the
    # unconditioned law's vacuum probability 1/(1+2p) is P(total == 1).
    p, n = 0.2, 10 ** 7
    n_stokes, n_memory = sample_write(p, C, rng, size=n)
    observed = np.mean(n_stokes + n_memory == 1)
    expected = 1.0 / (1.0 + 2 * p)
    assert abs(expected - conditioned_pmf(p, C, 1, 0) - conditioned_pmf(p, C, 0, 1)) < 1e-12
    assert abs(observed - expected) < 4.0 * math.sqrt(expected * (1 - expected) / n)


def memory_law(delay, lifetime, diffusion_in):
    """(survival, diffusion mean) that ``decohere_memory`` takes."""
    survival = math.exp(-delay / lifetime)
    return survival, diffusion_in * (1.0 - survival)


def test_decohere_zero_delay_is_identity(rng):
    n = rng.integers(0, 5, size=1000)
    assert np.array_equal(decohere_memory(n, *memory_law(0.0, 1e-6, 0.5), rng), n)


def test_decohere_no_decay_lifetime_is_identity(rng):
    n = rng.integers(0, 5, size=1000)
    assert np.array_equal(decohere_memory(n, *memory_law(2e-6, NO_DECAY, 0.5), rng), n)


def test_decohere_survival_probability(rng):
    # delay == lifetime: survival exp(-1), checked over 1e6 Bernoulli draws.
    draws = 10 ** 6
    ones = np.ones(draws, dtype=np.int64)
    kept = decohere_memory(ones, *memory_law(2e-6, 2e-6, 0.0), rng)
    expected = math.exp(-1.0)
    sigma = math.sqrt(expected * (1 - expected) / draws)
    assert abs(kept.mean() - expected) < 3.0 * sigma


def test_decohere_diffusion_mean(rng):
    draws = 10 ** 6
    zeros = np.zeros(draws, dtype=np.int64)
    survival = math.exp(-1.0)
    injected = decohere_memory(zeros, *memory_law(1e-6, 1e-6, 0.8), rng)
    expected = 0.8 * (1.0 - survival)
    assert abs(injected.mean() - expected) < 3.0 * math.sqrt(expected / draws)


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


COUNTS = {
    "empty": np.empty(0, dtype=np.int64),
    "mixed": np.array([0, 3, 0, 0, 1, 7, 0, 2], dtype=np.int64),
    "written": np.random.default_rng(5).geometric(1 / 1.14, size=8000) - 1,
    "large": np.random.default_rng(6).integers(0, 200, size=20000),
}


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.SFC64],
                         ids=["pcg64", "sfc64"])
@pytest.mark.parametrize("delay, diffusion", [(0.0, 0.0), (1e-7, 0.1), (2e-6, 0.1),
                                              (5e-6, 0.0), (2e-6, 20.0), (5.7e-7, 0.4)])
@pytest.mark.parametrize("counts", COUNTS)
def test_decohere_and_retrieve_match_numpy(counts, delay, diffusion, bit_generator):
    # numpy's numbers and stream position: survivors and retrieval drawn for
    # the nonzero entries, the diffused-in count for every entry.
    n = COUNTS[counts]
    rng = np.random.Generator(bit_generator(8))
    twin = np.random.Generator(bit_generator(8))
    stored = decohere_memory(n, *memory_law(delay, 1.14e-6, diffusion), rng)
    read = retrieve(stored, 0.32, rng)
    survival = math.exp(-delay / 1.14e-6)
    survivors = np.zeros_like(n)
    survivors[n != 0] = twin.binomial(n[n != 0], survival)
    expected = survivors + twin.poisson(diffusion * (1.0 - survival), size=n.shape)
    assert np.array_equal(stored, expected)
    expected_read = np.zeros_like(expected)
    expected_read[expected != 0] = twin.binomial(expected[expected != 0], 0.32)
    assert np.array_equal(read, expected_read)
    np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)


def test_decohere_then_retrieve_composes_to_single_thinning(rng):
    # Survival s then retrieval eta must equal one thinning with s*eta.
    draws = 10 ** 6
    s, eta = math.exp(-0.5), 0.6
    start = np.full(draws, 3, dtype=np.int64)
    kept = decohere_memory(start, *memory_law(0.5e-6, 1e-6, 0.0), rng)
    composed = retrieve(kept, eta, rng)
    q = s * eta
    pmf = [math.comb(3, k) * q ** k * (1 - q) ** (3 - k) for k in range(4)]
    observed = np.bincount(composed, minlength=4)
    stat = chisquare(observed, np.asarray(pmf) * draws)
    assert stat.pvalue > 1e-6
