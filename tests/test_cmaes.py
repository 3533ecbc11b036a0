import numpy as np
import pytest

from frmdn import cmaes as cm


def sphere(x):
    return float(np.dot(x, x))


def rosenbrock(x):
    return float(
        (100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2).sum()
    )


def test_tiny_sigma_keeps_candidates_at_mean():
    state = cm.cmaes_init(np.array([2.0, -1.0, 0.5]), 1.0, lam=8)
    state.sigma = 1e-300
    cands = cm.cmaes_ask(state, np.random.default_rng(0))
    np.testing.assert_allclose(cands, np.tile(state.mean, (8, 1)), atol=1e-290)


def test_ask_sampling_covariance_is_identity():
    state = cm.cmaes_init(np.zeros(4), 1.0, lam=10)
    rng = np.random.default_rng(1)
    draws = np.concatenate([cm.cmaes_ask(state, rng) for _ in range(10_000)])
    got = np.cov(draws.T)
    np.testing.assert_allclose(got, np.eye(4), atol=0.05)
    np.testing.assert_allclose(draws.mean(axis=0), np.zeros(4), atol=0.02)


def test_ask_is_deterministic_per_seed():
    state = cm.cmaes_init(np.zeros(5), 0.7, lam=6)
    a = cm.cmaes_ask(state, np.random.default_rng(42))
    b = cm.cmaes_ask(state, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_sphere_converges_within_budget():
    best_x, best_f, evals = cm.cmaes_minimize(
        sphere, 0.5 * np.ones(10), 0.5, lam=16, max_evals=10_000,
        target=1e-6, seed=0,
    )
    assert best_f < 1e-6
    assert evals <= 10_000


def test_rosenbrock_reaches_unit_level():
    best_x, best_f, evals = cm.cmaes_minimize(
        rosenbrock, np.zeros(5), 0.3, max_evals=50_000, target=1.0, seed=1,
    )
    assert best_f < 1.0
    assert evals <= 50_000


def test_rank_invariance_under_affine_fitness():
    def trajectories(transform):
        state = cm.cmaes_init(np.ones(6), 0.5, lam=12)
        rng = np.random.default_rng(7)
        means = []
        for _ in range(40):
            cands = cm.cmaes_ask(state, rng)
            fits = np.array([transform(sphere(c)) for c in cands])
            cm.cmaes_tell(state, cands, fits)
            means.append(state.mean.copy())
        return np.array(means)

    plain = trajectories(lambda f: f)
    affine = trajectories(lambda f: 2.0 * f + 3.0)
    np.testing.assert_array_equal(plain, affine)


def test_equal_fitnesses_freeze_mean_and_update_sigma_by_paths():
    state = cm.cmaes_init(np.ones(4), 0.5, lam=8)
    rng = np.random.default_rng(3)
    # one informative generation to give the paths some length
    cands = cm.cmaes_ask(state, rng)
    cm.cmaes_tell(state, cands, np.array([sphere(c) for c in cands]))
    mean = state.mean.copy()
    cov = state.cov.copy()
    sigma = state.sigma
    p_sigma = state.p_sigma.copy()

    cands = cm.cmaes_ask(state, rng)
    cm.cmaes_tell(state, cands, np.zeros(8))
    np.testing.assert_array_equal(state.mean, mean)
    np.testing.assert_array_equal(state.cov, cov)
    np.testing.assert_allclose(state.p_sigma, (1 - state.c_sigma) * p_sigma)
    assert state.sigma != sigma


def test_covariance_stays_symmetric_positive_definite():
    state = cm.cmaes_init(np.ones(5), 0.4, lam=8)
    rng = np.random.default_rng(4)
    for _ in range(60):
        cands = cm.cmaes_ask(state, rng)
        fits = np.array([rosenbrock(c) for c in cands])
        cm.cmaes_tell(state, cands, fits)
        np.testing.assert_array_equal(state.cov, state.cov.T)
        assert np.linalg.eigvalsh(state.cov).min() > 0.0


def test_tell_validates_inputs():
    state = cm.cmaes_init(np.zeros(3), 0.5, lam=6)
    cands = cm.cmaes_ask(state, np.random.default_rng(5))
    with pytest.raises(ValueError, match="finite"):
        cm.cmaes_tell(state, cands, np.array([1.0, np.nan, 0, 0, 0, 0]))
    with pytest.raises(ValueError, match="candidates"):
        cm.cmaes_tell(state, cands[:4], np.zeros(4))


def test_init_validates_arguments():
    with pytest.raises(ValueError, match="sigma0"):
        cm.cmaes_init(np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="population"):
        cm.cmaes_init(np.zeros(3), 1.0, lam=1)


@pytest.mark.parametrize("sigma0", [np.nan, np.inf, 0.0, -1.0])
def test_init_rejects_a_step_size_that_is_not_finite_and_positive(sigma0):
    # NaN fails every comparison, so a bare `sigma0 <= 0` let it (and inf)
    # through, and every candidate asked for afterwards was non-finite
    with pytest.raises(ValueError, match="sigma0 must be positive and finite"):
        cm.cmaes_init(np.zeros(3), sigma0, lam=4)
