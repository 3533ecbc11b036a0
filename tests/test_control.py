import numpy as np
import pytest

from frmdn import control as ct
from frmdn import mixtures as mx
from frmdn import model as md


def small_task(seed=0):
    return ct.build_dream_task(seed=seed, hidden=4, horizon=12,
                               train_epochs=1)


def test_controller_vector_round_trip():
    rng = np.random.default_rng(0)
    vec = rng.normal(size=2 * (3 + 5 + 1))
    ctrl = ct.LinearController.from_vector(vec, 3, 5, 2)
    assert ctrl.n_params == vec.size
    np.testing.assert_array_equal(ctrl.to_vector(), vec)
    with pytest.raises(ValueError, match="entries"):
        ct.LinearController.from_vector(vec[:-1], 3, 5, 2)


def test_zero_controller_outputs_zero_action():
    ctrl = ct.LinearController(np.zeros((2, 8)), np.zeros(2))
    action = ct.controller_act(np.ones(3), np.ones(5), ctrl)
    np.testing.assert_array_equal(action, np.zeros(2))


def test_large_bias_saturates_toward_one():
    # tanh(15) is the largest bias that still sits strictly below 1 in
    # float64; beyond ~19 it rounds to exactly 1
    ctrl = ct.LinearController(np.zeros((1, 4)), np.array([15.0]))
    action = ct.controller_act(np.zeros(2), np.zeros(2), ctrl)
    assert action[0] == pytest.approx(1.0, abs=1e-12)
    assert action[0] < 1.0


def test_controller_act_is_pure():
    rng = np.random.default_rng(1)
    ctrl = ct.LinearController(rng.normal(size=(2, 7)), rng.normal(size=2))
    z, h = rng.normal(size=3), rng.normal(size=4)
    first = ct.controller_act(z, h, ctrl)
    second = ct.controller_act(z, h, ctrl)
    np.testing.assert_array_equal(first, second)


def test_controller_act_checks_dims():
    ctrl = ct.LinearController(np.zeros((2, 8)), np.zeros(2))
    with pytest.raises(ValueError, match="size 8"):
        ct.controller_act(np.ones(3), np.ones(6), ctrl)


def test_dream_rollout_zero_reward_env():
    task = small_task()
    task.env.reward_fn = lambda step, y, action: 0.0
    ctrl = ct.LinearController(np.zeros((2, 6)), np.zeros(2))
    total = ct.dream_rollout(task.env, ctrl, np.random.default_rng(2))
    assert total == 0.0


def test_dream_rollout_reproducible_per_seed():
    task = small_task()
    rng = np.random.default_rng(3)
    ctrl = ct.LinearController(rng.normal(size=(2, 6)) * 0.2,
                               rng.normal(size=2) * 0.2)
    a = ct.dream_rollout(task.env, ctrl, np.random.default_rng(9))
    b = ct.dream_rollout(task.env, ctrl, np.random.default_rng(9))
    assert a == b


def test_dream_rollout_reward_independent_of_uniform_draw(monkeypatch):
    # three components, so the drawn double picks among them
    config = md.ModelConfig(dim=2, action_dim=2, components=3, hidden=4,
                            flow_hidden=8)
    env = ct.DreamEnv(md.build_model(config, seed=4),
                      ct.tracking_reward(np.array([0.5, -0.5])), 24)
    rng = np.random.default_rng(3)
    ctrl = ct.LinearController(rng.normal(size=(2, 6)) * 0.2,
                               rng.normal(size=2) * 0.2)
    drawn = ct.dream_rollout(env, ctrl, np.random.default_rng(9))

    def pick_by_uniform(alpha, rng):
        cum = alpha.cumsum()
        k = int(cum.searchsorted(rng.uniform(), side="left"))
        return min(k, alpha.shape[0] - 1)

    monkeypatch.setattr(mx, "pick_component", pick_by_uniform)
    assert ct.dream_rollout(env, ctrl, np.random.default_rng(9)) == drawn


def test_dream_env_requires_action_model():
    model = md.build_model(md.ModelConfig(dim=2, hidden=4, flow_depth=1,
                                          flow_hidden=8), seed=0)
    with pytest.raises(ValueError, match="actions"):
        ct.DreamEnv(model, lambda *a: 0.0, horizon=5)


def test_evaluate_population_zero_env_and_validation():
    task = small_task()
    task.env.reward_fn = lambda step, y, action: 0.0
    cands = np.zeros((3, task.n_params))
    fits = ct.evaluate_population(task.env, cands, 1, [5])
    np.testing.assert_array_equal(fits, np.zeros(3))
    with pytest.raises(ValueError, match="episodes_per_candidate"):
        ct.evaluate_population(task.env, cands, 0, [5])
    with pytest.raises(ValueError, match="seeds"):
        ct.evaluate_population(task.env, cands, 2, [5])


def test_evaluate_population_is_order_independent():
    task = small_task()
    rng = np.random.default_rng(4)
    cands = rng.normal(size=(5, task.n_params)) * 0.3
    fits = ct.evaluate_population(task.env, cands, 2, [11, 12])
    perm = rng.permutation(5)
    fits_perm = ct.evaluate_population(task.env, cands[perm], 2, [11, 12])
    np.testing.assert_array_equal(fits_perm, fits[perm])


def test_evaluate_population_variance_shrinks_with_episodes():
    # estimate the fitness of one controller under disjoint seed groups;
    # doubling the episodes per estimate roughly halves the variance
    task = ct.build_dream_task(seed=5, hidden=4, horizon=16, train_epochs=1)
    rng = np.random.default_rng(6)
    cand = (rng.normal(size=(1, task.n_params)) * 0.3)
    seeds = list(range(200))

    def estimates(m):
        groups = [seeds[i * m:(i + 1) * m] for i in range(40 // m)]
        return np.array([
            ct.evaluate_population(task.env, cand, m, g)[0] for g in groups
        ])

    var1 = estimates(1).var(ddof=1)
    var2 = estimates(2).var(ddof=1)
    ratio = var1 / var2
    assert 1.3 < ratio < 3.5


def test_train_controller_improves_reward():
    task = ct.build_dream_task(seed=7, hidden=4, horizon=24, train_epochs=2)
    ctrl, history = ct.train_controller(task, generations=12, popsize=8,
                                        sigma0=0.5, seed=7,
                                        episodes_per_candidate=1)
    assert len(history) == 12
    first = np.mean([h["mean_reward"] for h in history[:3]])
    last = np.mean([h["mean_reward"] for h in history[-3:]])
    assert last > first


def test_tracking_reward_cap_and_center():
    reward = ct.tracking_reward(np.array([1.0, 0.0]), radius=0.0, cap=4.0)
    assert reward(0, np.array([1.0, 0.0]), None) == pytest.approx(0.0)
    assert reward(0, np.array([100.0, 0.0]), None) == -4.0


def test_train_controller_rejects_zero_generations():
    task = ct.DreamTask(env=None, obs_dim=2, hidden=4, action_dim=2)
    with pytest.raises(ValueError, match="generations"):
        ct.train_controller(task, generations=0)
