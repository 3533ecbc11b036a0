"""Linear controller trained with CMA-ES inside model-generated rollouts.

The controller maps the concatenated current observation and recurrent
hidden state through one linear layer squashed by tanh.  Its fitness is
the negative average cumulative reward over seeded closed-loop rollouts of
the learned sequence model ("dreams"); the real dynamics never run during
controller training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import recurrent as rc
from .cmaes import cmaes_ask, cmaes_init, cmaes_tell
from .datasets import gen_control_task
from .model import (FrmdnModel, ModelConfig, TrainSettings, build_model,
                    generate_step, train_model)


@dataclass
class LinearController:
    w: np.ndarray       # (action_dim, obs_dim + hidden)
    b: np.ndarray       # (action_dim,)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)

    @property
    def n_params(self):
        return self.w.size + self.b.size

    def to_vector(self):
        return np.concatenate([self.w.ravel(), self.b])

    @classmethod
    def from_vector(cls, vec, obs_dim, hidden, action_dim):
        vec = np.asarray(vec, dtype=np.float64).ravel()
        expected = action_dim * (obs_dim + hidden + 1)
        if vec.shape[0] != expected:
            raise ValueError(
                f"controller vector must have {expected} entries, "
                f"got {vec.shape[0]}"
            )
        cut = action_dim * (obs_dim + hidden)
        w = vec[:cut].reshape(action_dim, obs_dim + hidden)
        return cls(w, vec[cut:].copy())


def controller_act(z, h, ctrl):
    """tanh(W (z ++ h) + b); every action component lies in (-1, 1)."""
    z = np.asarray(z, dtype=np.float64).ravel()
    h = np.asarray(h, dtype=np.float64).ravel()
    if z.shape[0] + h.shape[0] != ctrl.w.shape[1]:
        raise ValueError(
            f"controller expects input of size {ctrl.w.shape[1]}, "
            f"got {z.shape[0]} + {h.shape[0]}"
        )
    return np.tanh(ctrl.w @ np.concatenate([z, h]) + ctrl.b)


@dataclass
class DreamEnv:
    """Closed-loop evaluation environment built from a trained model.

    reward_fn(step, y, action) scores the post-transition observation;
    rollouts are deterministic given the generator passed in.
    """

    model: FrmdnModel
    reward_fn: callable
    horizon: int
    y0: np.ndarray = None

    def __post_init__(self):
        if self.y0 is None:
            self.y0 = np.zeros(self.model.config.dim)
        self.y0 = np.asarray(self.y0, dtype=np.float64)
        if self.model.config.action_dim < 1:
            raise ValueError("dream environment needs a model with actions")


def dream_rollout(env, ctrl, rng):
    """Cumulative reward of one dreamed episode under the controller."""
    y = env.y0.copy()
    state = rc.initial_state(1, env.model.config.hidden)
    total = 0.0
    for t in range(env.horizon):
        action = controller_act(y, state[0][0], ctrl)
        x = np.concatenate([y, action])
        y, state = generate_step(env.model, x, state, rng)
        total += float(env.reward_fn(t, y, action))
    return total


def evaluate_population(env, candidates, episodes_per_candidate, rng_seeds):
    """Fitness vector for CMA-ES: negative mean cumulative reward over
    `episodes_per_candidate` seeded episodes.

    Every candidate sees the same episode seeds (common random numbers), and
    evaluations are independent across candidates.
    """
    if episodes_per_candidate < 1:
        raise ValueError("episodes_per_candidate must be at least 1")
    seeds = list(rng_seeds)[:episodes_per_candidate]
    if len(seeds) < episodes_per_candidate:
        raise ValueError("not enough seeds for the requested episodes")
    cfg = env.model.config
    fitness = np.empty(len(candidates))
    for i, vec in enumerate(candidates):
        ctrl = LinearController.from_vector(vec, cfg.dim, cfg.hidden,
                                            cfg.action_dim)
        rewards = [
            dream_rollout(env, ctrl, np.random.default_rng(seed))
            for seed in seeds
        ]
        fitness[i] = -float(np.mean(rewards))
    return fitness


def tracking_reward(center, radius=0.15, period=80.0, cap=25.0):
    """Negative squared distance to a target circling a fixed off-center
    point, floored at -cap per step.

    The offset dominates the objective (the uncontrolled process decays to
    the origin), so reward improves steeply as the controller learns to
    hold the observation near the orbit; the cap keeps runaway dreamed
    trajectories from dominating a population average."""
    center = np.asarray(center, dtype=np.float64)
    dim = center.shape[0]

    def reward(step, y, action):
        angle = 2.0 * math.pi * (step + 1) / period
        target = center.copy()
        target[0] += radius * math.cos(angle)
        if dim > 1:
            target[1] += radius * math.sin(angle)
        return -min(float(((y - target) ** 2).sum()), cap)

    return reward


@dataclass
class DreamTask:
    env: DreamEnv
    obs_dim: int
    hidden: int
    action_dim: int

    @property
    def n_params(self):
        return self.action_dim * (self.obs_dim + self.hidden + 1)


def build_dream_task(seed=0, dim=2, action_dim=2, hidden=16, horizon=64,
                     train_epochs=12):
    """Train a small world model on random-policy control data and wrap it
    in a moving-target dream environment.

    The target orbits a point placed inside the dynamics' steady-state
    reachable set (computed from the generator's known (A, B)), so a
    competent controller can actually hold the observation on the orbit.
    """
    data = gen_control_task(32, 256, dim, action_dim, seed=seed)
    config = ModelConfig(dim=dim, action_dim=action_dim, components=1,
                         hidden=hidden, flow_depth=1, flow_hidden=16)
    model = build_model(config, seed=seed)
    settings = TrainSettings(epochs=train_epochs, lr=3e-3, optimizer="adam",
                             batch_size=32, window=32, seed=seed)
    train_model(model, data, settings)
    a_mat, b_mat = data.dynamics
    reach = np.linalg.solve(np.eye(dim) - a_mat, b_mat @ np.ones(action_dim))
    center = 0.7 * reach
    env = DreamEnv(model, tracking_reward(center), horizon)
    return DreamTask(env, dim, hidden, action_dim)


def train_controller(task, generations, popsize=16, sigma0=0.5, seed=0,
                     episodes_per_candidate=1):
    """CMA-ES loop over dream fitness.

    Returns (controller, history) where history rows carry the generation's
    mean and best population reward.
    """
    if generations < 1:
        raise ValueError(f"generations must be at least 1, got {generations}")
    state = cmaes_init(np.zeros(task.n_params), sigma0, lam=popsize)
    ask_rng = np.random.default_rng([seed, 1])
    episode_seeds = [int(s) for s in np.random.default_rng([seed, 2]).integers(
        0, 2**31, episodes_per_candidate)]
    history = []
    best_vec = state.mean.copy()
    best_reward = -math.inf
    for gen in range(generations):
        candidates = cmaes_ask(state, ask_rng)
        fitness = evaluate_population(task.env, candidates,
                                      episodes_per_candidate, episode_seeds)
        cmaes_tell(state, candidates, fitness)
        rewards = -fitness
        gen_best = int(np.argmax(rewards))
        if rewards[gen_best] > best_reward:
            best_reward = float(rewards[gen_best])
            best_vec = candidates[gen_best].copy()
        history.append({
            "generation": gen,
            "mean_reward": float(rewards.mean()),
            "best_reward": float(rewards.max()),
        })
    ctrl = LinearController.from_vector(best_vec, task.obs_dim, task.hidden,
                                        task.action_dim)
    return ctrl, history
