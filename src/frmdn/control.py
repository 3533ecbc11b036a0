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
from .cmaes import cmaes_minimize
from .datasets import gen_control_task
from .model import (FrmdnModel, Generator, ModelConfig, TrainSettings,
                    build_model, generate_step, train_model)


@dataclass
class LinearController:
    w: np.ndarray       # (action_dim, obs_dim + hidden)
    b: np.ndarray       # (action_dim,)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)

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
    zh = np.concatenate([z, h])
    if zh.shape[0] != ctrl.w.shape[1]:
        raise ValueError(
            f"controller expects input of size {ctrl.w.shape[1]}, "
            f"got {len(z)} + {len(h)}"
        )
    return np.tanh(ctrl.w @ zh + ctrl.b)


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
        dim = self.model.config.dim
        if self.y0 is None:
            self.y0 = np.zeros(dim)
        self.y0 = np.asarray(self.y0, dtype=np.float64)
        if self.model.config.action_dim < 1:
            raise ValueError("dream environment needs a model with actions")
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")
        if self.y0.shape != (dim,):
            raise ValueError(f"y0 must have shape ({dim},), "
                             f"got {self.y0.shape}")


def dream_rollout(env, ctrl, rng):
    """Cumulative reward of one dreamed episode under the controller."""
    y = env.y0.copy()
    state = rc.initial_state(1, env.model.config.hidden)
    gen = Generator(env.model)
    total = 0.0
    for t in range(env.horizon):
        action = controller_act(y, state[0][0], ctrl)
        x = np.concatenate([y, action])
        y, state = generate_step(gen, x, state, rng)
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
    trajectories from dominating a population average.

    A step's target depends on nothing but its index, so each is built
    the first time its step is asked for and kept in this reward's own
    table; `reward.target(step)` returns it.  center is copied, so a later
    write to the caller's array moves no target."""
    center = np.array(center, dtype=np.float64)
    dim = center.shape[0]
    targets = {}

    def target(step):
        goal = targets.get(step)
        if goal is None:
            angle = 2.0 * math.pi * (step + 1) / period
            goal = center.copy()
            goal[0] += radius * math.cos(angle)
            if dim > 1:
                goal[1] += radius * math.sin(angle)
            targets[step] = goal
        return goal

    def reward(step, y, action):
        gap = y - target(step)
        return -min(float(np.add.reduce(gap * gap)), cap)

    reward.target = target
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
    """CMA-ES over dream fitness, `generations` populations of `popsize`.

    Returns (controller, history) where history rows carry the generation's
    mean and best population reward.
    """
    if generations < 1:
        raise ValueError(f"generations must be at least 1, got {generations}")
    episode_seeds = [int(s) for s in np.random.default_rng([seed, 2]).integers(
        0, 2**31, episodes_per_candidate)]
    history = []

    def record(state, candidates, fitness):
        rewards = -fitness
        history.append({
            "generation": len(history),
            "mean_reward": float(rewards.mean()),
            "best_reward": float(rewards.max()),
        })

    best_vec, _, _ = cmaes_minimize(
        lambda v: evaluate_population(task.env, v[None],
                                      episodes_per_candidate, episode_seeds)[0],
        np.zeros(task.n_params), sigma0, lam=popsize,
        max_evals=generations * popsize, seed=[seed, 1], callback=record)
    ctrl = LinearController.from_vector(best_vec, task.obs_dim, task.hidden,
                                        task.action_dim)
    return ctrl, history
