"""Covariance matrix adaptation evolution strategy, (mu/mu_w, lambda) form.

Minimizes a black-box fitness through ask/tell: `cmaes_ask` draws a
population from N(mean, sigma^2 C), `cmaes_tell` recombines the best
candidates by rank, cumulates the two evolution paths, and updates C with
the rank-one and rank-mu terms.  Only fitness ranks enter the update, so
any strictly increasing transform of the fitness leaves the trajectory
unchanged.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

EIGEN_FLOOR = 1e-14


@dataclass
class CmaesState:
    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    p_sigma: np.ndarray
    p_c: np.ndarray
    weights: np.ndarray
    mu: int
    mu_eff: float
    c_sigma: float
    d_sigma: float
    c_c: float
    c1: float
    c_mu: float
    chi_n: float
    lam: int
    generation: int = 0
    eig_basis: np.ndarray = field(default=None, repr=False)
    eig_scale: np.ndarray = field(default=None, repr=False)

    @property
    def n(self):
        return self.mean.shape[0]


def cmaes_init(x0, sigma0, lam=None):
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    n = x0.shape[0]
    if not (math.isfinite(sigma0) and sigma0 > 0.0):
        raise ValueError(f"sigma0 must be positive and finite, got {sigma0}")
    if lam is None:
        lam = 4 + int(3 * math.log(n))
    if lam < 2:
        raise ValueError("population size must be at least 2")
    mu = lam // 2
    raw = np.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / float((weights**2).sum())
    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c1,
               2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))
    return CmaesState(
        mean=x0.copy(), sigma=float(sigma0), cov=np.eye(n),
        p_sigma=np.zeros(n), p_c=np.zeros(n), weights=weights, mu=mu,
        mu_eff=mu_eff, c_sigma=c_sigma, d_sigma=d_sigma, c_c=c_c, c1=c1,
        c_mu=c_mu, chi_n=chi_n, lam=lam,
        eig_basis=np.eye(n), eig_scale=np.ones(n),
    )


def cmaes_ask(state, rng):
    """Candidate matrix (lam, n): mean + sigma * C^{1/2} z."""
    z = rng.standard_normal((state.lam, state.n))
    y = z @ (state.eig_basis * state.eig_scale).T
    return state.mean + state.sigma * y


def cmaes_tell(state, candidates, fitnesses):
    """Rank-based update; mutates and returns the state."""
    candidates = np.asarray(candidates, dtype=np.float64)
    fitnesses = np.asarray(fitnesses, dtype=np.float64).ravel()
    if candidates.shape != (state.lam, state.n):
        raise ValueError(
            f"expected {state.lam} candidates of dimension {state.n}, "
            f"got shape {candidates.shape}"
        )
    if fitnesses.shape[0] != state.lam:
        raise ValueError("one fitness per candidate required")
    if not np.all(np.isfinite(fitnesses)):
        raise ValueError("fitnesses must be finite")

    state.generation += 1
    if fitnesses.min() == fitnesses.max():
        # no selection information: freeze mean and covariance, let the
        # paths decay and sigma react to them alone
        state.p_sigma = (1.0 - state.c_sigma) * state.p_sigma
        state.p_c = (1.0 - state.c_c) * state.p_c
        norm = float(np.linalg.norm(state.p_sigma))
        state.sigma *= math.exp(
            (state.c_sigma / state.d_sigma) * (norm / state.chi_n - 1.0)
        )
        return state

    order = np.argsort(fitnesses, kind="stable")
    best = candidates[order[: state.mu]]
    y_sel = (best - state.mean) / state.sigma
    y_w = state.weights @ y_sel
    state.mean = state.mean + state.sigma * y_w

    inv_sqrt = state.eig_basis @ (
        (state.eig_basis / state.eig_scale).T
    )                     # C^{-1/2} = B diag(1/D) B^T
    state.p_sigma = (
        (1.0 - state.c_sigma) * state.p_sigma
        + math.sqrt(state.c_sigma * (2.0 - state.c_sigma) * state.mu_eff)
        * (inv_sqrt @ y_w)
    )
    ps_norm = float(np.linalg.norm(state.p_sigma))
    hsig = float(
        ps_norm
        / math.sqrt(1.0 - (1.0 - state.c_sigma) ** (2.0 * state.generation))
        < (1.4 + 2.0 / (state.n + 1.0)) * state.chi_n
    )
    state.p_c = (
        (1.0 - state.c_c) * state.p_c
        + hsig * math.sqrt(state.c_c * (2.0 - state.c_c) * state.mu_eff) * y_w
    )

    rank_one = np.outer(state.p_c, state.p_c)
    rank_mu = (state.weights[:, None] * y_sel).T @ y_sel
    state.cov = (
        (1.0 - state.c1 - state.c_mu) * state.cov
        + state.c1 * (rank_one
                      + (1.0 - hsig) * state.c_c * (2.0 - state.c_c) * state.cov)
        + state.c_mu * rank_mu
    )
    state.sigma *= math.exp(
        (state.c_sigma / state.d_sigma) * (ps_norm / state.chi_n - 1.0)
    )
    _refresh_eigensystem(state)
    return state


def _refresh_eigensystem(state):
    state.cov = (state.cov + state.cov.T) / 2.0
    vals, basis = np.linalg.eigh(state.cov)
    if vals.min() < EIGEN_FLOOR:
        warnings.warn("covariance eigenvalue floored", RuntimeWarning,
                      stacklevel=3)
        vals = np.maximum(vals, EIGEN_FLOOR)
        state.cov = (basis * vals) @ basis.T
    state.eig_basis = basis
    state.eig_scale = np.sqrt(vals)


def cmaes_minimize(fn, x0, sigma0, lam=None, max_evals=10_000, target=None,
                   seed=0, callback=None):
    """The ask/evaluate/tell loop, one fitness call per candidate, until
    `max_evals` evaluations or a best fitness below `target`; `callback`
    sees each told generation.  Returns (best_x, best_f, evaluations)."""
    state = cmaes_init(x0, sigma0, lam)
    rng = np.random.default_rng(seed)
    best_x = state.mean.copy()
    best_f = math.inf
    evals = 0
    while evals < max_evals:
        candidates = cmaes_ask(state, rng)
        fitnesses = np.array([fn(c) for c in candidates])
        evals += state.lam
        i = int(np.argmin(fitnesses))
        if fitnesses[i] < best_f:
            best_f = float(fitnesses[i])
            best_x = candidates[i].copy()
        cmaes_tell(state, candidates, fitnesses)
        if callback is not None:
            callback(state, candidates, fitnesses)
        if target is not None and best_f < target:
            break
    return best_x, best_f, evals
