"""Point densities of one mixture, the oracle the model's densities are
checked against: a mixture given by its own parameters rather than by head
output rows, evaluated at one point or a batch of rows.

Each wraps `mixtures.component_log_densities`, where every family's log
density is written, so no second density formula lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from frmdn.mixtures import STRUCTURES, _lse_rows, component_log_densities


class DegenerateMatrixError(ValueError):
    pass


def _as_rows(a):
    """a as a float64 array of rank at least 2; a (d,) vector becomes one
    (1, d) row."""
    a = np.asarray(a, dtype=np.float64)
    return a if a.ndim >= 2 else a.reshape(1, -1)


@dataclass
class MixtureParams:
    """Parameters of one K-component mixture over R^d."""

    alpha: np.ndarray      # (K,) coefficients, positive, sum to 1
    mu: np.ndarray         # (K, d) means
    d_diag: np.ndarray     # (K, d) stds / precision diagonals / scales
    structure: str = "diagonal"

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.mu = _as_rows(self.mu)
        self.d_diag = _as_rows(self.d_diag)

    @property
    def k(self):
        return self.alpha.shape[0]

    @property
    def dim(self):
        return self.mu.shape[1]

    def validate(self):
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown mixture structure {self.structure!r}")
        if self.mu.shape != (self.k, self.dim) or self.d_diag.shape != self.mu.shape:
            raise ValueError("mixture parameter shapes are inconsistent")
        if abs(self.alpha.sum() - 1.0) > 1e-12:
            raise ValueError("mixture coefficients must sum to 1")
        if np.any(self.alpha <= 0.0) or np.any(self.alpha >= 1.0 + 1e-12):
            raise ValueError("mixture coefficients must lie in (0, 1)")
        if np.any(self.d_diag <= 0.0):
            raise ValueError("scale entries must be positive")


@dataclass
class SharedMatrix:
    """The full matrix shared by all components of a tied mixture."""

    u: np.ndarray
    _log_abs_det: float | None = field(default=None, repr=False)

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim), _log_abs_det=0.0)

    @property
    def log_abs_det(self):
        if self._log_abs_det is None:
            self._log_abs_det = _checked_log_abs_det(self.u)
        return self._log_abs_det


def _checked_log_abs_det(u):
    # LU with partial pivoting via LAPACK; reject |det| below 1e-12 of the
    # Hadamard bound (the matrix's natural scale).
    sign, ld = np.linalg.slogdet(u)
    row_norms = np.sqrt((u * u).sum(axis=1))
    hadamard = float(np.log(np.maximum(row_norms, 1e-300)).sum())
    if sign == 0.0 or ld < math.log(1e-12) + hadamard:
        raise DegenerateMatrixError("degenerate shared matrix")
    return float(ld)


def _point_log_density(y, params, **family):
    """Mixture log density of one (d,) point as a float, or of the rows of
    an (n, d) array as an (n,) array."""
    y = np.asarray(y, dtype=np.float64)
    rows = y.reshape(1, -1) if y.ndim <= 1 else y
    if rows.ndim != 2 or rows.shape[1] != params.dim:
        raise ValueError(
            f"dimension mismatch: points of shape {y.shape}, "
            f"mixture is over R^{params.dim}"
        )
    if not np.all(params.d_diag > 0.0):
        raise ValueError("d_diag entries must be positive")
    comp, _ = component_log_densities(rows, params.mu[None],
                                      np.log(params.d_diag)[None],
                                      params.structure, **family)
    out = _lse_rows(np.log(params.alpha) + comp)
    return float(out[0]) if y.ndim <= 1 else out


def diag_gmm_log_density(y, params):
    """log sum_k alpha_k N(y; mu_k, diag(sigma_k^2)), via log-sum-exp.

    y is one (d,) point, giving a float, or (n, d) rows, giving (n,)."""
    if params.structure != "diagonal":
        raise ValueError("diag_gmm_log_density needs structure='diagonal'")
    return _point_log_density(y, params)


def tied_gmm_log_density(y, params, shared):
    """Tied-precision mixture: component precision U D_k U^T.

    `d_diag` holds the D_k diagonals (precisions, not standard deviations).
    y is one (d,) point, giving a float, or (n, d) rows, giving (n,).
    """
    if params.structure != "tied":
        raise ValueError("tied_gmm_log_density needs structure='tied'")
    return _point_log_density(y, params, u=shared.u,
                              log_abs_det=shared.log_abs_det)


def logistic_mixture_log_density(y, params, c_width=1.0):
    """Mixture of per-dimension logistic bin probabilities of width C, each
    divided by C; dimensions are independent within a component.  y is one
    (d,) point, giving a float, or (n, d) rows, giving (n,)."""
    if params.structure != "logistic":
        raise ValueError("logistic_mixture_log_density needs structure='logistic'")
    if c_width <= 0.0:
        raise ValueError("c_width must be positive")
    return _point_log_density(y, params, c_width=c_width)
