"""Per-step output distributions: diagonal Gaussian, tied-precision
Gaussian, and logistic mixtures.

The tied family factorizes each component's precision as U D_k U^T with
one full matrix U shared across components and a positive diagonal D_k
per component.  `d_diag` therefore stores standard deviations for the
diagonal family, precision diagonals for the tied family, and scales for
the logistic family.

Each family's log density is written once, batched over rows and
components in `component_log_densities`; the point densities (one point
or a batch of rows) and the loss-graph op `mixture_log_rows` both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffcore import EXP_CLAMP, DiffNode, _sigmoid

LOG_2PI = math.log(2.0 * math.pi)

STRUCTURES = ("diagonal", "tied", "logistic")


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
        # float64 arrays of the right rank (what head_project passes) are
        # kept as they are, without a copy
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


@dataclass
class ParamCountReport:
    alpha_count: int
    mu_count: int
    sigma_count: int

    @property
    def total(self):
        return self.alpha_count + self.mu_count + self.sigma_count


# ---------------------------------------------------------------------------
# head layout and activations
# ---------------------------------------------------------------------------

def split_head(out, k, d):
    """Views of the blocks of head output rows (n, K + 2*K*d): coefficient
    logits (n, K), means (n, K, d) and scale logits (n, K, d), each block
    component-major."""
    n = out.shape[0]
    return (out[:, :k], out[:, k : k + k * d].reshape(n, k, d),
            out[:, k + k * d :].reshape(n, k, d))


def coeffs_from_logits(z_alpha):
    """Softmax with max subtraction."""
    z = np.asarray(z_alpha, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def diag_scales_from_logits(z_sigma):
    """Elementwise exp of the logits clamped to +-EXP_CLAMP.  The clamp is
    `np.clip`'s arithmetic without its Python-level dispatch, which costs
    more than the exp on a sampling step's few logits."""
    z = np.asarray(z_sigma, dtype=np.float64)
    return np.exp(np.minimum(np.maximum(z, -EXP_CLAMP), EXP_CLAMP))


# ---------------------------------------------------------------------------
# log densities
# ---------------------------------------------------------------------------

def component_log_densities(z, mu, log_s, structure, u=None, log_abs_det=0.0,
                            c_width=1.0):
    """Log density of each row of z under each component, batched.

    z is (n, d); mu and log_s are (n, K, d), or (1, K, d) when every row
    shares them (the gradients then stay per row).  exp(log_s) holds the
    standard deviations (diagonal), the precision diagonals D_k (tied) or
    the scales (logistic).  A tied family also takes its shared matrix `u`
    and log|det U|.  The coefficients are not included.

    Returns (comp, grads): comp is (n, K), and grads(w) maps the (n, K)
    gradient of a loss with respect to comp to its gradients with respect
    to (z, mu, log_s, u), with None for u outside the tied family.  The
    gradient through log|det U| is left to the caller that supplied it.
    """
    d = z.shape[1]
    diff = z[:, None, :] - mu
    if structure == "diagonal":
        inv = np.exp(-log_s)                       # 1 / sigma
        e = diff * inv
        comp = (-0.5 * d * LOG_2PI - log_s.sum(axis=2)
                - 0.5 * (e * e).sum(axis=2))

        def grads(w):
            w = w[:, :, None]
            g_diff = -w * e * inv
            return g_diff.sum(axis=1), -g_diff, w * (e * e - 1.0), None
    elif structure == "tied":
        prec = np.exp(log_s)                       # D_k diagonals
        v = (diff.reshape(-1, d) @ u).reshape(diff.shape)  # U^T (z - mu_k)
        pv = prec * v
        comp = (-0.5 * d * LOG_2PI + log_abs_det + 0.5 * log_s.sum(axis=2)
                - 0.5 * (v * pv).sum(axis=2))

        def grads(w):
            w = w[:, :, None]
            g_v = (-w * pv).reshape(-1, d)
            g_diff = (g_v @ u.T).reshape(diff.shape)
            g_u = diff.reshape(-1, d).T @ g_v
            return g_diff.sum(axis=1), -g_diff, 0.5 * w * (1.0 - v * pv), g_u
    elif structure == "logistic":
        # log[sigmoid(hi) - sigmoid(-lo)] with hi - (-lo) = C/s, through
        # sigmoid(a) - sigmoid(b) = sigmoid(a) * sigmoid(-b) * (1 - e^{b-a})
        inv = np.exp(-log_s)                       # 1 / s
        centre = diff * inv
        half = (0.5 * c_width) * inv
        hi = centre + half
        lo = half - centre
        comp = ((_log_sigmoid(hi) + _log_sigmoid(lo)
                 + _log1mexp(c_width * inv)).sum(axis=2)
                - d * math.log(c_width))

        def grads(w):
            w = w[:, :, None]
            s_hi, s_lo = _sigmoid(-hi), _sigmoid(-lo)
            g_diff = w * inv * (s_hi - s_lo)
            gap = c_width * inv
            tail = gap * np.exp(-gap) / -np.expm1(-gap)    # gap / (e^gap - 1)
            g_log_s = -w * (s_hi * hi + s_lo * lo + tail)
            return g_diff.sum(axis=1), -g_diff, g_log_s, None
    else:
        raise ValueError(f"unknown mixture structure {structure!r}")
    return comp, grads


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
    """Mixture of per-dimension logistic bin probabilities of width C.

    Each dimension contributes (1/C) * (sigmoid((y-mu+C/2)/s)
    - sigmoid((y-mu-C/2)/s)); dimensions are independent within a
    component.  y is one (d,) point, giving a float, or (n, d) rows,
    giving (n,).
    """
    if params.structure != "logistic":
        raise ValueError("logistic_mixture_log_density needs structure='logistic'")
    if c_width <= 0.0:
        raise ValueError("c_width must be positive")
    if np.any(params.d_diag <= 0.0):
        raise ValueError("logistic scales must be positive")
    return _point_log_density(y, params, c_width=c_width)


def mixture_log_rows(z, logits, head, c_width=1.0):
    """Graph op: the (n,) node LSE_k(log_softmax(alpha)_k + comp_k), where
    comp holds the component log densities of the rows of z.

    logits is the (n, K + 2*K*d) head output node; `split_head` reads its
    coefficient logits, means and scale logits.  Scale logits are clipped
    to +-EXP_CLAMP and get zero gradient outside that band.  Tied heads add
    head.u as a parent, with log|det U| computed here.

    The backward is closed-form (Bishop 1994, "Mixture Density Networks"):
    with r the responsibilities, softmax over k of the summands, the
    alpha logits receive r - softmax(alpha), and r weights the component
    gradients.
    """
    k, d = head.k, head.dim
    n = z.value.shape[0]
    a, mu, raw = split_head(logits.value, k, d)
    inside = np.abs(raw) <= EXP_CLAMP
    parents = [z, logits]
    family = {"c_width": c_width}
    if head.structure == "tied":
        u = head.u.value
        sign, log_abs_det = np.linalg.slogdet(u)
        if sign == 0.0:
            raise np.linalg.LinAlgError("mixture_log_rows: singular shared matrix")
        parents.append(head.u)
        family.update(u=u, log_abs_det=log_abs_det)
    comp, comp_grads = component_log_densities(
        z.value, mu, np.clip(raw, -EXP_CLAMP, EXP_CLAMP), head.structure,
        **family)
    log_alpha = a - _lse_rows(a)[:, None]
    joint = log_alpha + comp
    rows = _lse_rows(joint)

    def rule(g):
        g = g[:, None]
        w = g * np.exp(joint - rows[:, None])          # g * responsibilities
        g_z, g_mu, g_log_s, g_u = comp_grads(w)
        g_logits = np.concatenate([w - g * np.exp(log_alpha),
                                   g_mu.reshape(n, k * d),
                                   (g_log_s * inside).reshape(n, k * d)], axis=1)
        if g_u is None:
            return g_z, g_logits
        return g_z, g_logits, g_u + g.sum() * np.linalg.inv(u).T

    return DiffNode(rows, parents, "mixture_log_rows", rule)


def _lse_rows(v):
    m = v.max(axis=1)
    return m + np.log(np.exp(v - m[:, None]).sum(axis=1))


def _log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


def _log1mexp(r):
    """log(1 - e^{-r}) for r > 0, stable near both ends."""
    r = np.asarray(r, dtype=np.float64)
    out = np.empty_like(r)
    small = r < math.log(2.0)
    out[small] = np.log(-np.expm1(-r[small]))
    out[~small] = np.log1p(-np.exp(-r[~small]))
    return out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def pick_component(alpha, rng):
    """Inverse-CDF draw from the coefficients; ties go to the lower index."""
    cum = alpha.cumsum()
    u = rng.uniform()
    return min(int(cum.searchsorted(u, side="left")), alpha.shape[0] - 1)


def mixture_sample(params, shared, rng):
    """Draw one d-vector: pick a component, then sample it.

    tied components have covariance (U D_k U^T)^{-1}, realized as
    mu_k + solve(U^T, D_k^{-1/2} * xi) with xi standard normal.
    """
    k = pick_component(params.alpha, rng)
    mu = params.mu[k]
    if params.structure == "diagonal":
        return mu + params.d_diag[k] * rng.standard_normal(params.dim)
    if params.structure == "tied":
        if shared is None:
            raise ValueError("tied mixtures need their shared matrix to sample")
        xi = rng.standard_normal(params.dim)
        return mu + np.linalg.solve(shared.u.T, xi / np.sqrt(params.d_diag[k]))
    if params.structure == "logistic":
        u = rng.uniform(size=params.dim)
        return mu + params.d_diag[k] * np.log(u / (1.0 - u))
    raise ValueError(f"unknown mixture structure {params.structure!r}")


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

def param_count(k, d, structure):
    """Parameter totals of the three mixture factorizations.

    full: K(2 + 3d + d^2)/2, diagonal: K(1 + 2d), tied: K(1 + 2d) + d^2.
    """
    if k < 1 or d < 1:
        raise ValueError("k and d must be at least 1")
    if structure == "full":
        return ParamCountReport(k, k * d, k * d * (d + 1) // 2)
    if structure == "diagonal":
        return ParamCountReport(k, k * d, k * d)
    if structure == "tied":
        return ParamCountReport(k, k * d, d * d + k * d)
    raise ValueError(f"unknown structure {structure!r} for param_count")


def stored_param_count(k, d, structure):
    """Allocate the actual parameter blocks of a head and count their
    entries; cross-checks `param_count` against real storage."""
    alpha = np.zeros(k)
    mu = np.zeros((k, d))
    if structure == "full":
        tril = [np.zeros(d * (d + 1) // 2) for _ in range(k)]
        sigma_count = sum(t.size for t in tril)
    elif structure == "diagonal":
        sigma_count = np.zeros((k, d)).size
    elif structure == "tied":
        sigma_count = np.zeros((k, d)).size + np.zeros((d, d)).size
    else:
        raise ValueError(f"unknown structure {structure!r}")
    return ParamCountReport(alpha.size, mu.size, sigma_count)
