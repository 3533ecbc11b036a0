"""Per-step output distributions: diagonal Gaussian, tied-precision
Gaussian, and logistic mixtures.

The tied family factorizes each component's precision as U D_k U^T with
one full matrix U shared across components and a positive diagonal D_k
per component.  `d_diag` therefore stores standard deviations for the
diagonal family, precision diagonals for the tied family, and scales for
the logistic family.

Each family's log density is written once, batched over rows and
components in `component_log_densities`; the point densities (one point
or a batch of rows) and `mixture_rows` call it.  `mixture_rows` is the
mixture's whole forward on plain arrays, which the loss-graph op
`mixture_log_rows` and tape-free evaluation both run.

A logistic component's bin mass sigmoid(hi) - sigmoid(-lo), with
hi = (z - mu + C/2)/s, lo = (mu - z + C/2)/s and gap = hi + lo = C/s, is
logged without a positive exponent (Maechler 2012, "Accurately computing
log(1 - exp(-|a|))") as min(hi, 0) + min(lo, 0), which is min(hi, lo, 0)
as hi + lo > 0, plus log[(1 - e^{-gap}) / ((1 + e^{-|hi|})(1 + e^{-|lo|}))].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffcore import DiffNode

LOG_2PI = math.log(2.0 * math.pi)

# Scale logits are clamped to this band before exponentiation.
EXP_CLAMP = 60.0

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

    Returns (comp, grads): comp is (n, K), and grads(w, g_mu, g_log_s),
    for w of shape (n, K, 1), writes the gradients of sum(w * comp) with
    respect to mu and log_s into the given (n, K, d) arrays and returns the
    one with respect to u (None outside the tied family); the one with
    respect to z is -g_mu.sum(axis=1).  The gradient through log|det U| is
    left to the caller that supplied it.
    """
    d = z.shape[1]
    diff = z[:, None, :] - mu
    if structure == "diagonal":
        inv = np.exp(-log_s)                       # 1 / sigma
        e = np.multiply(diff, inv, out=diff)
        comp = (-0.5 * d * LOG_2PI - log_s.sum(axis=2)
                - 0.5 * (e * e).sum(axis=2))

        def grads(w, g_mu, g_log_s):
            np.multiply(w * e, inv, out=g_mu)
            np.multiply(w, e * e - 1.0, out=g_log_s)
    elif structure == "tied":
        v = (diff.reshape(-1, d) @ u).reshape(diff.shape)  # U^T (z - mu_k)
        pv = np.exp(log_s, out=np.empty_like(v))   # D_k diagonals
        pv *= v
        comp = (-0.5 * d * LOG_2PI + log_abs_det + 0.5 * log_s.sum(axis=2)
                - 0.5 * (v * pv).sum(axis=2))

        def grads(w, g_mu, g_log_s):
            g_v = np.multiply(w, pv).reshape(-1, d)    # minus the v gradient
            g_mu[...] = (g_v @ u.T).reshape(diff.shape)
            np.subtract(1.0, np.multiply(v, pv, out=g_log_s), out=g_log_s)
            g_log_s *= 0.5 * w
            return -(diff.reshape(-1, d).T @ g_v)
    elif structure == "logistic":
        gap = np.exp(-log_s)                       # 1 / s
        hi = np.multiply(diff, gap, out=diff)      # (z - mu)/s
        gap *= c_width
        half = np.multiply(gap, 0.5)               # C/(2s)
        lo = np.subtract(half, hi)
        hi += half
        q = np.expm1(np.negative(gap, out=half), out=half)
        np.negative(q, out=q)                      # 1 - e^{-gap}
        den, scratch = np.abs(hi), np.abs(lo)
        for a in (den, scratch):               # 1 + e^{-|hi|}, 1 + e^{-|lo|}
            np.exp(np.negative(a, out=a), out=a)
            a += 1.0
        np.log(np.divide(q, np.multiply(den, scratch, out=den), out=den), out=den)
        den += np.minimum(np.minimum(hi, lo, out=scratch), 0.0, out=scratch)
        comp = np.einsum("nkd->nk", den) - d * math.log(c_width)

        def grads(w, g_mu, g_log_s):
            # u = 1 - tanh(x/2) = 2 sigmoid(-x) = 2 d log sigmoid(x) / dx
            u_hi = np.tanh(np.multiply(hi, 0.5, out=g_log_s), out=g_log_s)
            u_lo = np.multiply(lo, 0.5)
            np.subtract(1.0, u_hi, out=u_hi)
            np.subtract(1.0, np.tanh(u_lo, out=u_lo), out=u_lo)
            np.multiply(np.subtract(u_lo, u_hi, out=g_mu), gap, out=g_mu)
            g_mu *= w * (0.5 / c_width)
            u_hi *= hi
            u_hi += np.multiply(u_lo, lo, out=u_lo)
            np.subtract(np.divide(2.0, q, out=u_lo), 2.0, out=u_lo)
            u_hi += np.multiply(u_lo, gap, out=u_lo)   # + 2 gap / (e^gap - 1)
            np.multiply(u_hi, -0.5 * w, out=g_log_s)
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


def mixture_rows(z, logits, head, c_width=1.0):
    """The forward arithmetic of `mixture_log_rows` on float64 arrays,
    shared by the op and the tape-free evaluation path: the (n,) rows
    LSE_k(log_softmax(alpha)_k + comp_k) of z (n, d) under the head output
    rows logits (n, K + 2*K*d).

    Returns (rows, rule): rule(g) maps the rows' gradient to those of z,
    of logits and, for a tied head, of head.u.  A caller that needs only
    values drops the rule.
    """
    k, d = head.k, head.dim
    a, mu, raw = split_head(logits, k, d)
    family = {"c_width": c_width}
    if head.structure == "tied":
        u = head.u.value
        sign, log_abs_det = np.linalg.slogdet(u)
        if sign == 0.0:
            raise np.linalg.LinAlgError("mixture_log_rows: singular shared matrix")
        family.update(u=u, log_abs_det=log_abs_det)
    log_s = np.clip(raw, -EXP_CLAMP, EXP_CLAMP)
    clipped = log_s != raw
    comp, comp_grads = component_log_densities(z, mu, log_s, head.structure,
                                               **family)
    log_alpha = a - _lse_rows(a)[:, None]
    joint = log_alpha + comp
    rows = _lse_rows(joint)

    def rule(g):
        g = g[:, None]
        w = g * np.exp(joint - rows[:, None])          # g * responsibilities
        g_logits = np.empty(logits.shape)
        g_alpha, g_mu, g_log_s = split_head(g_logits, k, d)
        g_u = comp_grads(w[:, :, None], g_mu, g_log_s)
        g_z = -np.einsum("nkd->nd", g_mu)      # .sum(axis=1), bit for bit, faster
        np.subtract(w, g * np.exp(log_alpha), out=g_alpha)
        g_log_s[clipped] = 0.0
        if g_u is None:
            return g_z, g_logits
        return g_z, g_logits, g_u + g.sum() * np.linalg.inv(u).T

    return rows, rule


def mixture_log_rows(z, logits, head, c_width=1.0):
    """Graph op: the (n,) node LSE_k(log_softmax(alpha)_k + comp_k), where
    comp holds the component log densities of the rows of z.

    logits is the (n, K + 2*K*d) head output node; `split_head` reads its
    coefficient logits, means and scale logits.  Scale logits are clipped
    to +-EXP_CLAMP and get zero gradient outside that band.  Tied heads add
    head.u as a parent, with log|det U| computed in `mixture_rows`.

    The backward is closed-form (Bishop 1994, "Mixture Density Networks"):
    with r the responsibilities, softmax over k of the summands, the
    alpha logits receive r - softmax(alpha), and r weights the component
    gradients.
    """
    rows, rule = mixture_rows(z.value, logits.value, head, c_width)
    parents = [z, logits] + ([head.u] if head.structure == "tied" else [])
    return DiffNode(rows, parents, "mixture_log_rows", rule)


def _lse_rows(v):
    m = v.max(axis=1)
    return m + np.log(np.exp(v - m[:, None]).sum(axis=1))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def pick_component(alpha, rng):
    """Inverse-CDF draw from the coefficients; ties go to the lower index.
    `rng.random()` takes the same double from the stream as
    `rng.uniform()`, with less call overhead."""
    cum = alpha.cumsum()
    u = rng.random()
    return min(int(cum.searchsorted(u, side="left")), alpha.shape[0] - 1)


def mixture_sample(alpha, mu, scale, structure, rng, u=None, c_width=1.0):
    """Draw one d-vector from the mixture with (K,) coefficients alpha,
    (K, d) means mu and (K, d) scales as `MixtureParams.d_diag` holds
    them: pick a component, then sample it.

    tied components have covariance (U D_k U^T)^{-1} with the shared
    (d, d) matrix `u`, realized as mu_k + solve(U^T, D_k^{-1/2} * xi)
    with xi standard normal.  A logistic component's density is a
    logistic convolved with Uniform(-C/2, C/2), C = c_width, so its draw
    is mu_k + s_k * logit(p) + C * (v - 1/2) with p, v uniform.
    """
    k = pick_component(alpha, rng)
    dim = mu.shape[1]
    if structure == "diagonal":
        return mu[k] + scale[k] * rng.standard_normal(dim)
    if structure == "tied":
        if u is None:
            raise ValueError("tied mixtures need their shared matrix to sample")
        xi = rng.standard_normal(dim)
        return mu[k] + np.linalg.solve(u.T, xi / np.sqrt(scale[k]))
    if structure == "logistic":
        p = rng.uniform(size=dim)
        v = rng.uniform(size=dim)
        return mu[k] + scale[k] * np.log(p / (1.0 - p)) + c_width * (v - 0.5)
    raise ValueError(f"unknown mixture structure {structure!r}")


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
