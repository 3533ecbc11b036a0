import math
import tracemalloc

import numpy as np
import pytest

from frmdn import diffcore as dc
from frmdn import mixtures as mx
from frmdn import recurrent as rc


def random_params(rng, k, d, structure="diagonal", scale_lo=0.4, scale_hi=2.0):
    alpha = mx.coeffs_from_logits(rng.normal(size=k))
    mu = rng.normal(size=(k, d)) * 2.0
    d_diag = rng.uniform(scale_lo, scale_hi, size=(k, d))
    return mx.MixtureParams(alpha, mu, d_diag, structure)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def test_coeffs_uniform_on_zero_logits():
    np.testing.assert_allclose(
        mx.coeffs_from_logits([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15
    )


def test_coeffs_analytic_two_logits():
    np.testing.assert_allclose(
        mx.coeffs_from_logits([math.log(2.0), 0.0]), [2 / 3, 1 / 3], atol=1e-15
    )


def test_coeffs_match_unstabilized_formula():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = rng.normal(size=5)
        direct = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(mx.coeffs_from_logits(z), direct, atol=1e-14)


def test_coeffs_sum_to_one_and_open_interval():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = mx.coeffs_from_logits(rng.normal(size=rng.integers(2, 9)) * 5.0)
        assert abs(a.sum() - 1.0) <= 1e-12
        assert np.all(a > 0.0) and np.all(a < 1.0)


def test_scales_from_logits():
    assert mx.diag_scales_from_logits(0.0) == pytest.approx(1.0)
    assert mx.diag_scales_from_logits(math.log(4.0)) == pytest.approx(4.0)
    # clamp engages below -60
    assert mx.diag_scales_from_logits(-100.0) == pytest.approx(math.exp(-60.0))


# ---------------------------------------------------------------------------
# diagonal Gaussian mixture
# ---------------------------------------------------------------------------

def test_diag_standard_normal_at_mode():
    p = mx.MixtureParams([1.0], [[0.0]], [[1.0]])
    assert mx.diag_gmm_log_density([0.0], p) == pytest.approx(
        -0.5 * math.log(2 * math.pi), abs=1e-12
    )


def test_diag_two_component_analytic():
    p = mx.MixtureParams([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
    # both components evaluate phi(1); direct two-term oracle
    expected = math.log(math.exp(-0.5) / math.sqrt(2 * math.pi))
    assert mx.diag_gmm_log_density([0.0], p) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-1.4189385332046727)


def naive_diag_density(y, p):
    """Linear-space summation oracle, no log-sum-exp."""
    total = 0.0
    for k in range(p.k):
        quad = np.sum(((y - p.mu[k]) / p.d_diag[k]) ** 2)
        norm = (2 * math.pi) ** (p.dim / 2) * np.prod(p.d_diag[k])
        total += p.alpha[k] * math.exp(-0.5 * quad) / norm
    return math.log(total)


def test_diag_matches_naive_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        p = random_params(rng, 3, 4)
        y = rng.normal(size=4) * 2.0
        assert mx.diag_gmm_log_density(y, p) == pytest.approx(
            naive_diag_density(y, p), abs=1e-10
        )


def test_diag_dimension_mismatch():
    p = random_params(np.random.default_rng(0), 2, 3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        mx.diag_gmm_log_density([0.0, 0.0], p)


# ---------------------------------------------------------------------------
# tied-precision mixture
# ---------------------------------------------------------------------------

def test_tied_identity_u_reduces_to_diagonal():
    rng = np.random.default_rng(3)
    eye = mx.SharedMatrix.identity(4)
    for _ in range(200):
        diag = random_params(rng, 3, 4)
        tied = mx.MixtureParams(
            diag.alpha, diag.mu, 1.0 / diag.d_diag**2, "tied"
        )
        y = rng.normal(size=4) * 2.0
        a = mx.diag_gmm_log_density(y, diag)
        b = mx.tied_gmm_log_density(y, tied, eye)
        assert b == pytest.approx(a, abs=1e-12)

        # the responsible component agrees too: per-component weighted
        # log densities argmax identically under both parameterizations
        def responsibilities(density, params, *extra):
            return [
                math.log(params.alpha[k]) + density(
                    y,
                    mx.MixtureParams([1.0], params.mu[k:k + 1],
                                     params.d_diag[k:k + 1],
                                     params.structure),
                    *extra,
                )
                for k in range(params.k)
            ]

        diag_terms = responsibilities(mx.diag_gmm_log_density, diag)
        tied_terms = responsibilities(mx.tied_gmm_log_density, tied, eye)
        assert int(np.argmax(diag_terms)) == int(np.argmax(tied_terms))


def full_gaussian_log_density(y, mu, precision):
    """Explicit multivariate normal oracle from the assembled precision."""
    sign, logdet_prec = np.linalg.slogdet(precision)
    assert sign > 0
    diff = y - mu
    return float(
        -0.5 * y.size * math.log(2 * math.pi)
        + 0.5 * logdet_prec
        - 0.5 * diff @ precision @ diff
    )


def test_tied_single_component_matches_full_covariance_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        u = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        if abs(np.linalg.det(u)) < 1e-3:
            continue
        d_diag = rng.uniform(0.5, 2.0, size=(1, 3))
        mu = rng.normal(size=(1, 3))
        p = mx.MixtureParams([1.0], mu, d_diag, "tied")
        y = rng.normal(size=3)
        precision = u @ np.diag(d_diag[0]) @ u.T
        got = mx.tied_gmm_log_density(y, p, mx.SharedMatrix(u))
        want = full_gaussian_log_density(y, mu[0], precision)
        assert got == pytest.approx(want, abs=1e-10)


def test_tied_scale_gauge_invariance():
    # U -> cU with D -> D/c^2 leaves the density unchanged
    rng = np.random.default_rng(5)
    u = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
    p = random_params(rng, 2, 3, "tied")
    y = rng.normal(size=3)
    base = mx.tied_gmm_log_density(y, p, mx.SharedMatrix(u))
    for c in (0.5, 2.0, 7.0):
        scaled = mx.MixtureParams(p.alpha, p.mu, p.d_diag / c**2, "tied")
        got = mx.tied_gmm_log_density(y, scaled, mx.SharedMatrix(c * u))
        assert got == pytest.approx(base, abs=1e-10)


def test_tied_rejects_singular_u():
    p = random_params(np.random.default_rng(6), 2, 3, "tied")
    u = np.ones((3, 3))
    with pytest.raises(mx.DegenerateMatrixError, match="degenerate shared matrix"):
        mx.tied_gmm_log_density(np.zeros(3), p, mx.SharedMatrix(u))


# ---------------------------------------------------------------------------
# logistic mixture
# ---------------------------------------------------------------------------

def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def test_logistic_single_component_matches_sigmoid_difference():
    p = mx.MixtureParams([1.0], [[0.0]], [[1.0]], "logistic")
    want = math.log(sigmoid(0.5) - sigmoid(-0.5))
    assert mx.logistic_mixture_log_density([0.0], p, 1.0) == pytest.approx(
        want, abs=1e-12
    )


def test_logistic_direct_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(40):
        p = random_params(rng, 3, 2, "logistic")
        y = rng.normal(size=2) * 2.0
        c = rng.uniform(0.5, 2.0)
        total = 0.0
        for k in range(p.k):
            comp = p.alpha[k]
            for i in range(p.dim):
                a = (y[i] - p.mu[k, i] + c / 2) / p.d_diag[k, i]
                b = (y[i] - p.mu[k, i] - c / 2) / p.d_diag[k, i]
                comp *= (sigmoid(a) - sigmoid(b)) / c
            total += comp
        assert mx.logistic_mixture_log_density(y, p, c) == pytest.approx(
            math.log(total), abs=1e-10
        )


def test_logistic_symmetric_about_mean():
    p = mx.MixtureParams([1.0], [[0.0]], [[0.7]], "logistic")
    for a in (0.3, 1.1, 4.0):
        left = mx.logistic_mixture_log_density([-a], p, 1.0)
        right = mx.logistic_mixture_log_density([a], p, 1.0)
        assert left == pytest.approx(right, abs=1e-13)


def test_logistic_rejects_bad_width_and_scale():
    p = mx.MixtureParams([1.0], [[0.0]], [[1.0]], "logistic")
    with pytest.raises(ValueError):
        mx.logistic_mixture_log_density([0.0], p, 0.0)
    bad = mx.MixtureParams([1.0], [[0.0]], [[-1.0]], "logistic")
    with pytest.raises(ValueError):
        mx.logistic_mixture_log_density([0.0], bad, 1.0)


def test_logistic_integrates_to_one_1d():
    rng = np.random.default_rng(8)
    p = random_params(rng, 2, 1, "logistic")
    xs = np.linspace(-30.0, 30.0, 60001)
    dens = np.exp(mx.logistic_mixture_log_density(xs[:, None], p, 1.0))
    integral = np.trapezoid(dens, xs)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_point_densities_take_rows():
    # an (n, d) batch gives (n,), each entry the density of its (d,) point
    rng = np.random.default_rng(17)
    shared = mx.SharedMatrix(np.eye(3) + 0.2 * rng.normal(size=(3, 3)))
    diag = random_params(rng, 3, 3)
    tied = random_params(rng, 3, 3, "tied")
    logi = random_params(rng, 3, 3, "logistic")
    cases = [
        lambda y: mx.diag_gmm_log_density(y, diag),
        lambda y: mx.tied_gmm_log_density(y, tied, shared),
        lambda y: mx.logistic_mixture_log_density(y, logi, 0.7),
    ]
    ys = rng.normal(size=(7, 3)) * 2.0
    for f in cases:
        rows = f(ys)
        assert rows.shape == (7,)
        single = [f(y) for y in ys]
        assert all(isinstance(v, float) for v in single)
        np.testing.assert_allclose(rows, single, rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="dimension mismatch"):
            f(ys[:, :2])
        with pytest.raises(ValueError, match="dimension mismatch"):
            f(ys[None])


@pytest.mark.parametrize("structure", mx.STRUCTURES)
def test_point_density_rejects_non_positive_scale(structure):
    density = {
        "diagonal": mx.diag_gmm_log_density,
        "tied": lambda y, p: mx.tied_gmm_log_density(
            y, p, mx.SharedMatrix.identity(2)),
        "logistic": lambda y, p: mx.logistic_mixture_log_density(y, p, 1.0),
    }[structure]
    for bad in (0.0, -1.0, np.nan):
        d_diag = np.ones((2, 2))
        d_diag[1, 0] = bad
        p = mx.MixtureParams([0.5, 0.5], np.zeros((2, 2)), d_diag, structure)
        with pytest.raises(ValueError, match="d_diag entries must be positive"):
            density(np.zeros(2), p)


# ---------------------------------------------------------------------------
# the batched kernel
# ---------------------------------------------------------------------------

def logistic_oracle(z, mu, log_s, c_width, w):
    """The logistic kernel in its log-sigmoid / log1mexp form: comp and the
    gradients of sum(w * comp) with respect to (z, mu, log_s)."""
    inv = np.exp(-log_s)
    centre = (z[:, None, :] - mu) * inv
    half = 0.5 * c_width * inv
    hi, lo = centre + half, half - centre
    gap = c_width * inv
    log1mexp = np.empty_like(gap)
    small = gap < math.log(2.0)
    log1mexp[small] = np.log(-np.expm1(-gap[small]))
    log1mexp[~small] = np.log1p(-np.exp(-gap[~small]))
    comp = ((-np.logaddexp(0.0, -hi) - np.logaddexp(0.0, -lo) + log1mexp)
            .sum(axis=2) - z.shape[1] * math.log(c_width))
    w = w[:, :, None]
    s_hi, s_lo = 0.5 * (1.0 + np.tanh(-0.5 * hi)), 0.5 * (1.0 + np.tanh(-0.5 * lo))
    g_diff = w * inv * (s_hi - s_lo)
    tail = gap * np.exp(-gap) / -np.expm1(-gap)
    g_log_s = -w * (s_hi * hi + s_lo * lo + tail)
    return comp, g_diff.sum(axis=1), -g_diff, g_log_s


def run_kernel(z, mu, log_s, structure, w, **family):
    """comp and the (z, mu, log_s, u) gradients of sum(w * comp)."""
    comp, grads = mx.component_log_densities(z, mu, log_s, structure, **family)
    g_mu, g_log_s = np.full((2,) + comp.shape + (z.shape[1],), np.nan)
    g_u = grads(w[:, :, None], g_mu, g_log_s)
    return comp, -g_mu.sum(axis=1), g_mu, g_log_s, g_u


def test_logistic_kernel_matches_log_sigmoid_oracle():
    # per-dimension offsets (z - mu)/s up to 1e3 scales, scale logits over
    # the whole clamp band, and bin widths far on either side of the scale
    offsets = np.array([0.0, 1e-6, -0.3, 1.0, -2.5, 7.0, -30.0, 200.0, -1e3])
    logits = np.linspace(-dc.EXP_CLAMP, dc.EXP_CLAMP, 25)
    rng = np.random.default_rng(24)
    z = rng.normal(size=(offsets.size, 2))
    log_s = np.broadcast_to(logits[None, :, None], (offsets.size, logits.size, 2))
    mu = z[:, None, :] - offsets[:, None, None] * np.exp(log_s)
    mu[:, :, 1] += rng.normal(size=mu.shape[:2])
    w = rng.uniform(0.1, 1.0, size=mu.shape[:2])
    for c_width in (1e-3, 1.0, 1e3):
        got = run_kernel(z, mu, log_s, "logistic", w, c_width=c_width)
        want = logistic_oracle(z, mu, log_s, c_width, w)
        for a, b in zip(got, want):
            assert np.all(np.isfinite(a))
            assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))) <= 1e-12
        assert got[-1] is None


@pytest.mark.parametrize("structure", mx.STRUCTURES)
def test_shared_parameters_equal_their_per_row_repetition(structure):
    rng = np.random.default_rng(25)
    n, k, d = 6, 3, 4
    z = rng.normal(size=(n, d)) * 2.0
    mu = rng.normal(size=(1, k, d))
    log_s = 0.5 * rng.normal(size=(1, k, d))
    w = rng.uniform(size=(n, k))
    family = {"c_width": 0.7}
    if structure == "tied":
        family = {"u": np.eye(d) + 0.3 * rng.normal(size=(d, d)), "log_abs_det": 0.2}
    shared = run_kernel(z, mu, log_s, structure, w, **family)
    per_row = run_kernel(z, np.repeat(mu, n, axis=0), np.repeat(log_s, n, axis=0),
                         structure, w, **family)
    for a, b in zip(shared, per_row):
        if a is None:
            assert b is None
        else:
            assert a.shape == b.shape
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# normalization by quadrature, all structures
# ---------------------------------------------------------------------------

def quadrature_1d(log_density):
    xs = np.linspace(-30.0, 30.0, 40001)
    dens = np.exp(log_density(xs[:, None]))
    return np.trapezoid(dens, xs)


def test_normalization_1d_every_structure():
    rng = np.random.default_rng(9)
    diag = random_params(rng, 3, 1)
    tied = random_params(rng, 3, 1, "tied")
    logi = random_params(rng, 3, 1, "logistic")
    shared = mx.SharedMatrix(np.array([[1.3]]))
    cases = [
        lambda y: mx.diag_gmm_log_density(y, diag),
        lambda y: mx.tied_gmm_log_density(y, tied, shared),
        lambda y: mx.logistic_mixture_log_density(y, logi, 1.0),
    ]
    for f in cases:
        assert quadrature_1d(f) == pytest.approx(1.0, abs=1e-6)


def test_normalization_2d_grid():
    rng = np.random.default_rng(10)
    diag = random_params(rng, 2, 2, scale_lo=0.5, scale_hi=1.5)
    tied = random_params(rng, 2, 2, "tied", scale_lo=0.5, scale_hi=1.5)
    logi = random_params(rng, 2, 2, "logistic", scale_lo=0.5, scale_hi=1.5)
    shared = mx.SharedMatrix(np.eye(2) + 0.2 * rng.normal(size=(2, 2)))
    grid = np.linspace(-12.0, 12.0, 400)
    cell = (grid[1] - grid[0]) ** 2
    points = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)
    points = points.reshape(-1, 2)                 # all 400 x 400 grid points
    cases = [
        lambda y: mx.diag_gmm_log_density(y, diag),
        lambda y: mx.tied_gmm_log_density(y, tied, shared),
        lambda y: mx.logistic_mixture_log_density(y, logi, 1.0),
    ]
    for f in cases:
        total = np.exp(f(points)).sum()
        assert total * cell == pytest.approx(1.0, abs=1e-3)


def test_relabeling_symmetry():
    rng = np.random.default_rng(11)
    p = random_params(rng, 4, 3)
    y = rng.normal(size=3)
    base = mx.diag_gmm_log_density(y, p)
    for _ in range(10):
        perm = rng.permutation(4)
        q = mx.MixtureParams(p.alpha[perm], p.mu[perm], p.d_diag[perm])
        assert mx.diag_gmm_log_density(y, q) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# the loss-graph op
# ---------------------------------------------------------------------------

def op_inputs(structure, rng, n=4, k=3, d=3):
    """A head of the given family and random (z, head logits) arrays; the
    logits are (n, K + 2*K*d), in the layout the head emits."""
    head = rc.init_head(2, k, d, structure, rng)
    if head.u is not None:
        head.u.value = np.eye(d) + 0.3 * rng.normal(size=(d, d))
    z = rng.normal(size=(n, d))
    logits = np.concatenate([rng.normal(size=(n, k)),
                             rng.normal(size=(n, k * d)),
                             0.5 * rng.normal(size=(n, k * d))], axis=1)
    return head, [z, logits]


def weighted_sum(node, weights):
    """sum_i weights_i * node_i for a 1-D node, on tape ops."""
    row = dc.output_view(node, np.s_[...], (1, weights.size))
    return dc.reduce_mean(dc.matmul(row, dc.constant(weights[:, None])))


def weighted_rows(head, nodes, weights, c_width):
    return weighted_sum(mx.mixture_log_rows(*nodes, head, c_width), weights)


@pytest.mark.parametrize("structure", mx.STRUCTURES)
def test_mixture_log_rows_gradients_match_central_differences(structure):
    rng = np.random.default_rng(17)
    c_width = 0.7
    head, arrays = op_inputs(structure, rng)
    weights = rng.uniform(0.5, 1.5, size=arrays[0].shape[0])
    leaves = [dc.parameter(a) for a in arrays]
    root = weighted_rows(head, leaves, weights, c_width)
    checked = list(zip(leaves, arrays))
    if head.u is not None:
        checked.append((head.u, head.u.value))
    grads = dc.backward(root, params=[leaf for leaf, _ in checked])

    def loss():
        nodes = [dc.constant(a) for a in arrays]
        return float(weighted_rows(head, nodes, weights, c_width).value)

    step = 1e-5
    for leaf, arr in checked:
        numeric = np.zeros_like(arr)
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            arr[i] = orig + step
            hi = loss()
            arr[i] = orig - step
            lo = loss()
            arr[i] = orig
            numeric[i] = (hi - lo) / (2 * step)
        rel = np.abs(grads[leaf] - numeric) / np.maximum(1.0, np.abs(grads[leaf]))
        assert rel.max() < 1e-6


@pytest.mark.parametrize("structure", mx.STRUCTURES)
def test_scale_logits_outside_clamp_band_get_zero_gradient(structure):
    rng = np.random.default_rng(19)
    head, arrays = op_inputs(structure, rng)
    logits = arrays[1]
    outside = np.zeros(logits.shape, dtype=bool)
    first = head.k + head.k * head.dim            # first scale-logit column
    for row, col in ((0, 0), (1, 4), (2, 8), (3, 1)):
        outside[row, first + col] = True
    logits[outside] = [-100.0, 100.0, -61.0, 75.0]
    leaves = [dc.parameter(a) for a in arrays]
    root = dc.reduce_mean(mx.mixture_log_rows(*leaves, head, 1.0))
    assert np.isfinite(root.value)
    g = dc.backward(root, params=[leaves[1]])[leaves[1]]
    assert np.all(np.isfinite(g))
    assert np.all(g[outside] == 0.0)


def test_logistic_rows_finite_at_extreme_width_to_scale_ratios():
    # C/s = C * exp(-scale logit): ~1e-26 at the top of the clamp band,
    # ~1e26 at the bottom, on either side of the log1mexp switch
    rng = np.random.default_rng(20)
    head, arrays = op_inputs("logistic", rng)
    first = head.k + head.k * head.dim
    for c_width, logit in ((1.0, 60.0), (1.0, -60.0), (1e-3, 55.0),
                           (1e3, -55.0)):
        arrays[1][:, first:] = logit
        leaves = [dc.parameter(a) for a in arrays]
        rows = mx.mixture_log_rows(*leaves, head, c_width)
        assert np.all(np.isfinite(rows.value))
        grads = dc.backward(dc.reduce_mean(rows), params=leaves)
        assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_logistic_op_memory_peak():
    # one forward plus backward at the wide-head shape, in units of one
    # (n, K, d) float64 array.  The kernel keeps hi, lo, gap and 1 - e^{-gap}
    # for the backward, which writes into the head-gradient array: about 7.7
    # units, and 8.5 leaves room for numpy's own temporaries.
    n, k, d = 496, 16, 16
    head, arrays = op_inputs("logistic", np.random.default_rng(26), n, k, d)
    leaves = [dc.parameter(a) for a in arrays]
    tracemalloc.start()
    try:
        dc.backward(dc.reduce_mean(mx.mixture_log_rows(*leaves, head, 1.0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n * k * d * 8) <= 8.5


def test_mixture_log_rows_rejects_singular_shared_matrix():
    rng = np.random.default_rng(21)
    head, arrays = op_inputs("tied", rng)
    head.u.value = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        mx.mixture_log_rows(*[dc.constant(a) for a in arrays], head, 1.0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_degenerate_categorical():
    p = mx.MixtureParams(
        [1.0 - 1e-300, 1e-300], [[5.0], [-5.0]], [[1e-6], [1.0]], "diagonal"
    )
    rng = np.random.default_rng(12)
    for _ in range(100):
        y = mx.mixture_sample(p, None, rng)
        assert abs(y[0] - 5.0) < 1.0


def test_sample_diagonal_moments():
    p = mx.MixtureParams([1.0], [[3.0]], [[2.0]])
    rng = np.random.default_rng(13)
    draws = np.array([mx.mixture_sample(p, None, rng)[0] for _ in range(200_000)])
    assert abs(draws.mean() - 3.0) < 0.02
    assert abs(draws.std() - 2.0) < 0.02


def test_sample_tied_covariance_matches_inverse_oracle():
    rng = np.random.default_rng(14)
    u = np.array([[1.2, 0.4], [-0.3, 0.9]])
    d_diag = np.array([[1.5, 0.8]])
    p = mx.MixtureParams([1.0], [[0.0, 0.0]], d_diag, "tied")
    shared = mx.SharedMatrix(u)
    draws = np.array(
        [mx.mixture_sample(p, shared, rng) for _ in range(200_000)]
    )
    want = np.linalg.inv(u @ np.diag(d_diag[0]) @ u.T)
    got = np.cov(draws.T)
    np.testing.assert_allclose(got, want, atol=0.05)


def test_sample_logistic_median():
    p = mx.MixtureParams([1.0], [[2.0]], [[0.5]], "logistic")
    rng = np.random.default_rng(15)
    draws = np.array([mx.mixture_sample(p, None, rng)[0] for _ in range(50_000)])
    assert abs(np.median(draws) - 2.0) < 0.02


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

def test_param_count_table_rows():
    assert mx.param_count(5, 32, "diagonal").total == 325
    tied = mx.param_count(5, 32, "tied")
    assert tied.total == 1349
    assert tied.sigma_count == 32 * 32 + 5 * 32
    assert mx.param_count(1, 1, "full").total == 3


def test_param_count_matches_stored_parameters():
    rng = np.random.default_rng(16)
    for _ in range(20):
        k = int(rng.integers(1, 12))
        d = int(rng.integers(1, 40))
        for structure in ("full", "diagonal", "tied"):
            formula = mx.param_count(k, d, structure)
            stored = mx.stored_param_count(k, d, structure)
            assert formula.total == stored.total
            assert (formula.alpha_count, formula.mu_count, formula.sigma_count) == (
                stored.alpha_count,
                stored.mu_count,
                stored.sigma_count,
            )


def test_validate_catches_bad_params():
    good = mx.MixtureParams([0.5, 0.5], np.zeros((2, 2)), np.ones((2, 2)))
    good.validate()
    with pytest.raises(ValueError, match="sum to 1"):
        mx.MixtureParams([0.5, 0.6], np.zeros((2, 2)), np.ones((2, 2))).validate()
    with pytest.raises(ValueError, match="positive"):
        mx.MixtureParams([0.5, 0.5], np.zeros((2, 2)), np.zeros((2, 2))).validate()
