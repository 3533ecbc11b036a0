import math

import numpy as np
import pytest

from frmdn import diffcore as dc


def naive_matmul(a, b):
    """Triple-loop reference, independent of numpy's matmul."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def central_diff(fn, x, step=1e-5):
    g = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        g.ravel()[i] = (hi - lo) / (2 * step)
    return g


def test_exp_identity_case():
    node = dc.exp(dc.parameter(np.zeros(())))
    assert node.value == pytest.approx(1.0)
    grads = dc.backward(node)
    (g,) = grads.values()
    assert g == pytest.approx(1.0)


def test_log_sum_exp_analytic():
    node = dc.log_sum_exp(dc.constant([0.0, 0.0]))
    assert float(node.value) == pytest.approx(math.log(2.0), abs=1e-15)


def test_matmul_against_naive_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 1))
    node = dc.matmul(dc.constant(a), dc.constant(b))
    np.testing.assert_allclose(node.value, naive_matmul(a, b), rtol=0, atol=1e-14)


def test_backward_sum_of_squares():
    x = dc.parameter([1.0, 2.0])
    root = dc.reduce_sum(dc.square(x))
    grads = dc.backward(root)
    np.testing.assert_allclose(grads[x], [2.0, 4.0])
    assert root.grad == pytest.approx(1.0)


def test_backward_constant_root_empty_map():
    root = dc.reduce_sum(dc.square(dc.constant([1.0, 2.0])))
    assert dc.backward(root) == {}


def test_backward_unreachable_param_gets_zero():
    x = dc.parameter([1.0, 2.0])
    dead = dc.parameter([5.0])
    root = dc.reduce_sum(dc.square(x))
    grads = dc.backward(root, params=[x, dead])
    np.testing.assert_allclose(grads[dead], [0.0])


def test_composite_tanh_dot_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    w0 = rng.normal(size=4)
    x = rng.normal(size=4)

    def loss(wv):
        return float(np.tanh(np.dot(wv, x)))

    w = dc.parameter(w0)
    root = dc.tanh(dc.reduce_sum(dc.mul(w, dc.constant(x))))
    analytic = dc.backward(root)[w]
    numeric = central_diff(loss, w0.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


def test_backward_rejects_non_scalar_root():
    x = dc.parameter([1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        dc.backward(dc.square(x))


def test_shape_mismatch_error_names_op_and_shapes():
    a = dc.constant(np.zeros((2, 3)))
    b = dc.constant(np.zeros((3, 3)))
    with pytest.raises(dc.ShapeMismatchError) as exc:
        dc.mul(a, b)
    assert exc.value.op == "mul"
    assert exc.value.shapes == ((2, 3), (3, 3))
    assert "mul" in str(exc.value) and "(2, 3)" in str(exc.value)


def test_matmul_shape_error():
    with pytest.raises(dc.ShapeMismatchError):
        dc.matmul(dc.constant(np.zeros((2, 3))), dc.constant(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# per-op gradient sweep against central differences
# ---------------------------------------------------------------------------

def _random_inputs(op, rng):
    """Small random operands with shapes conforming to the op's rule."""
    if op in (dc.add, dc.sub, dc.mul):
        s = (3, 4)
        return [rng.normal(size=s), rng.normal(size=s)], {}
    if op is dc.matmul:
        return [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))], {}
    if op is dc.log:
        return [rng.uniform(0.5, 3.0, size=(3, 4))], {}
    if op is dc.concat:
        return [rng.normal(size=(3, 2)), rng.normal(size=(3, 3))], {"axis": 1}
    if op is dc.slice_cols:
        return [rng.normal(size=(3, 5))], {"cols": np.array([4, 0, 2])}
    if op in (dc.reduce_sum, dc.reduce_mean, dc.log_sum_exp):
        return [rng.normal(size=(3, 4))], {"axis": 1}
    if op is dc.scale:
        return [rng.normal(size=(3, 4))], {"factor": -1.7}
    return [rng.normal(size=(3, 4))], {}


def _apply(op, nodes, attrs):
    return op(nodes, **attrs) if op is dc.concat else op(*nodes, **attrs)


SWEPT_OPS = [
    pytest.param(op, id=tag) for tag, op in (
        ("add", dc.add), ("sub", dc.sub), ("mul", dc.mul),
        ("matmul", dc.matmul), ("exp", dc.exp), ("log", dc.log),
        ("tanh", dc.tanh), ("neg", dc.neg), ("sum", dc.reduce_sum),
        ("mean", dc.reduce_mean), ("concat", dc.concat),
        ("slice", dc.slice_cols), ("square", dc.square),
        ("log_sum_exp", dc.log_sum_exp), ("scale", dc.scale),
    )
]


@pytest.mark.parametrize("op", SWEPT_OPS)
def test_gradient_matches_central_differences(op):
    rng = np.random.default_rng(42)
    for _ in range(100):
        arrays, attrs = _random_inputs(op, rng)
        leaves = [dc.parameter(a) for a in arrays]
        root = dc.reduce_sum(dc.square(_apply(op, leaves, attrs)))
        grads = dc.backward(root, params=leaves)
        step = 1e-5
        for leaf, arr in zip(leaves, arrays):
            def fn(x, leaf_index=leaves.index(leaf)):
                vals = [a.copy() for a in arrays]
                vals[leaf_index] = x
                nodes = [dc.constant(v) for v in vals]
                out = _apply(op, nodes, attrs)
                return float(dc.reduce_sum(dc.square(out)).value)

            numeric = central_diff(fn, arr.copy(), step)
            denom = np.maximum(1.0, np.abs(grads[leaf]))
            rel = np.abs(grads[leaf] - numeric) / denom
            assert rel.max() < 1e-5, f"{op.__name__}: max rel err {rel.max():.3e}"


def test_backward_is_linear():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = dc.parameter(rng.normal(size=6))
        y = dc.parameter(rng.normal(size=6))

        def f_root(xn, yn):
            return dc.reduce_sum(dc.mul(dc.tanh(xn), yn))

        def g_root(xn, yn):
            return dc.reduce_sum(dc.square(dc.add(xn, yn)))

        a, b = rng.normal(size=2)
        combined = dc.add(dc.scale(f_root(x, y), a), dc.scale(g_root(x, y), b))
        gc = dc.backward(combined, params=[x, y])

        gf = dc.backward(f_root(x, y), params=[x, y])
        gg = dc.backward(g_root(x, y), params=[x, y])
        for leaf in (x, y):
            np.testing.assert_allclose(
                gc[leaf], a * gf[leaf] + b * gg[leaf], rtol=0, atol=1e-12
            )


def test_replay_is_bit_identical():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4))
    w = rng.normal(size=(4, 2))

    def build():
        h = dc.tanh(dc.matmul(dc.parameter(x), dc.parameter(w)))
        return dc.log_sum_exp(dc.reduce_sum(h, axis=1))

    first = build()
    second = build()
    assert np.array_equal(first.value, second.value)
    g1 = list(dc.backward(first).values())
    g2 = list(dc.backward(second).values())
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)


def test_row_bias_add_broadcast():
    a = dc.parameter(np.ones((3, 2)))
    b = dc.parameter(np.array([1.0, 2.0]))
    out = dc.add(a, b)
    np.testing.assert_allclose(out.value, [[2.0, 3.0]] * 3)
    grads = dc.backward(dc.reduce_sum(out), params=[a, b])
    np.testing.assert_allclose(grads[b], [3.0, 3.0])


def test_scalar_add_broadcast():
    a = dc.parameter(np.ones((2, 2)))
    c = dc.parameter(np.asarray(2.5))
    out = dc.add(a, c)
    np.testing.assert_allclose(out.value, np.full((2, 2), 3.5))
    grads = dc.backward(dc.reduce_sum(out), params=[a, c])
    assert grads[c] == pytest.approx(4.0)
    np.testing.assert_allclose(grads[a], np.ones((2, 2)))


# ---------------------------------------------------------------------------
# grad_check
# ---------------------------------------------------------------------------

def test_grad_check_square():
    err = dc.grad_check(lambda v: dc.reduce_sum(dc.square(v)), [3.0])
    assert err < 1e-8


def test_grad_check_dead_parameter():
    # second coordinate never used
    def fn(v):
        return dc.square(dc.reduce_sum(dc.mul(v, dc.constant([1.0, 0.0]))))

    err = dc.grad_check(fn, [2.0, 5.0])
    assert err < 1e-8


def test_grad_check_validates_step():
    with pytest.raises(ValueError):
        dc.grad_check(lambda v: dc.reduce_sum(v), [1.0], step=0.5)


def test_grad_check_rejects_non_finite():
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            dc.grad_check(lambda v: dc.log(dc.reduce_sum(v)), [-1.0])

