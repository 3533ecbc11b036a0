import numpy as np
import pytest

from frmdn import diffcore as dc
from frmdn import flow as fl


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


def sum_of_squares(node):
    """sum(node ** 2) on tape ops: the flattened node times itself."""
    size = node.value.size
    row = dc.output_view(node, np.s_[...], (1, size))
    col = dc.output_view(node, np.s_[...], (size, 1))
    return dc.reduce_mean(dc.matmul(row, col))


def test_matmul_against_naive_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 1))
    node = dc.matmul(dc.constant(a), dc.constant(b))
    np.testing.assert_allclose(node.value, naive_matmul(a, b), rtol=0, atol=1e-14)


def test_backward_sum_of_squares():
    x = dc.parameter([1.0, 2.0])
    root = sum_of_squares(x)
    grads = dc.backward(root)
    np.testing.assert_allclose(grads[x], [2.0, 4.0])
    # gradients live only in the returned map: a second pass does not
    # accumulate onto the first
    np.testing.assert_array_equal(dc.backward(root)[x], grads[x])


def test_backward_constant_root_empty_map():
    root = sum_of_squares(dc.constant([1.0, 2.0]))
    assert dc.backward(root) == {}


def test_backward_unreachable_param_gets_zero():
    x = dc.parameter([1.0, 2.0])
    dead = dc.parameter([5.0])
    root = sum_of_squares(x)
    grads = dc.backward(root, params=[x, dead])
    np.testing.assert_allclose(grads[dead], [0.0])


def test_backward_listing_reached_params_allocates_nothing_more():
    import tracemalloc

    rng = np.random.default_rng(0)
    a = dc.parameter(rng.normal(size=(2000, 64)))
    b = dc.parameter(rng.normal(size=(64, 1)))
    root = dc.reduce_mean(dc.matmul(a, b))

    def peak(**kw):
        tracemalloc.start()
        try:
            dc.backward(root, **kw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the slack covers the result dict, far below one (2000, 64) array
    assert peak(params=[a, b]) <= peak() + 4096

    dead = dc.parameter(np.ones(3))
    grads = dc.backward(root, params=[a, b, dead])
    np.testing.assert_array_equal(grads[a], dc.backward(root)[a])
    np.testing.assert_array_equal(grads[dead], np.zeros(3))


def test_composite_tanh_dot_grad_matches_finite_differences():
    # tanh(w . x) as the shift net of a coupling layer with one hidden
    # unit: the transformed coordinate becomes x_t + tanh(w . x_pass)
    rng = np.random.default_rng(1)
    w0 = rng.normal(size=4)
    x = rng.normal(size=4)
    layer = fl.make_coupling_layer(5, [1, 1, 1, 1, 0], rng, hidden=1)
    layer.w1t.value = w0.reshape(4, 1)
    layer.w2t.value = np.ones((1, 1))

    def loss(wv):
        return float(np.tanh(np.dot(wv, x)))

    point = np.append(x, 0.0).reshape(1, 5)
    y, _ = fl.coupling_forward(dc.constant(point), layer)
    root = dc.reduce_mean(dc.matmul(y, dc.constant([[0.0]] * 4 + [[1.0]])))
    assert float(root.value) == pytest.approx(loss(w0), abs=1e-15)
    analytic = dc.backward(root)[layer.w1t].ravel()
    numeric = central_diff(loss, w0.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


def test_backward_long_chain():
    # 10,000 chained ops: the sweep neither recurses nor searches the graph
    x = dc.parameter([1.5])
    node = x
    for _ in range(10_000):
        node = dc.neg(node)
    grads = dc.backward(dc.reduce_mean(dc.add(node, node)))
    np.testing.assert_array_equal(grads[x], [2.0])


def test_backward_rejects_non_scalar_root():
    x = dc.parameter([1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        dc.backward(dc.neg(x))


def test_shape_mismatch_error_names_op_and_shapes():
    a = dc.constant(np.zeros((2, 3)))
    b = dc.constant(np.zeros((3, 3)))
    with pytest.raises(dc.ShapeMismatchError) as exc:
        dc.add(a, b)
    assert exc.value.op == "add"
    assert exc.value.shapes == ((2, 3), (3, 3))
    assert "add" in str(exc.value) and "(2, 3)" in str(exc.value)


def test_matmul_shape_error():
    with pytest.raises(dc.ShapeMismatchError):
        dc.matmul(dc.constant(np.zeros((2, 3))), dc.constant(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# per-op gradient sweep against central differences
# ---------------------------------------------------------------------------

def _random_inputs(op, rng):
    """Small random operands with shapes conforming to the op's rule."""
    if op is dc.add:
        s = (3, 4)
        return [rng.normal(size=s), rng.normal(size=s)], {}
    if op is dc.matmul:
        return [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))], {}
    return [rng.normal(size=(3, 4))], {}


SWEPT_OPS = [
    pytest.param(op, id=tag) for tag, op in (
        ("add", dc.add), ("matmul", dc.matmul), ("neg", dc.neg),
        ("mean", dc.reduce_mean),
    )
]


@pytest.mark.parametrize("op", SWEPT_OPS)
def test_gradient_matches_central_differences(op):
    rng = np.random.default_rng(42)
    for _ in range(100):
        arrays, attrs = _random_inputs(op, rng)
        leaves = [dc.parameter(a) for a in arrays]
        root = sum_of_squares(op(*leaves, **attrs))
        grads = dc.backward(root, params=leaves)
        step = 1e-5
        for leaf, arr in zip(leaves, arrays):
            def fn(x, leaf_index=leaves.index(leaf)):
                vals = [a.copy() for a in arrays]
                vals[leaf_index] = x
                nodes = [dc.constant(v) for v in vals]
                return float(sum_of_squares(op(*nodes, **attrs)).value)

            numeric = central_diff(fn, arr.copy(), step)
            denom = np.maximum(1.0, np.abs(grads[leaf]))
            rel = np.abs(grads[leaf] - numeric) / denom
            assert rel.max() < 1e-5, f"{op.__name__}: max rel err {rel.max():.3e}"


def test_backward_is_linear():
    rng = np.random.default_rng(7)
    p = dc.constant(rng.normal(size=(1, 2)))
    q = dc.constant(rng.normal(size=(2, 1)))
    for _ in range(20):
        x = dc.parameter(rng.normal(size=(2, 3)))
        y = dc.parameter(rng.normal(size=(3, 2)))

        def f_root(xn, yn):
            return dc.matmul(dc.matmul(p, dc.matmul(xn, yn)), q)

        def g_root(xn, yn):
            xy = dc.matmul(dc.add(xn, xn), yn)
            return dc.matmul(dc.matmul(p, dc.matmul(xy, xy)), q)

        a, b = rng.normal(size=2)
        combined = dc.add(dc.matmul(f_root(x, y), dc.constant([[a]])),
                          dc.matmul(g_root(x, y), dc.constant([[b]])))
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
    b = rng.normal(size=2)

    def build():
        h = dc.add(dc.matmul(dc.parameter(x), dc.parameter(w)), dc.parameter(b))
        return sum_of_squares(dc.reduce_mean(h))

    first = build()
    second = build()
    assert np.array_equal(first.value, second.value)
    g1 = list(dc.backward(first).values())
    g2 = list(dc.backward(second).values())
    assert len(g1) == 3
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)


def test_row_bias_add_broadcast():
    a = dc.parameter(np.ones((3, 2)))
    b = dc.parameter(np.array([1.0, 2.0]))
    out = dc.add(a, b)
    np.testing.assert_allclose(out.value, [[2.0, 3.0]] * 3)
    grads = dc.backward(dc.reduce_mean(out), params=[a, b])
    np.testing.assert_allclose(grads[b], [0.5, 0.5])


# ---------------------------------------------------------------------------
# grad_check
# ---------------------------------------------------------------------------

def test_grad_check_square():
    x = dc.parameter([3.0])
    err = dc.grad_check(lambda: sum_of_squares(x), [x])
    assert err < 1e-8


def test_grad_check_dead_parameter():
    # second coordinate never used: (v . [1, 0])^2
    v = dc.parameter([2.0, 5.0])

    def fn():
        row = dc.output_view(v, np.s_[...], (1, 2))
        s = dc.matmul(row, dc.constant([[1.0], [0.0]]))
        return dc.reduce_mean(dc.matmul(s, s))

    err = dc.grad_check(fn, [v])
    assert err < 1e-8


def test_grad_check_validates_step():
    with pytest.raises(ValueError):
        v = dc.parameter([1.0])
        dc.grad_check(lambda: dc.reduce_mean(v), [v], step=0.5)


def test_grad_check_rejects_non_finite():
    v = dc.parameter([-1.0])
    with pytest.raises(ValueError, match="finite"):
        dc.grad_check(lambda: dc.reduce_mean(dc.add(v, dc.constant([np.inf]))),
                      [v])
