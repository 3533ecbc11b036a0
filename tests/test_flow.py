import math

import numpy as np
import pytest

from frmdn import diffcore as dc
from frmdn import flow as fl


def randomize_flow(stack, rng, weight_scale=0.3):
    """Give the zero-initialized output layers nonzero weights so the stack
    is no longer the identity."""
    for layer in stack.layers:
        for node in (layer.w2s, layer.w2t):
            node.value = rng.normal(size=node.value.shape) * weight_scale
        for node in (layer.b2s, layer.b2t):
            node.value = rng.normal(size=node.value.shape) * weight_scale
    return stack


def forward_values(x, stack):
    z, ld = fl.flow_forward(x, stack)
    return z.value, ld.value


def numerical_jacobian_logdet(fn, x0, step=1e-6):
    """log |det J| of fn: R^d -> R^d by central differences at x0."""
    d = x0.size
    jac = np.zeros((d, d))
    for j in range(d):
        hi = x0.copy()
        hi[j] += step
        lo = x0.copy()
        lo[j] -= step
        jac[:, j] = (fn(hi) - fn(lo)) / (2 * step)
    sign, ld = np.linalg.slogdet(jac)
    assert sign != 0
    return ld


def test_zero_initialized_layer_is_identity():
    rng = np.random.default_rng(0)
    layer = fl.make_coupling_layer(4, [1, 0, 1, 0], rng)
    x = rng.normal(size=(5, 4))
    y, ld = fl.coupling_forward(dc.constant(x), layer)
    np.testing.assert_array_equal(y.value, x)
    np.testing.assert_array_equal(ld.value, np.zeros(5))


def test_constant_affine_layer_analytic():
    rng = np.random.default_rng(1)
    layer = fl.make_coupling_layer(2, [1, 0], rng)
    # all net weights zero except output biases: s_hat = ln 3, t = 1
    layer.w1s.value[:] = 0.0
    layer.w1t.value[:] = 0.0
    layer.b2s.value[:] = math.atanh(math.log(3.0) / layer.s_clamp)
    layer.b2t.value[:] = 1.0
    x = rng.normal(size=(10, 2))
    y, ld = fl.coupling_forward(dc.constant(x), layer)
    np.testing.assert_allclose(y.value[:, 0], x[:, 0])
    np.testing.assert_allclose(y.value[:, 1], 3.0 * x[:, 1] + 1.0, atol=1e-12)
    np.testing.assert_allclose(ld.value, math.log(3.0), atol=1e-12)
    # inverse recovers x2 = (y2 - 1) / 3
    back = fl.coupling_inverse(y.value, layer)
    np.testing.assert_allclose(back[:, 1], (y.value[:, 1] - 1.0) / 3.0, atol=1e-12)
    np.testing.assert_allclose(back, x, atol=1e-12)


def test_layer_logdet_matches_numerical_jacobian():
    rng = np.random.default_rng(2)
    layer = fl.make_coupling_layer(4, [0, 1, 1, 0], rng)
    randomize_flow(fl.FlowStack([layer]), rng)
    x0 = rng.normal(size=4)

    def fmap(x):
        y, _ = fl.coupling_forward(dc.constant(x.reshape(1, -1)), layer)
        return y.value[0]

    _, ld = fl.coupling_forward(dc.constant(x0.reshape(1, -1)), layer)
    assert float(ld.value[0]) == pytest.approx(
        numerical_jacobian_logdet(fmap, x0), abs=1e-5
    )


def test_round_trip_single_layer():
    rng = np.random.default_rng(3)
    layer = fl.make_coupling_layer(6, [1, 0, 1, 0, 1, 0], rng)
    randomize_flow(fl.FlowStack([layer]), rng)
    x = rng.normal(size=(1000, 6)) * 2.0
    y, _ = fl.coupling_forward(dc.constant(x), layer)
    back = fl.coupling_inverse(y.value, layer)
    assert np.abs(back - x).max() < 1e-9


def test_empty_stack_is_identity():
    stack = fl.FlowStack([])
    x = np.random.default_rng(4).normal(size=(7, 3))
    z, ld = forward_values(x, stack)
    np.testing.assert_array_equal(z, x)
    np.testing.assert_array_equal(ld, np.zeros(7))
    np.testing.assert_array_equal(fl.flow_inverse(x, stack), x)


def test_fresh_stack_is_identity():
    rng = np.random.default_rng(5)
    stack = fl.make_flow(4, 1, rng)
    x = rng.normal(size=(9, 4))
    z, ld = forward_values(x, stack)
    np.testing.assert_array_equal(z, x)
    np.testing.assert_array_equal(ld, np.zeros(9))


def test_stack_logdet_matches_composite_jacobian():
    rng = np.random.default_rng(6)
    stack = randomize_flow(fl.make_flow(6, 3, rng, hidden=16), rng)

    def fmap(x):
        z, _ = fl.flow_forward(x.reshape(1, -1), stack)
        return z.value[0]

    for _ in range(3):
        x0 = rng.normal(size=6)
        _, ld = fl.flow_forward(x0.reshape(1, -1), stack)
        assert float(ld.value[0]) == pytest.approx(
            numerical_jacobian_logdet(fmap, x0), abs=1e-4
        )


def test_round_trip_deep_and_wide():
    # weight scale keeps per-layer expansion moderate; at 8 layers of
    # unbounded growth float64 cannot hold a 1e-9 absolute round trip
    rng = np.random.default_rng(7)
    for dim, pairs in ((8, 4), (64, 2), (3, 1)):
        stack = randomize_flow(fl.make_flow(dim, pairs, rng, hidden=32), rng, 0.1)
        x = rng.normal(size=(10_000, dim)) * 1.5
        z, _ = forward_values(x, stack)
        back = fl.flow_inverse(z, stack)
        assert np.abs(back - x).max() < 1e-9, (dim, pairs)


def test_logdet_additivity_by_instrumentation():
    rng = np.random.default_rng(8)
    stack = randomize_flow(fl.make_flow(4, 2, rng, hidden=8), rng)
    x = rng.normal(size=(20, 4))
    _, total = fl.flow_forward(x, stack)
    # replay layer by layer at the true intermediate points
    cur = dc.constant(x)
    acc = np.zeros(20)
    for layer in stack.layers:
        cur, ld = fl.coupling_forward(cur, layer)
        acc = acc + ld.value
    np.testing.assert_array_equal(total.value, acc)


def test_log_scale_bound():
    rng = np.random.default_rng(9)
    layer = fl.make_coupling_layer(4, [1, 1, 0, 0], rng, s_clamp=5.0)
    # enormous output weights cannot push s_hat past the clamp
    layer.w2s.value = rng.normal(size=layer.w2s.value.shape) * 100.0
    x = rng.normal(size=(500, 4)) * 5.0
    xp = x[:, layer.pass_idx]
    s_hat, _, _ = fl.coupling_nets(layer, xp)
    assert np.abs(s_hat).max() <= 5.0


def weighted_sum(node, weights):
    """sum_i weights_i * node_i for a 1-D node, on tape ops."""
    row = dc.output_view(node, np.s_[...], (1, weights.size))
    return dc.reduce_mean(dc.matmul(row, dc.constant(weights[:, None])))


def test_coupling_op_gradients_match_central_differences():
    rng = np.random.default_rng(13)
    n, dim = 4, 5                    # odd: three pass-through, two transformed
    layer = fl.make_coupling_layer(dim, [1, 0, 1, 0, 1], rng, hidden=6)
    randomize_flow(fl.FlowStack([layer]), rng, weight_scale=0.5)
    x = rng.normal(size=(n, dim))
    # fixed probes on both outputs, different for every entry of y and ld
    left = rng.normal(size=(3, n))
    right = rng.normal(size=(dim, 2))
    ld_weights = rng.normal(size=n)
    named = [("x", x)] + [(name, node.value) for name, node in layer.parameters()]

    def loss(x_node):
        y, ld = fl.coupling_forward(x_node, layer)
        probe = dc.matmul(dc.matmul(dc.constant(left), y), dc.constant(right))
        return dc.add(dc.reduce_mean(probe), weighted_sum(ld, ld_weights))

    x_leaf = dc.parameter(x)
    leaves = [x_leaf] + [node for _, node in layer.parameters()]
    grads = dc.backward(loss(x_leaf), params=leaves)
    step = 1e-6
    for (name, arr), leaf in zip(named, leaves):
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(loss(dc.constant(x)).value)
            flat[i] = orig - step
            lo = float(loss(dc.constant(x)).value)
            flat[i] = orig
            numeric = (hi - lo) / (2 * step)
            analytic = grads[leaf].reshape(-1)[i]
            rel = abs(analytic - numeric) / max(1.0, abs(analytic))
            assert rel < 1e-6, f"{name} coordinate {i}: {rel:.3e}"


def test_change_of_variables_normalization_2d():
    rng = np.random.default_rng(10)
    stack = randomize_flow(fl.make_flow(2, 1, rng, hidden=16), rng, 0.05)
    grid = np.linspace(-15.0, 15.0, 400)
    cell = (grid[1] - grid[0]) ** 2
    xx, yy = np.meshgrid(grid, grid)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    z, ld = forward_values(pts, stack)
    log_base = -0.5 * (z ** 2).sum(axis=1) - math.log(2 * math.pi)
    density = np.exp(log_base + ld)
    assert density.sum() * cell == pytest.approx(1.0, abs=1e-3)


def test_mask_must_mix():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError, match="mask"):
        fl.make_coupling_layer(3, [1, 1, 1], rng)
    with pytest.raises(ValueError, match="dim >= 2"):
        fl.make_flow(1, 1, rng)


def test_flow_inverse_of_forward_is_identity():
    rng = np.random.default_rng(12)
    stack = randomize_flow(fl.make_flow(5, 2, rng, hidden=8), rng)
    x = rng.normal(size=(256, 5))
    z, _ = forward_values(x, stack)
    np.testing.assert_allclose(fl.flow_inverse(z, stack), x, atol=1e-9)
    # and forward of inverse
    z2, _ = forward_values(fl.flow_inverse(x, stack), stack)
    np.testing.assert_allclose(z2, x, atol=1e-9)
