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


def one_layer(x, layer):
    """(y, log-det) nodes of a single layer on rows x (n, d)."""
    return fl.flow_forward(x, fl.FlowStack([layer]))


def with_logdet(x, logdet=0.0):
    """The rows [x | logdet] (n, d + 1) a coupling layer reads."""
    return np.column_stack([x, np.broadcast_to(logdet, x.shape[:1])])


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


# (dim, parity) of single layers: odd and even widths, both parities
LAYERS = [(dim, parity) for dim in (2, 3, 4, 5) for parity in (0, 1)]


def columns(layer, idx):
    """The coordinates a layer's slice selects, as an index array."""
    return np.arange(layer.dim)[idx]


def test_zero_initialized_layer_is_identity():
    for dim, parity in LAYERS:
        rng = np.random.default_rng(0)
        layer = fl.make_coupling_layer(dim, parity, rng)
        x = rng.normal(size=(5, dim))
        y, ld = one_layer(x, layer)
        np.testing.assert_array_equal(y.value, x)
        np.testing.assert_array_equal(ld.value, np.zeros(5))


def test_constant_affine_layer_analytic():
    for dim, parity in LAYERS:
        rng = np.random.default_rng(1)
        layer = fl.make_coupling_layer(dim, parity, rng)
        pas = columns(layer, layer.pass_idx)
        trans = columns(layer, layer.trans_idx)
        # all net weights zero except output biases: s_hat = ln 3, t = 1
        layer.w1s.value[:] = 0.0
        layer.w1t.value[:] = 0.0
        layer.b2s.value[:] = math.atanh(math.log(3.0) / layer.s_clamp)
        layer.b2t.value[:] = 1.0
        x = rng.normal(size=(10, dim))
        y, ld = one_layer(x, layer)
        np.testing.assert_allclose(y.value[:, pas], x[:, pas])
        np.testing.assert_allclose(y.value[:, trans], 3.0 * x[:, trans] + 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(ld.value, trans.size * math.log(3.0),
                                   atol=1e-12)
        # inverse recovers x_t = (y_t - 1) / 3
        back = fl.coupling_inverse(y.value, fl.inverse_net(layer))
        np.testing.assert_allclose(back[:, trans],
                                   (y.value[:, trans] - 1.0) / 3.0, atol=1e-12)
        np.testing.assert_allclose(back, x, atol=1e-12)


def test_layer_logdet_matches_numerical_jacobian():
    for dim, parity in LAYERS:
        rng = np.random.default_rng(2)
        layer = fl.make_coupling_layer(dim, parity, rng)
        randomize_flow(fl.FlowStack([layer]), rng)
        x0 = rng.normal(size=dim)

        def fmap(x):
            y, _ = one_layer(x.reshape(1, -1), layer)
            return y.value[0]

        _, ld = one_layer(x0.reshape(1, -1), layer)
        assert float(ld.value[0]) == pytest.approx(
            numerical_jacobian_logdet(fmap, x0), abs=1e-5
        )


def test_round_trip_single_layer():
    for dim, parity in [(6, 0), (6, 1), (7, 0), (7, 1)]:
        rng = np.random.default_rng(3)
        layer = fl.make_coupling_layer(dim, parity, rng)
        randomize_flow(fl.FlowStack([layer]), rng)
        x = rng.normal(size=(1000, dim)) * 2.0
        y, _ = one_layer(x, layer)
        back = fl.coupling_inverse(y.value, fl.inverse_net(layer))
        assert np.abs(back - x).max() < 1e-9


def test_empty_stack_is_identity():
    # the empty chain, on the tape and on plain arrays: y and zero
    # log-determinants
    stack = fl.FlowStack([])
    x = np.random.default_rng(4).normal(size=(7, 3))
    for z, ld in (forward_values(x, stack), fl.flow_rows(x, stack)):
        assert_same_bytes(np.ascontiguousarray(z), x)
        assert_same_bytes(np.ascontiguousarray(ld), np.zeros(7))
    np.testing.assert_array_equal(fl.flow_inverse(x, stack), x)


def test_chain_adds_to_the_logdet_column_it_starts_from():
    # a layer adds its log-determinant to the column it reads, and the
    # column's gradient passes straight through to the input's
    rng = np.random.default_rng(19)
    stack = randomize_flow(fl.make_flow(5, 1, rng, hidden=8), rng)
    x = rng.normal(size=(6, 5))
    start = rng.normal(size=6)
    z, ld = fl.flow_rows(x, stack)
    rows = with_logdet(x, start)
    for layer in stack.layers:
        rows = fl.coupling_rows(rows, layer)[0]
    assert_same_bytes(rows[:, :5], np.ascontiguousarray(z))
    np.testing.assert_allclose(rows[:, 5], start + ld, rtol=0, atol=1e-14)
    _, rule = fl.coupling_rows(with_logdet(x, start), stack.layers[0])
    g = rng.normal(size=(6, 6))
    np.testing.assert_array_equal(rule(g, True)[0][:, 5], g[:, 5])


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
    cur = x
    acc = np.zeros(20)
    for layer in stack.layers:
        cur, ld = one_layer(cur, layer)
        cur = cur.value
        acc = acc + ld.value
    np.testing.assert_array_equal(total.value, acc)


def test_log_scale_bound():
    for dim, parity in LAYERS:
        rng = np.random.default_rng(9)
        layer = fl.make_coupling_layer(dim, parity, rng, s_clamp=5.0)
        # enormous output weights cannot push s_hat past the clamp
        layer.w2s.value = rng.normal(size=layer.w2s.value.shape) * 100.0
        x = rng.normal(size=(500, dim)) * 5.0
        xp = x[:, layer.pass_idx]
        s_hat, _, _ = fl.coupling_nets(layer, xp)
        assert np.abs(s_hat).max() <= 5.0


def weighted_sum(node, weights):
    """sum_i weights_i * node_i for a 1-D node, on tape ops."""
    row = dc.output_view(node, np.s_[...], (1, weights.size))
    return dc.reduce_mean(dc.matmul(row, dc.constant(weights[:, None])))


def test_coupling_op_gradients_match_central_differences():
    n = 4
    # width 5 passes three coordinates through at parity 0, two at parity 1
    for dim, parity in [(5, 0), (5, 1), (4, 0), (4, 1)]:
        rng = np.random.default_rng(13)
        layer = fl.make_coupling_layer(dim, parity, rng, hidden=6)
        randomize_flow(fl.FlowStack([layer]), rng, weight_scale=0.5)
        # input rows [x | log-det so far], the column nonzero
        x = with_logdet(rng.normal(size=(n, dim)), rng.normal(size=n))
        # fixed probes on both outputs, different for every entry of y and ld
        left = rng.normal(size=(3, n))
        right = rng.normal(size=(dim, 2))
        ld_weights = rng.normal(size=n)
        named = [("x", x)] + [(name, node.value)
                              for name, node in layer.parameters()]

        def loss(x_node):
            out = fl.coupling_forward(x_node, layer)
            y = dc.output_view(out, np.s_[:, :dim], (n, dim))
            ld = dc.output_view(out, np.s_[:, dim], (n,))
            probe = dc.matmul(dc.matmul(dc.constant(left), y),
                              dc.constant(right))
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


def test_coupling_layer_rejects_dim_below_2_and_parity_2():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError, match="parity must be 0 or 1, got 2"):
        fl.make_coupling_layer(3, 2, rng)
    for dim in (0, 1):
        with pytest.raises(ValueError, match="dim >= 2"):
            fl.make_coupling_layer(dim, 0, rng)
        with pytest.raises(ValueError, match="dim >= 2"):
            fl.make_flow(dim, 1, rng)


def test_make_flow_alternates_parity_and_splits_every_coordinate():
    for dim in range(2, 8):
        stack = fl.make_flow(dim, 3, np.random.default_rng(17), hidden=4)
        assert [layer.parity for layer in stack.layers] == [0, 1, 0, 1, 0, 1]
        for layer in stack.layers:
            pas = set(columns(layer, layer.pass_idx))
            trans = set(columns(layer, layer.trans_idx))
            assert pas and trans and not pas & trans
            assert pas | trans == set(range(dim))
            assert min(pas) == layer.parity


def test_flow_inverse_of_forward_is_identity():
    rng = np.random.default_rng(12)
    stack = randomize_flow(fl.make_flow(5, 2, rng, hidden=8), rng)
    x = rng.normal(size=(256, 5))
    z, _ = forward_values(x, stack)
    np.testing.assert_allclose(fl.flow_inverse(z, stack), x, atol=1e-9)
    # and forward of inverse
    z2, _ = forward_values(fl.flow_inverse(x, stack), stack)
    np.testing.assert_allclose(z2, x, atol=1e-9)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_within(got, want, rel):
    """Every entry of got within rel of want's largest magnitude."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def inverse_by_index_arrays(y, layer):
    """One layer's inverse with the s and t nets' first layers joined into
    one (d_pass, 2h) product, as `inverse_net` joins them, and the
    transformed columns read and written through an index array of the
    layer's coordinates.  The pass-through block is the strided view of
    the layer's parity slice, as the inverse reads it: on one row of two
    strided columns numpy multiplies by its own loop, which rounds apart
    from BLAS on a contiguous gather."""
    trans = columns(layer, layer.trans_idx)
    h = layer.w1s.value.shape[1]
    w1 = np.concatenate([layer.w1s.value, layer.w1t.value], axis=1)
    b1 = np.concatenate([layer.b1s.value, layer.b1t.value])
    a = np.tanh(y[:, layer.pass_idx] @ w1 + b1)
    ts = np.tanh(a[:, :h] @ layer.w2s.value + layer.b2s.value)
    t = a[:, h:] @ layer.w2t.value + layer.b2t.value
    x = y.copy()
    x[:, trans] = (y[:, trans] - t) * np.exp(-layer.s_clamp * ts)
    return x


def inverse_by_separate_nets(y, layer):
    """One layer's inverse in the arithmetic before the first layers were
    joined at every width: `coupling_nets`' two separate first-layer
    products on a contiguous pass-through block, gathered through an
    index array."""
    pas, trans = columns(layer, layer.pass_idx), columns(layer, layer.trans_idx)
    s_hat, t, _ = fl.coupling_nets(layer, np.ascontiguousarray(y[:, pas]))
    x = y.copy()
    x[:, trans] = (y[:, trans] - t) * np.exp(-s_hat)
    return x


@pytest.mark.parametrize("dim", range(2, 17))
def test_coupling_inverse_keeps_the_index_array_bits(dim):
    # one row or many, the inverse from prepared arrays equals the joined
    # nets' arithmetic and the call that prepares its own bit for bit
    rng = np.random.default_rng(14)
    stack = randomize_flow(fl.make_flow(dim, 1, rng, hidden=64), rng, 0.4)
    nets = fl.inverse_nets(stack)
    assert [layer.parity for layer in stack.layers] == [0, 1]
    for layer, net in zip(stack.layers, reversed(nets)):
        for rows in (1, 7):
            y = rng.normal(size=(rows, dim))
            back = fl.coupling_inverse(y, net)
            assert_same_bytes(back, inverse_by_index_arrays(y, layer))
    for rows in (1, 7):
        z = rng.normal(size=(rows, dim))
        back = fl.flow_inverse(z, stack, nets)
        assert_same_bytes(back, fl.flow_inverse(z, stack))
        want = z
        for layer in reversed(stack.layers):
            want = inverse_by_index_arrays(want, layer)
        assert_same_bytes(back, want)


def rows_by_index_arrays(x, g, layer, gather=np.ascontiguousarray):
    """`coupling_rows`' [y | log-det] rows on [x | log-det] rows x and its
    rule's gradients for out-gradient g, with every block gathered through
    index arrays of the layer's coordinates and laid out by `gather`:
    C-ordered copies, as `coupling_rows` makes them, by default."""
    pas, trans = columns(layer, layer.pass_idx), columns(layer, layer.trans_idx)
    xp, xt, g_t = gather(x[:, pas]), gather(x[:, trans]), gather(g[:, trans])
    s_hat, t, (hs, ts, ht) = fl.coupling_nets(layer, xp)
    scale = np.exp(s_hat)
    out = np.empty((x.shape[0], layer.dim + 1))
    out[:, pas] = xp
    out[:, trans] = xt * scale + t
    out[:, -1] = x[:, -1] + s_hat.sum(axis=1)
    g_bs = (g_t * xt * scale + g[:, -1:]) * (layer.s_clamp * (1.0 - ts * ts))
    g_as = (g_bs @ layer.w2s.value.T) * (1.0 - hs * hs)
    g_at = (g_t @ layer.w2t.value.T) * (1.0 - ht * ht)
    g_x = np.empty_like(x)
    g_x[:, pas] = g[:, pas] + g_as @ layer.w1s.value.T + g_at @ layer.w1t.value.T
    g_x[:, trans] = g_t * scale
    g_x[:, -1] = g[:, -1]
    return [out, g_x, xp.T @ g_as, g_as.sum(axis=0), hs.T @ g_bs,
            g_bs.sum(axis=0), xp.T @ g_at, g_at.sum(axis=0), ht.T @ g_t,
            g_t.sum(axis=0)]


def coupling_rows_cases(dim, seed):
    """(layer, x, g) at net widths 1, 8 and 64, both parities and 1 to 496
    rows, the evaluation chunk of the acceptance shape; x holds the start
    rows [x | 0] of a chain."""
    rng = np.random.default_rng(seed)
    for hidden in (1, 8, 64):
        stack = randomize_flow(fl.make_flow(dim, 1, rng, hidden=hidden), rng, 0.4)
        for layer in stack.layers:
            for rows in (1, 2, 9, 64, 496):
                yield (layer, with_logdet(rng.normal(size=(rows, dim))),
                       rng.normal(size=(rows, dim + 1)))


@pytest.mark.parametrize("dim", range(2, 17))
def test_coupling_rows_keep_the_index_array_bits(dim):
    # the parity slices select the same columns as index arrays, and the
    # blocks copied out of them are C-ordered like the oracle's
    for layer, x, g in coupling_rows_cases(dim, 18):
        out, rule = fl.coupling_rows(x, layer)
        got = [out] + list(rule(g, True))
        for a, b in zip(got, rows_by_index_arrays(x, g, layer)):
            assert_same_bytes(np.ascontiguousarray(a), np.ascontiguousarray(b))


@pytest.mark.parametrize("dim", range(2, 17))
def test_flow_bits_stay_within_1e_12_of_the_old_arithmetic(dim):
    # the products and column sums round by their blocks' layout, and a
    # joined first layer by its width, so C-ordered blocks and first layers
    # joined at every width moved bits: no further than 1e-12 of an array's
    # largest entry from the F-ordered blocks (an index-array gather's
    # layout on many rows) and the two separate products
    for layer, x, g in coupling_rows_cases(dim, 18):
        out, rule = fl.coupling_rows(x, layer)
        old = rows_by_index_arrays(x, g, layer, np.asfortranarray)
        for a, b in zip([out] + list(rule(g, True)), old):
            assert_within(a, b, 1e-12)
        for rows in (1, 7):
            y = np.ascontiguousarray(x[:rows, :dim])
            assert_within(fl.coupling_inverse(y, fl.inverse_net(layer)),
                          inverse_by_separate_nets(y, layer), 1e-12)


@pytest.mark.parametrize("hidden", [1, 2, 3, 4, 5, 6, 7, 9, 12, 15, 16, 33])
def test_inverse_keeps_its_bits_at_every_net_width(hidden):
    # the first layers are joined at every width, whether or not the BLAS
    # kernels block it evenly, and the oracle joins them as well
    rng = np.random.default_rng(15)
    for dim in (3, 4, 7):
        stack = randomize_flow(fl.make_flow(dim, 1, rng, hidden=hidden), rng, 0.4)
        for layer, net in zip(stack.layers, reversed(fl.inverse_nets(stack))):
            for rows in (1, 2, 7):
                y = rng.normal(size=(rows, dim))
                assert_same_bytes(fl.coupling_inverse(y, net),
                                  inverse_by_index_arrays(y, layer))
                assert_within(fl.coupling_inverse(y, net),
                              inverse_by_separate_nets(y, layer), 1e-12)


def test_inverse_nets_copy_the_first_layers():
    # the joined first layers are copies: a write to the parameters after
    # the arrays are built does not reach them, and a fresh build sees it
    rng = np.random.default_rng(16)
    stack = randomize_flow(fl.make_flow(4, 1, rng, hidden=8), rng, 0.4)
    z = rng.normal(size=(1, 4))
    nets = fl.inverse_nets(stack)
    first = fl.flow_inverse(z, stack, nets)
    stack.layers[1].w1t.value[...] += 0.5
    assert_same_bytes(fl.flow_inverse(z, stack, nets), first)
    assert not np.array_equal(fl.flow_inverse(z, stack), first)
