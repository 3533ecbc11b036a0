import sys
import threading
import tracemalloc

import numpy as np
import pytest

from frmdn import diffcore as dc
from frmdn import mixtures as mx
from frmdn import recurrent as rc
import point_densities as pdn


def probe(node, seed=0):
    """A fixed random linear functional of a 2-D node: the mean of
    node @ R."""
    r = np.random.default_rng(seed).normal(size=(node.value.shape[1], 3))
    return dc.reduce_mean(dc.matmul(node, dc.constant(r)))


def unroll(params, xs, state=None):
    """The fused op's hidden outputs over xs (T, q, n_in) as a (T, q, H)
    array, from `state` or else from zeros."""
    steps, q, _ = xs.shape
    if state is None:
        state = rc.initial_state(q, params.hidden)
    rows = rc.lstm_step(xs, state, params)
    return rows.value.reshape(steps, q, params.hidden)


def unroll_loss(params, xs):
    """A fixed linear probe of every hidden output of an unrolled
    sequence."""
    state = rc.initial_state(xs.shape[1], params.hidden)
    return probe(rc.lstm_step(xs, state, params))


def test_zero_weights_give_zero_hidden():
    rng = np.random.default_rng(0)
    params = rc.init_lstm(3, 4, rng)
    params.w.value[:] = 0.0
    params.b.value[:] = 0.0
    np.testing.assert_array_equal(unroll(params, np.ones((3, 2, 3))),
                                  np.zeros((3, 2, 4)))


def test_unrolled_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    params = rc.init_lstm(2, 5, rng)
    xs = rng.normal(size=(5, 3, 2))

    root = unroll_loss(params, xs)
    grads = dc.backward(root, params=[params.w, params.b])

    step = 1e-5
    for node in (params.w, params.b):
        flat = node.value.ravel()
        for i in range(0, flat.size, 7):    # probe a spread of coordinates
            orig = flat[i]
            flat[i] = orig + step
            hi = float(unroll_loss(params, xs).value)
            flat[i] = orig - step
            lo = float(unroll_loss(params, xs).value)
            flat[i] = orig
            numeric = (hi - lo) / (2 * step)
            analytic = grads[node].ravel()[i]
            rel = abs(analytic - numeric) / max(1.0, abs(analytic))
            assert rel < 1e-4


def test_trajectories_are_deterministic():
    rng = np.random.default_rng(2)
    params = rc.init_lstm(3, 8, rng)
    xs = rng.normal(size=(10, 4, 3))
    np.testing.assert_array_equal(unroll(params, xs), unroll(params, xs))


def test_hidden_state_is_bounded():
    rng = np.random.default_rng(3)
    params = rc.init_lstm(2, 6, rng)
    params.w.value *= 50.0     # extreme weights cannot push |h| past 1
    xs = rng.normal(size=(20, 3, 2)) * 10
    assert np.abs(unroll(params, xs)).max() <= 1.0


def test_causality():
    rng = np.random.default_rng(4)
    params = rc.init_lstm(2, 6, rng)
    xs = rng.normal(size=(8, 1, 2))

    base = unroll(params, xs)
    for t in (2, 5, 7):
        bumped = xs.copy()
        bumped[t] += rng.normal(size=(1, 2))
        out = unroll(params, bumped)
        np.testing.assert_array_equal(out[:t], base[:t])
        assert not np.array_equal(out[t], base[t])


def test_lstm_rejects_mismatched_dims():
    rng = np.random.default_rng(5)
    params = rc.init_lstm(3, 4, rng)
    state = rc.initial_state(2, 4)
    for x in (np.ones((1, 2, 5)), np.ones((1, 3, 3)), np.ones((2, 3))):
        with pytest.raises(ValueError, match="lstm_step"):
            rc.lstm_step(x, state, params)
    with pytest.raises(ValueError, match="lstm_step"):
        rc.lstm_step(np.ones((1, 2, 3)), (state[0], np.zeros((2, 5))), params)
    weights = rc.halved_weights(params)
    with pytest.raises(ValueError, match="cell_step"):
        rc.cell_step(np.ones((3, 3)), state, params, weights)
    with pytest.raises(ValueError, match="cell_step"):
        rc.cell_step(np.ones((1, 2, 3)), state, params, weights)
    with pytest.raises(dc.ShapeMismatchError, match="lstm"):
        rc.lstm_step(np.ones((0, 2, 3)), state, params)


def test_forget_gate_bias_initialized_to_one():
    params = rc.init_lstm(3, 4, np.random.default_rng(6))
    np.testing.assert_array_equal(params.b.value[4:8], np.ones(4))
    assert np.all(params.b.value[:4] == 0.0)


# ---------------------------------------------------------------------------
# head
# ---------------------------------------------------------------------------

def test_zero_head_gives_uniform_alpha_zero_mu_unit_scales():
    head = rc.init_head(4, 3, 2, "diagonal", np.random.default_rng(7))
    head.w.value[:] = 0.0
    params = pdn.MixtureParams(*rc.head_project(np.zeros(4), head))
    np.testing.assert_allclose(params.alpha, [1 / 3] * 3)
    np.testing.assert_array_equal(params.mu, np.zeros((3, 2)))
    np.testing.assert_array_equal(params.d_diag, np.ones((3, 2)))


def test_head_alpha_from_constructed_logits():
    head = rc.init_head(2, 2, 1, "diagonal", np.random.default_rng(8))
    head.w.value[:] = 0.0
    head.b.value[:2] = [np.log(2.0), 0.0]
    params = pdn.MixtureParams(*rc.head_project(np.zeros(2), head))
    np.testing.assert_allclose(params.alpha, [2 / 3, 1 / 3], atol=1e-15)


def test_head_invariants_hold_for_random_hidden_states():
    rng = np.random.default_rng(9)
    head = rc.init_head(16, 4, 3, "diagonal", rng)
    head.w.value *= 10.0   # exaggerate logits to stress the activations
    for _ in range(10_000):
        params = pdn.MixtureParams(
            *rc.head_project(rng.normal(size=16) * 3.0, head))
        params.validate()


def test_head_logits_agree_with_head_project():
    rng = np.random.default_rng(10)
    head = rc.init_head(6, 3, 2, "diagonal", rng)
    h = rng.normal(size=(4, 6))
    logits = rc.head_logits(dc.constant(h), head).value
    assert logits.shape == (4, 3 + 2 * 3 * 2)
    # layout K | K*d | K*d, component-major
    for row in range(4):
        params = pdn.MixtureParams(*rc.head_project(h[row], head))
        np.testing.assert_allclose(
            params.alpha, mx.coeffs_from_logits(logits[row, :3]), atol=1e-14
        )
        np.testing.assert_allclose(params.mu.ravel(), logits[row, 3:9],
                                   atol=1e-14)
        np.testing.assert_allclose(
            params.d_diag.ravel(),
            mx.diag_scales_from_logits(logits[row, 9:]),
            atol=1e-14,
        )


def test_tied_head_carries_identity_shared_matrix():
    head = rc.init_head(4, 2, 3, "tied", np.random.default_rng(11))
    assert head.u is not None
    np.testing.assert_array_equal(head.u.value, np.eye(3))
    names = [n for n, _ in head.parameters()]
    assert "head.u" in names


# ---------------------------------------------------------------------------
# fused sequence op
# ---------------------------------------------------------------------------

def test_sequence_call_matches_chained_single_steps():
    # the op multiplies each step's inputs on their own, as cell_step
    # does, so chained single steps and the tape-free unroll equal its
    # rows bit for bit
    rng = np.random.default_rng(12)
    obs_dim, act_dim, hidden, steps, q = 3, 2, 7, 9, 4
    params = rc.init_lstm(obs_dim + act_dim, hidden, rng)
    obs = rng.normal(size=(steps, q, obs_dim))
    acts = rng.normal(size=(steps, q, act_dim))
    xs = np.concatenate([obs, acts], axis=2)

    h_rows = rc.lstm_step(xs, rc.initial_state(q, hidden), params)
    assert h_rows.value.shape == (steps * q, hidden)
    state = rc.initial_state(q, hidden)
    weights = rc.halved_weights(params)
    stepped = []
    for t in range(steps):
        state = rc.cell_step(xs[t], state, params, weights)
        stepped.append(state[0])
    _assert_same_bits(np.stack(stepped), h_rows.value.reshape(steps, q, hidden))
    unrolled = rc.lstm_unroll(xs, rc.initial_state(q, hidden), params)
    _assert_same_bits(unrolled, h_rows.value)


def test_unroll_keeps_no_step_gates():
    # evaluation reuses one gate block and two cell blocks, so its peak
    # is about its (T, q, H) output rows, well below the (T, 4, q, H)
    # gates and tanh(c) rows the train op keeps for its rule
    rng = np.random.default_rng(26)
    n_in, hidden, steps, q = 8, 32, 64, 16
    params = rc.init_lstm(n_in, hidden, rng)
    x = rng.normal(size=(steps, q, n_in))
    state = rc.initial_state(q, hidden)
    tracemalloc.start()
    try:
        rows = rc.lstm_unroll(x, state, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gate_store = 8 * steps * 4 * q * hidden
    assert rows.shape == (steps * q, hidden)
    assert peak < 0.5 * gate_store, (peak, gate_store)


def test_fused_op_gradients_match_central_differences():
    rng = np.random.default_rng(13)
    n_in, hidden, steps, q = 2, 4, 5, 3
    w = rng.uniform(-0.8, 0.8, size=(n_in + hidden, 4 * hidden))
    b = rng.normal(size=4 * hidden) * 0.5
    x = rng.normal(size=(steps, q, n_in))
    h0 = rng.normal(size=(q, hidden)) * 0.5
    c0 = rng.normal(size=(q, hidden))
    # a fixed probe weighting every output row differently, so every
    # gradient path is probed; the input rows are data
    left = rng.normal(size=(2, steps * q))
    arrays = [w, b]

    def loss(nodes):
        w_node, b_node = nodes
        out = rc.lstm_step(x, (h0, c0),
                           rc.LstmParams(w_node, b_node, n_in, hidden))
        return probe(dc.matmul(dc.constant(left), out))

    leaves = [dc.parameter(a) for a in arrays]
    grads = dc.backward(loss(leaves), params=leaves)
    step = 1e-6
    for k, (leaf, arr) in enumerate(zip(leaves, arrays)):
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(loss([dc.constant(a) for a in arrays]).value)
            flat[i] = orig - step
            lo = float(loss([dc.constant(a) for a in arrays]).value)
            flat[i] = orig
            numeric = (hi - lo) / (2 * step)
            analytic = grads[leaf].ravel()[i]
            rel = abs(analytic - numeric) / max(1.0, abs(analytic))
            assert rel < 1e-6, f"parameter {k} coordinate {i}: {rel:.3e}"


def test_single_step_matches_cell_formula():
    rng = np.random.default_rng(15)
    n_in, hidden, q = 3, 4, 5
    params = rc.init_lstm(n_in, hidden, rng)
    params.b.value = rng.normal(size=4 * hidden)
    x = rng.normal(size=(q, n_in))
    h_prev = rng.normal(size=(q, hidden)) * 0.5
    c_prev = rng.normal(size=(q, hidden))
    h, c = rc.cell_step(x, (h_prev, c_prev), params,
                         rc.halved_weights(params))
    rows = rc.lstm_step(x[None], (h_prev, c_prev), params)

    pre = np.concatenate([x, h_prev], axis=1) @ params.w.value + params.b.value
    H = hidden
    i = 1 / (1 + np.exp(-pre[:, :H]))
    f = 1 / (1 + np.exp(-pre[:, H:2 * H]))
    g = np.tanh(pre[:, 2 * H:3 * H])
    o = 1 / (1 + np.exp(-pre[:, 3 * H:]))
    want_c = f * c_prev + i * g
    np.testing.assert_allclose(c, want_c, rtol=0, atol=1e-14)
    np.testing.assert_allclose(h, o * np.tanh(want_c), rtol=0, atol=1e-14)
    # the tape-free step is the op's own loop body, in its summation order
    np.testing.assert_array_equal(rows.value, h)


# ---------------------------------------------------------------------------
# bit-identity lock on the fused op's arithmetic
# ---------------------------------------------------------------------------

def _sigmoid_ref(x):
    return 0.5 * (1.0 + np.tanh(x / 2))


def _lstm_reference(x, w, b, h0, c0, gh, rows=False):
    """A plain per-step LSTM forward and BPTT, each gate block activated on
    its own, in the fused op's arithmetic order: per step and gate block,
    (x_t @ w_x + b) + h_{t-1} @ w_h from (q, H) products with that block's
    columns of w.  The backward runs the recurrent product per gate block
    against a contiguous copy of that block of w_h transposed and sums the
    four products in work order, i, f, o, g, and takes each block's weight
    and bias gradients from its own products and sums over all rows.  With
    `rows`, the backward instead uses the earlier row layout: one product
    of the (q, 4H) gate gradient rows with a contiguous copy of w_h.T, and
    weight products and sums over the (T*q, 4H) rows.  Returns the hidden
    rows (T*q, H) and the gradients of w and b for the output gradient
    gh."""
    steps, q, n_in = x.shape
    hid = h0.shape[1]
    w_x, w_h = w[:n_in], w[n_in:]
    x_rows = x.reshape(steps * q, n_in)
    blocks = [slice(k * hid, (k + 1) * hid) for k in range(4)]
    hs, cs, acts, tanh_cs = [h0], [c0], [], []
    for t in range(steps):
        a = np.concatenate([x[t] @ w_x[:, sl] + b[sl] + hs[t] @ w_h[:, sl]
                            for sl in blocks], axis=1)
        i = _sigmoid_ref(a[:, :hid])
        f = _sigmoid_ref(a[:, hid:2 * hid])
        g = np.tanh(a[:, 2 * hid:3 * hid])
        o = _sigmoid_ref(a[:, 3 * hid:])
        c = f * cs[t] + i * g
        tanh_cs.append(np.tanh(c))
        cs.append(c)
        hs.append(o * tanh_cs[t])
        acts.append((i, f, g, o))

    gh = gh.reshape(steps, q, hid)
    dh, dc = gh[-1], 0.0
    da = [None] * steps      # per step, the four (q, H) gate blocks
    for t in range(steps - 1, -1, -1):
        i, f, g, o = acts[t]
        dc = dc + dh * o * (1.0 - tanh_cs[t] * tanh_cs[t])
        da[t] = [dc * g * (i * (1.0 - i)),
                 dc * cs[t] * (f * (1.0 - f)),
                 dc * i * (1.0 - g * g),
                 dh * tanh_cs[t] * (o * (1.0 - o))]
        if t:
            dc = dc * f
            if rows:
                dh = np.concatenate(da[t], axis=1) @ np.ascontiguousarray(w_h.T)
            else:
                r = [da_k @ np.ascontiguousarray(w_h[:, sl].T)
                     for da_k, sl in zip(da[t], blocks)]
                dh = r[0] + r[1] + r[3] + r[2]
            dh = dh + gh[t - 1]
    h_rows = np.concatenate(hs[:steps])
    if rows:
        da_rows = np.concatenate([np.concatenate(d, axis=1) for d in da])
        dw = np.concatenate([x_rows.T @ da_rows, h_rows.T @ da_rows])
        return np.concatenate(hs[1:]), dw, da_rows.sum(axis=0)
    da_blocks = [np.concatenate([d[k] for d in da]) for k in range(4)]
    dw = np.concatenate([np.concatenate([x_rows.T @ d for d in da_blocks], axis=1),
                         np.concatenate([h_rows.T @ d for d in da_blocks], axis=1)])
    db = np.concatenate([d.sum(axis=0) for d in da_blocks])
    return np.concatenate(hs[1:]), dw, db


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# (q, hidden) -> input width where it is not 8: the dream world model
# (32, 16) and the v1 checkpoint (2, 4); (66, 128) is an evaluation block
LOCK_INPUTS = {(32, 16): 4, (2, 4): 3}
LOCK_SHAPES = [(1, 16), (16, 16), (16, 128), (66, 128), (32, 16), (2, 4)]


def _lock_case(q, hidden):
    """Weights, inputs, a zero start state and an output gradient whose
    pre-activations reach far past |x| = 40 and include exact zeros."""
    rng = np.random.default_rng(21)
    n_in, steps = LOCK_INPUTS.get((q, hidden), 8), 6
    w = rng.normal(size=(n_in + hidden, 4 * hidden)) * 0.5
    w[:, ::5] *= 200.0                 # pre-activations far past |x| = 40
    w[:, 3::7] = 0.0                   # with x_0 = 0 and h_0 = 0 these
    b = rng.normal(size=4 * hidden)    # columns start at +0.0 + b = +0.0
    b[3::7] = np.where(np.arange(b[3::7].size) % 2, 0.0, -0.0)
    x = rng.normal(size=(steps, q, n_in))
    x[0] = 0.0
    h0, c0 = np.zeros((q, hidden)), np.zeros((q, hidden))
    gh = rng.normal(size=(steps * q, hidden))
    pre = x.reshape(steps * q, n_in) @ w[:n_in] + b
    assert np.abs(pre).max() > 40.0 and np.any(pre == 0.0)
    return x, w, b, h0, c0, gh


def _op_gradients(x, w, b, h0, c0, gh):
    """The op's hidden rows and its gradients of w and b for gh."""
    n_in, hidden = x.shape[2], h0.shape[1]
    params = rc.LstmParams(dc.parameter(w), dc.parameter(b), n_in, hidden)
    out = rc.lstm_step(x, (h0, c0), params)
    assert out.parents == (params.w, params.b)
    dw, db = out._rule(gh)
    return out.value, dw, db


@pytest.mark.parametrize("q,hidden", LOCK_SHAPES)
def test_fused_op_is_bit_identical_to_per_block_reference(q, hidden):
    case = _lock_case(q, hidden)
    got_h, dw, db = _op_gradients(*case)
    want_h, want_dw, want_db = _lstm_reference(*case)
    _assert_same_bits(got_h, want_h)
    _assert_same_bits(dw, want_dw)
    _assert_same_bits(db, want_db)


@pytest.mark.parametrize("q,hidden", LOCK_SHAPES)
def test_fused_op_gradients_only_reorder_the_row_layout_sums(q, hidden):
    # the gate-major backward sums its products in another order than the
    # (q, 4H) row layout did, and moves no gradient further than that
    case = _lock_case(q, hidden)
    _, dw, db = _op_gradients(*case)
    _, rows_dw, rows_db = _lstm_reference(*case, rows=True)
    for got, want in ((dw, rows_dw), (db, rows_db)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_fused_op_directional_derivatives_at_the_acceptance_shape():
    # central differences along one random unit direction per parameter,
    # at the acceptance train step (T = 31, q = 16, H = 128, 8 inputs)
    rng = np.random.default_rng(26)
    steps, q, hidden, n_in = 31, 16, 128, 8
    params = rc.init_lstm(n_in, hidden, rng)
    params.b.value = rng.normal(size=4 * hidden) * 0.5
    x = rng.normal(size=(steps, q, n_in))
    arrays = [params.w.value, params.b.value]
    h0 = rng.normal(size=(q, hidden)) * 0.5
    c0 = rng.normal(size=(q, hidden))
    left = rng.normal(size=(2, steps * q))

    def loss(nodes):
        out = rc.lstm_step(x, (h0, c0),
                           rc.LstmParams(nodes[0], nodes[1], n_in, hidden))
        return probe(dc.matmul(dc.constant(left), out))

    leaves = [dc.parameter(a) for a in arrays]
    grads = dc.backward(loss(leaves), params=leaves)
    step = 1e-5
    for k, (leaf, arr) in enumerate(zip(leaves, arrays)):
        v = rng.standard_normal(arr.shape)
        v /= np.linalg.norm(v)
        analytic = float((grads[leaf] * v).sum())
        moved = list(arrays)
        moved[k] = arr + step * v
        hi = float(loss([dc.constant(a) for a in moved]).value)
        moved[k] = arr - step * v
        lo = float(loss([dc.constant(a) for a in moved]).value)
        numeric = (hi - lo) / (2 * step)
        assert abs(analytic - numeric) <= 1e-6 * max(1.0, abs(numeric)), k


def test_cell_activation_keeps_signed_zeros_and_saturated_tails():
    # lstm_cell takes its blocks in work order (i, f, o, g), the sigmoid
    # gates' pre-activations half-scaled; one step of one row and one of
    # more rows than the old 8,192-value table limit take the one path
    hidden = 4
    row = np.array([-0.0, 0.0, 45.0, -45.0])
    i = f = o = _sigmoid_ref(row)
    g = np.tanh(row)
    for q in (1, 8192 // (4 * hidden) + 1):
        act = np.stack([np.tile(block, (q, 1))
                        for block in (row * 0.5, row * 0.5, row * 0.5, row)])
        c_prev = np.tile([-0.0, 0.0, 1.0, -1.0], (q, 1))
        h, c = rc.lstm_cell(act, c_prev)
        want_c = f * c_prev + i * g
        _assert_same_bits(c, want_c)
        _assert_same_bits(h, o * np.tanh(want_c))
        # the gates are activated in place; g is tanh itself, so -0.0 stays
        for block, want in zip(act, (i, f, o, g)):
            _assert_same_bits(block, np.tile(want, (q, 1)))


@pytest.mark.parametrize("hidden", [6, 16])
@pytest.mark.parametrize("q", [1, 5, 32])
def test_cell_step_equals_one_step_op(q, hidden):
    # generation and a batched rollout engine advance (q, in) rows with
    # cell_step; each must match the op's own first step bit for bit
    rng = np.random.default_rng(22)
    params = rc.init_lstm(4, hidden, rng)
    params.b.value = rng.normal(size=4 * hidden)
    x = rng.normal(size=(q, 4))
    state = (rng.normal(size=(q, hidden)) * 0.5, rng.normal(size=(q, hidden)))
    h, c = rc.cell_step(x, state, params, rc.halved_weights(params))
    rows = rc.lstm_step(x[None], state, params)
    _assert_same_bits(h, rows.value)
    assert h.shape == c.shape == (q, hidden)


@pytest.mark.parametrize("q", [1, 16, 129])
def test_both_activation_paths_equal_the_op(q):
    # one activation path on both sides of the old 8,192-value table limit
    # (128 rows at H = 16): the evaluation unroll equals the op's rows and
    # cell_step its first step, bit for bit
    rng = np.random.default_rng(25)
    hidden, n_in, steps = 16, 3, 4
    params = rc.init_lstm(n_in, hidden, rng)
    params.b.value = rng.normal(size=4 * hidden)
    x = rng.normal(size=(steps, q, n_in))
    state = (rng.normal(size=(q, hidden)) * 0.5, rng.normal(size=(q, hidden)))
    rows = rc.lstm_step(x, state, params).value
    _assert_same_bits(rc.lstm_unroll(x, state, params), rows)
    h, _ = rc.cell_step(x[0], state, params, rc.halved_weights(params))
    _assert_same_bits(h, rows[:q])


# ---------------------------------------------------------------------------
# the evaluation unroll on several threads
# ---------------------------------------------------------------------------

def _split_case(q, hidden=128, n_in=8, steps=31, seed=40):
    rng = np.random.default_rng(seed)
    params = rc.init_lstm(n_in, hidden, rng)
    params.b.value = rng.normal(size=4 * hidden)
    x = rng.normal(size=(steps, q, n_in))
    state = (rng.normal(size=(q, hidden)) * 0.5, rng.normal(size=(q, hidden)))
    return x, state, params


@pytest.mark.parametrize("q,parts", [(128, (1, 2, 2)), (131, (1, 2, 2)),
                                     (192, (1, 2, 3))],
                         ids=["acceptance-block", "uneven", "three-parts"])
def test_split_unroll_gives_the_serial_bytes(monkeypatch, q, parts):
    # the acceptance evaluate block (q = 128, H = 128, T = 31), an uneven
    # q, and a q that three CPUs cut in three, more parts than a 2-core
    # host has cores; every split gives the serial loop's bytes, also with
    # the interpreter lock handed over as often as it can be, and no
    # worker thread outlives the call
    x, state, params = _split_case(q)
    threads = threading.active_count()
    rows = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus, want in zip((1, 2, 3), parts):
            monkeypatch.setattr(rc, "_CPUS", cpus)
            assert rc._unroll_parts(q, params.hidden) == want
            rows.append(rc.lstm_unroll(x, state, params))
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    for got in rows[1:]:
        assert got.tobytes() == rows[0].tobytes()
    _assert_same_bits(rows[0], rc.lstm_step(x, state, params).value)


def test_unroll_parts_keep_two_windows_and_a_full_step_array(monkeypatch):
    for cpus in (1, 2, 3, 4, 13, 64):
        monkeypatch.setattr(rc, "_CPUS", cpus)
        for hidden in (1, 4, 16, 100, 128, 300, 4096, 20000):
            for q in range(1, 1100):
                parts = rc._unroll_parts(q, hidden)
                assert 1 <= parts <= cpus
                if parts == 1:
                    continue
                cuts = [k * q // parts for k in range(parts + 1)]
                fewest = min(hi - lo for lo, hi in zip(cuts, cuts[1:]))
                assert fewest >= 2, (cpus, hidden, q)
                assert 4 * hidden * fewest >= rc._PART_FLOATS, (cpus, hidden, q)
    # the benchmark shapes: evaluate blocks of 128 windows at H = 128 split
    # on two CPUs; 512 windows at H = 16 and training's 16 do not
    monkeypatch.setattr(rc, "_CPUS", 2)
    assert rc._unroll_parts(128, 128) == 2
    assert rc._unroll_parts(512, 16) == rc._unroll_parts(16, 128) == 1


def test_an_error_in_one_part_reaches_the_caller(monkeypatch):
    x, state, params = _split_case(131)
    monkeypatch.setattr(rc, "_CPUS", 2)
    loop = rc._lstm_loop

    def failing(x, *args):
        if x.shape[1] == 66:             # the second of the cuts 0, 65, 131
            raise FloatingPointError("part failed")
        return loop(x, *args)

    monkeypatch.setattr(rc, "_lstm_loop", failing)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="part failed"):
        rc.lstm_unroll(x, state, params)
    assert threading.active_count() == threads
