import numpy as np
import pytest

from frmdn import diffcore as dc
from frmdn import mixtures as mx
from frmdn import recurrent as rc


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
    rows = rc.lstm_step(dc.constant(xs), state, params)
    return rows.value.reshape(steps, q, params.hidden)


def unroll_loss(params, xs):
    """A fixed linear probe of every hidden output of an unrolled
    sequence."""
    state = rc.initial_state(xs.shape[1], params.hidden)
    return probe(rc.lstm_step(dc.constant(xs), state, params))


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
            rc.lstm_step(dc.constant(x), state, params)
    with pytest.raises(ValueError, match="lstm_step"):
        rc.lstm_step(dc.constant(np.ones((1, 2, 3))),
                     (state[0], np.zeros((2, 5))), params)
    with pytest.raises(ValueError, match="cell_step"):
        rc.cell_step(np.ones((3, 3)), state, params)
    with pytest.raises(ValueError, match="cell_step"):
        rc.cell_step(np.ones((1, 2, 3)), state, params)
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
    params = mx.MixtureParams(*rc.head_project(np.zeros(4), head))
    np.testing.assert_allclose(params.alpha, [1 / 3] * 3)
    np.testing.assert_array_equal(params.mu, np.zeros((3, 2)))
    np.testing.assert_array_equal(params.d_diag, np.ones((3, 2)))


def test_head_alpha_from_constructed_logits():
    head = rc.init_head(2, 2, 1, "diagonal", np.random.default_rng(8))
    head.w.value[:] = 0.0
    head.b.value[:2] = [np.log(2.0), 0.0]
    params = mx.MixtureParams(*rc.head_project(np.zeros(2), head))
    np.testing.assert_allclose(params.alpha, [2 / 3, 1 / 3], atol=1e-15)


def test_head_invariants_hold_for_random_hidden_states():
    rng = np.random.default_rng(9)
    head = rc.init_head(16, 4, 3, "diagonal", rng)
    head.w.value *= 10.0   # exaggerate logits to stress the activations
    for _ in range(10_000):
        params = mx.MixtureParams(
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
        params = mx.MixtureParams(*rc.head_project(h[row], head))
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

    h_rows = rc.lstm_step(dc.constant(xs), rc.initial_state(q, hidden), params)
    assert h_rows.value.shape == (steps * q, hidden)
    state = rc.initial_state(q, hidden)
    stepped = []
    for t in range(steps):
        state = rc.cell_step(xs[t], state, params)
        stepped.append(state[0])
    _assert_same_bits(np.stack(stepped), h_rows.value.reshape(steps, q, hidden))
    unrolled = rc.lstm_unroll(xs, rc.initial_state(q, hidden), params)
    _assert_same_bits(unrolled, h_rows.value)


def test_fused_op_gradients_match_central_differences():
    rng = np.random.default_rng(13)
    n_in, hidden, steps, q = 2, 4, 5, 3
    w = rng.uniform(-0.8, 0.8, size=(n_in + hidden, 4 * hidden))
    b = rng.normal(size=4 * hidden) * 0.5
    x = rng.normal(size=(steps, q, n_in))
    h0 = rng.normal(size=(q, hidden)) * 0.5
    c0 = rng.normal(size=(q, hidden))
    # a fixed probe weighting every output row differently, so every
    # gradient path is probed
    left = rng.normal(size=(2, steps * q))
    arrays = [x, w, b]

    def loss(nodes):
        x_node, w_node, b_node = nodes
        out = rc.lstm_step(x_node, (h0, c0),
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
            assert rel < 1e-6, f"input {k} coordinate {i}: {rel:.3e}"


def test_single_step_matches_cell_formula():
    rng = np.random.default_rng(15)
    n_in, hidden, q = 3, 4, 5
    params = rc.init_lstm(n_in, hidden, rng)
    params.b.value = rng.normal(size=4 * hidden)
    x = rng.normal(size=(q, n_in))
    h_prev = rng.normal(size=(q, hidden)) * 0.5
    c_prev = rng.normal(size=(q, hidden))
    h, c = rc.cell_step(x, (h_prev, c_prev), params)
    rows = rc.lstm_step(dc.constant(x[None]), (h_prev, c_prev), params)

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


def _lstm_reference(x, w, b, h0, c0, gh):
    """A plain per-step LSTM forward and BPTT, each gate block activated on
    its own, in the fused op's arithmetic order: per step and gate block,
    (x_t @ w_x + b) + h_{t-1} @ w_h from (q, H) products with that block's
    columns of w, and in the backward the recurrent product against a
    contiguous copy of w_h.T.  Returns the hidden rows (T*q, H) and the
    gradients of w and b for the output gradient gh."""
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
    da = [None] * steps
    for t in range(steps - 1, -1, -1):
        i, f, g, o = acts[t]
        dc = dc + dh * o * (1.0 - tanh_cs[t] * tanh_cs[t])
        da[t] = np.concatenate([dc * g * (i * (1.0 - i)),
                                dc * cs[t] * (f * (1.0 - f)),
                                dc * i * (1.0 - g * g),
                                dh * tanh_cs[t] * (o * (1.0 - o))], axis=1)
        if t:
            dc = dc * f
            dh = da[t] @ np.ascontiguousarray(w_h.T) + gh[t - 1]
    da_rows = np.concatenate(da)
    dw = np.concatenate([x_rows.T @ da_rows,
                         np.concatenate(hs[:steps]).T @ da_rows])
    return np.concatenate(hs[1:]), dw, da_rows.sum(axis=0)


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# (q, hidden) -> input width where it is not 8: the dream world model
# (32, 16) and the v1 checkpoint (2, 4); (66, 128) is an evaluation block
LOCK_INPUTS = {(32, 16): 4, (2, 4): 3}


@pytest.mark.parametrize("q,hidden", [(1, 16), (16, 16), (16, 128), (66, 128),
                                      (32, 16), (2, 4)])
def test_fused_op_is_bit_identical_to_per_block_reference(q, hidden):
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
    wn, bn = dc.parameter(w), dc.parameter(b)
    out = rc.lstm_step(x, (h0, c0), rc.LstmParams(wn, bn, n_in, hidden))
    _, dw, db = out._rule(gh)
    want_h, want_dw, want_db = _lstm_reference(x, w, b, h0, c0, gh)
    _assert_same_bits(out.value, want_h)
    _assert_same_bits(dw, want_dw)
    _assert_same_bits(db, want_db)


def test_cell_activation_keeps_signed_zeros_and_saturated_tails():
    hidden = 4
    row = np.array([-0.0, 0.0, 45.0, -45.0])
    act = np.tile(row, 4)[None]
    c_prev = np.array([[-0.0, 0.0, 1.0, -1.0]])
    h, c = rc.lstm_cell(act.reshape(4, 1, hidden), c_prev)
    i = f = o = _sigmoid_ref(row)[None]
    g = np.tanh(row)[None]
    want_c = f * c_prev + i * g
    _assert_same_bits(c, want_c)
    _assert_same_bits(h, o * np.tanh(want_c))
    # the gates are activated in place; g is tanh itself, so -0.0 stays
    for k, want in enumerate((i, f, g, o)):
        _assert_same_bits(act[:, k * hidden:(k + 1) * hidden], want)


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
    h, c = rc.cell_step(x, state, params)
    rows = rc.lstm_step(x[None], state, params)
    _assert_same_bits(h, rows.value)
    assert h.shape == c.shape == (q, hidden)


def test_activation_tables_are_contiguous_after_a_larger_batch():
    # an evaluation block (q=66) runs before the next train step (q=16);
    # the smaller batch must not read a slice of the larger one's tables
    rng = np.random.default_rng(23)
    hidden = 8
    for q in (66, 16):
        rc.lstm_cell(rng.normal(size=(4, q, hidden)),
                     rng.normal(size=(q, hidden)))
    # the pair lstm_cell kept and read at q=16
    for table, block in zip(rc._GATE_AFFINE[hidden],
                            ([0.5, 0.5, 1.0, 0.5], [1.0, 1.0, -0.0, 1.0])):
        assert table.shape == (4, 16, hidden)
        assert table.flags.c_contiguous and not table.flags.writeable
        want = np.broadcast_to(np.array(block)[:, None, None], table.shape)
        _assert_same_bits(table, want)
