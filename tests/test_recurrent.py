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
        dc.lstm(np.ones((0, 2, 3)), params.w, params.b, *state)


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
    params = rc.head_project(np.zeros(4), head)
    np.testing.assert_allclose(params.alpha, [1 / 3] * 3)
    np.testing.assert_array_equal(params.mu, np.zeros((3, 2)))
    np.testing.assert_array_equal(params.d_diag, np.ones((3, 2)))


def test_head_alpha_from_constructed_logits():
    head = rc.init_head(2, 2, 1, "diagonal", np.random.default_rng(8))
    head.w.value[:] = 0.0
    head.b.value[:2] = [np.log(2.0), 0.0]
    params = rc.head_project(np.zeros(2), head)
    np.testing.assert_allclose(params.alpha, [2 / 3, 1 / 3], atol=1e-15)


def test_head_invariants_hold_for_random_hidden_states():
    rng = np.random.default_rng(9)
    head = rc.init_head(16, 4, 3, "diagonal", rng)
    head.w.value *= 10.0   # exaggerate logits to stress the activations
    for _ in range(10_000):
        params = rc.head_project(rng.normal(size=16) * 3.0, head)
        params.validate()


def test_head_logits_agree_with_head_project():
    rng = np.random.default_rng(10)
    head = rc.init_head(6, 3, 2, "diagonal", rng)
    h = rng.normal(size=(4, 6))
    logits = rc.head_logits(dc.constant(h), head).value
    assert logits.shape == (4, 3 + 2 * 3 * 2)
    # layout K | K*d | K*d, component-major
    for row in range(4):
        params = rc.head_project(h[row], head)
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
    # one batched input matmul against one per step: equal to rounding,
    # never bit for bit
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
    np.testing.assert_allclose(h_rows.value.reshape(steps, q, hidden),
                               np.stack(stepped), rtol=0, atol=1e-13)


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
        out = dc.lstm(*nodes, h0, c0)
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
