"""The LSTM backbone and the linear head that emits per-step mixture
parameters.

This module owns the LSTM end to end: its gate layout, the fused
whole-window op `lstm_step` with its hand-written BPTT backward (Graves
2013, "Generating Sequences With Recurrent Neural Networks"), and the
step body `lstm_cell` that the op and tape-free generation (`cell_step`)
share.  Each entry point checks its shapes once.

The parameter `lstm.w` keeps the (input_dim + H, 4H) layout that
checkpoints store, gate columns ordered (i, f, g, o).  The working arrays
are gate-major: a step's pre-activations and gates are one (4, q, H)
array whose four gate blocks are each a contiguous (q, H) array, so the
cell and the BPTT rule do their elementwise work on contiguous blocks
(the layout choices of Appleyard et al. 2016, "Optimizing Performance of
Recurrent Neural Networks on GPUs").  Each block comes from (q, H)
products with a strided view of its gate's columns of w, so no weights
are copied per step or per call.  The backward writes each step's gate
gradients back into (q, 4H) rows in parameter layout for the weight
products, and runs the recurrent product against one contiguous copy of
w_h.T per call.

The head output of width K + K*d + K*d holds coefficient logits, raw
means and scale logits in the layout `mixtures.split_head` reads; softmax
and clamped exp keep the resulting mixture parameters inside their valid
ranges for any hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import mixtures as mx


@dataclass
class LstmParams:
    """Fused gate weights, ordered (input, forget, cell, output)."""

    w: dc.DiffNode        # (input_dim + hidden, 4 * hidden)
    b: dc.DiffNode        # (4 * hidden,)
    input_dim: int
    hidden: int

    def parameters(self):
        return [("lstm.w", self.w), ("lstm.b", self.b)]


@dataclass
class HeadParams:
    """Linear map from the hidden state to mixture parameter logits."""

    w: dc.DiffNode        # (hidden, K + 2*K*d)
    b: dc.DiffNode
    k: int
    dim: int
    structure: str = "diagonal"
    u: dc.DiffNode | None = None    # shared matrix, tied structure only

    def parameters(self):
        out = [("head.w", self.w), ("head.b", self.b)]
        if self.u is not None:
            out.append(("head.u", self.u))
        return out


def lstm_shapes(input_dim, hidden):
    """Shape of each LSTM parameter, by name, in `LstmParams.parameters`
    order."""
    return {"w": (input_dim + hidden, 4 * hidden), "b": (4 * hidden,)}


def head_shapes(hidden, k, dim, structure):
    """Shape of each head parameter, by name, in `HeadParams.parameters`
    order; only a tied head has the shared matrix u."""
    width = k + 2 * k * dim
    shapes = {"w": (hidden, width), "b": (width,)}
    if structure == "tied":
        shapes["u"] = (dim, dim)
    return shapes


def init_lstm(input_dim, hidden, rng):
    """Scaled-uniform fan-in weights; forget-gate bias starts at 1 so early
    gradients reach back through time."""
    shapes = lstm_shapes(input_dim, hidden)
    bound = 1.0 / np.sqrt(shapes["w"][0])
    w = rng.uniform(-bound, bound, size=shapes["w"])
    b = np.zeros(shapes["b"])
    b[hidden : 2 * hidden] = 1.0
    return LstmParams(dc.parameter(w), dc.parameter(b), input_dim, hidden)


def init_head(hidden, k, dim, structure, rng):
    shapes = head_shapes(hidden, k, dim, structure)
    bound = 1.0 / np.sqrt(hidden)
    w = rng.uniform(-bound, bound, size=shapes["w"])
    u = dc.parameter(np.eye(dim)) if "u" in shapes else None
    return HeadParams(dc.parameter(w), dc.parameter(np.zeros(shapes["b"])),
                      k, dim, structure, u)


def initial_state(batch, hidden):
    """The zero (h, c) pair of (batch, hidden) arrays that training windows
    and generation start from."""
    return np.zeros((batch, hidden)), np.zeros((batch, hidden))


def _check_step_inputs(who, x, ndim, state, params):
    """Raise ValueError unless x has `ndim` axes ending in (q, input_dim)
    and both arrays of the (h, c) pair are (q, hidden)."""
    if x.ndim != ndim or x.shape[-1] != params.input_dim:
        raise ValueError(f"{who}: expected input with {ndim} axes ending in "
                         f"{params.input_dim}, got {x.shape}")
    h, c = state
    rows = (x.shape[-2], params.hidden)
    if h.shape != rows or c.shape != rows:
        raise ValueError(f"{who}: state shapes {h.shape} and {c.shape} do not "
                         f"match batch {rows[0]} and hidden size {rows[1]}")


def lstm_step(x, state, params):
    """Unroll the cell over a (T, q, input_dim) batch node from the (h, c)
    pair `state`, in one fused op with a hand-written BPTT backward.

    params.w is (input_dim + H, 4H) with gate columns ordered (input,
    forget, cell, output) and params.b is (4H,).  Each step computes
        i, f, g, o = sigmoid, sigmoid, tanh, sigmoid of
                     x_t @ w[:input_dim] + b + h_{t-1} @ w[input_dim:]
        c_t = f * c_{t-1} + i * g,    h_t = o * tanh(c_t).

    Returns one node, op "lstm": the t-major rows (T*q, H) of h_1..h_T.
    The start state gets no gradient.
    """
    x = x if isinstance(x, dc.DiffNode) else dc.constant(x)
    xv = x.value
    _check_step_inputs("lstm_step", xv, 3, state, params)
    steps, q, n_in = xv.shape
    if steps < 1:
        raise dc.ShapeMismatchError("lstm_step", xv.shape)
    hid, wv = params.hidden, params.w.value
    w4 = _gate_major(wv)
    w_x4, w_h4 = w4[:, :n_in], w4[:, n_in:]

    # gates[t] holds the (i, f, g, o) of step t as one contiguous
    # (4, q, H) block, gate by gate: first x_t @ w_x + b from one
    # (q, H) product per step and gate, then the pre-activation, then the
    # activations; hc stacks h_0..h_T then c_0..c_T, and the output is a
    # view of its h_1..h_T
    gates = np.matmul(xv[:, None], w_x4)
    gates += params.b.value.reshape(4, 1, -1)
    hc = np.empty((2 * (steps + 1), q, hid))
    hs, cs = hc[: steps + 1], hc[steps + 1 :]
    hs[0], cs[0] = state
    tanh_c = np.empty((steps, q, hid))
    rec = np.empty((4, q, hid))
    for t in range(steps):
        a = gates[t]
        a += np.matmul(hs[t], w_h4, out=rec)
        lstm_cell(a, cs[t], cs[t + 1], tanh_c[t], hs[t + 1])

    def rule(gh):
        gh = gh.reshape(steps, q, hid)   # at h_1..h_T
        # activation slopes of every step at once: s(1 - s) for the
        # sigmoid gates, 1 - g^2 for the cell input and 1 - tanh(c)^2
        slope = 1.0 - gates
        slope *= gates
        g_all, slope_g = gates[:, 2], slope[:, 2]
        np.multiply(g_all, g_all, out=slope_g)
        np.subtract(1.0, slope_g, out=slope_g)
        slope_c = tanh_c * tanh_c
        np.subtract(1.0, slope_c, out=slope_c)
        # step t's gate gradients are formed block by block in dgate and,
        # times the slopes, written into its (q, 4H) rows of da in
        # parameter layout, which the weight products below read; the
        # recurrent product runs NN against one contiguous copy of w_h.T
        da = np.empty((steps, q, 4 * hid))
        w_x, w_h = wv[:n_in], wv[n_in:]
        w_h_t = np.ascontiguousarray(w_h.T)
        dgate = np.empty((4, q, hid))
        di, df, dg, do = dgate
        dh = gh[-1]
        dcell = np.zeros((q, hid))       # c_T reaches no output
        tmp = np.empty((q, hid))
        for t in range(steps - 1, -1, -1):
            i, f, g, o = gates[t]
            np.multiply(dh, o, out=tmp)
            tmp *= slope_c[t]
            dcell += tmp
            np.multiply(dcell, g, out=di)
            np.multiply(dcell, cs[t], out=df)
            np.multiply(dcell, i, out=dg)
            np.multiply(dh, tanh_c[t], out=do)
            np.multiply(dgate, slope[t], out=_gate_major(da[t]))
            if t:
                dcell *= f
                dh = da[t] @ w_h_t
                dh += gh[t - 1]
        da_rows = da.reshape(steps * q, 4 * hid)
        x_rows = xv.reshape(steps * q, n_in)
        dw = np.empty_like(wv)
        dw[:n_in] = x_rows.T @ da_rows
        dw[n_in:] = hs[:steps].reshape(steps * q, hid).T @ da_rows
        dx = (da_rows @ w_x.T).reshape(xv.shape) if x.requires_grad else None
        return dx, dw, da_rows.sum(axis=0)

    return dc.DiffNode(hs[1:].reshape(steps * q, hid),
                       (x, params.w, params.b), "lstm", rule)


def _gate_major(rows):
    """The (4, n, H) gate-major view of (n, 4H) rows in parameter layout:
    block k holds gate k's H columns of every row."""
    n, width = rows.shape
    return rows.reshape(n, 4, width // 4).transpose(1, 0, 2)


# hidden size -> read-only (4, q, H) scale and shift tables of the
# activation pass, for the row count q of the latest step
_GATE_AFFINE = {}


def _gate_affine(q, hid):
    """The (4, q, H) scale and shift of `lstm_cell`'s activation pass,
    blocks of 0.5, 0.5, 1, 0.5 and of 1, 1, -0.0, 1.  Whole contiguous
    arrays, since numpy runs a same-shape ufunc at about twice the speed
    of a broadcast one and a slice of a larger gate-major table would not
    be contiguous; rebuilt when q changes, so one pair per hidden size is
    kept."""
    tables = _GATE_AFFINE.get(hid)
    if tables is None or tables[0].shape[1] != q:
        tables = tuple(np.repeat(np.array(blocks), q * hid).reshape(4, q, hid)
                       for blocks in ([0.5, 0.5, 1.0, 0.5], [1.0, 1.0, -0.0, 1.0]))
        for t in tables:
            t.flags.writeable = False
        _GATE_AFFINE[hid] = tables
    return tables


def lstm_cell(a, c_prev, c=None, tanh_c=None, h=None):
    """The body of one LSTM step, shared by `lstm_step` and `cell_step`.

    a is the step's gate-major pre-activation x_t @ w_x + b +
    h_{t-1} @ w_h, summed in that order: a C-contiguous (4, q, H) array
    whose blocks a[0..3] are i, f, g and o.  All four are activated in
    place in one contiguous pass, scale * (tanh(scale * a) + shift) per
    element: i, f and o get sigmoid as 0.5 * (1 + tanh(a * 0.5)), with no
    exp to overflow on either tail, and g gets tanh(a), since a * 1 is
    exact and adding -0.0 keeps every value, the sign of zero too (+0.0
    would turn -0.0 into +0.0).  The products f * c_{t-1}, i * g and
    o * tanh(c_t) then read whole blocks.  Writes c_t, tanh(c_t) and h_t
    into `c`, `tanh_c` and `h` when given, else into new arrays, and
    returns (h_t, c_t).
    """
    _, q, hid = a.shape
    scale, shift = _gate_affine(q, hid)
    a *= scale
    np.tanh(a, out=a)
    a += shift
    a *= scale
    i, f, g, o = a
    c = np.multiply(f, c_prev, out=c)
    tanh_c = np.multiply(i, g, out=tanh_c)
    c += tanh_c
    np.tanh(c, out=tanh_c)
    return np.multiply(o, tanh_c, out=h), c


def cell_step(x, state, params):
    """Advance the cell one step on plain arrays, building no graph nodes.

    x is (q, input_dim) and state an (h, c) pair of (q, hidden) arrays.
    The arithmetic is a one-step `lstm_step`'s, products and summation
    order alike, so the new h equals it bit for bit.  Returns the new
    (h, c) pair.
    """
    _check_step_inputs("cell_step", x, 2, state, params)
    w4, n_in = _gate_major(params.w.value), params.input_dim
    a = np.matmul(x, w4[:, :n_in])
    a += params.b.value.reshape(4, 1, -1)
    a += np.matmul(state[0], w4[:, n_in:])
    return lstm_cell(a, state[1])


def head_logits(h, head):
    """The linear head output rows (n, K + 2*K*d) as one graph node;
    `mx.split_head` reads its layout."""
    return dc.add(dc.matmul(h, head.w), head.b)


def head_project(h_vec, head):
    """Numeric mixture parameters (alpha, mu, scale) for one (hidden,)
    float64 vector (sampling path): the (K,) coefficients through the
    softmax, the (K, d) raw means and the (K, d) scales through the
    clamped exponential."""
    out = h_vec @ head.w.value + head.b.value
    alpha, mu, scale_logits = mx.split_head(out[None], head.k, head.dim)
    return (mx.coeffs_from_logits(alpha[0]), mu[0],
            mx.diag_scales_from_logits(scale_logits[0]))
