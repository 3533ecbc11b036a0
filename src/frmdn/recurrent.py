"""The LSTM backbone and the linear head that emits per-step mixture
parameters.

This module owns the LSTM end to end: its gate layout, the fused
whole-window op `lstm_step` with its hand-written BPTT backward (Graves
2013, "Generating Sequences With Recurrent Neural Networks"), the
tape-free unroll `lstm_unroll` for evaluation, and `cell_step`, one step
for generation.  `lstm_step` and `lstm_unroll` run one step loop,
`_lstm_loop`, which keeps each step's gates, c and tanh(c) only when the
BPTT rule needs them; every step of either path, and `cell_step`, runs
the one step body `lstm_cell`.  Each entry point checks its shapes once.

The parameter `lstm.w` keeps the (input_dim + H, 4H) layout that
checkpoints store, gate columns ordered (i, f, g, o).  The working arrays
are gate-major: a step's pre-activations and gates are one (4, q, H)
array whose four gate blocks are each a contiguous (q, H) array, so the
cell and the BPTT rule do their elementwise work on contiguous blocks
(the layout choices of Appleyard et al. 2016, "Optimizing Performance of
Recurrent Neural Networks on GPUs").  Each block comes from (q, H)
products with its gate's block of w.

Constant work per step moves into the weights once per call, as in the
same paper: the step loop builds one gate-major copy of w and b whose
sigmoid gates' (i, f, o) columns are halved, so each step's tanh reads
its argument straight from the products (sigmoid(a) = 0.5 * (1 + tanh(a
* 0.5))).  Halving is exact, barring subnormal values, so every value
stays bit for bit what the unhalved sums give.  `cell_step` advances one
step with the unscaled weights and lets `lstm_cell` halve the sum.
`lstm_cell` runs its activation pass through same-shape (4, q, H) tables
for steps of up to `_TABLE_GATES` values (train steps, generation, small
evaluation blocks), kept for the last four (q, H) by
`functools.lru_cache`, and through scalar ops on gate views above it, so
a large evaluation block builds no tables to crowd the L2 cache.  The
BPTT rule is gate-major too: it keeps the gate gradients in one (4, T,
q, H) array, forms each step's slopes on that step's blocks, and runs the
recurrent and weight products per gate, summing the four recurrent
products in i, f, g, o order.

The head output of width K + K*d + K*d holds coefficient logits, raw
means and scale logits in the layout `mixtures.split_head` reads; softmax
and clamped exp keep the resulting mixture parameters inside their valid
ranges for any hidden state.
"""

from __future__ import annotations

import functools
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
    hs, cs, gates, tanh_c = _lstm_loop(xv, state, params, keep=True)

    def rule(gh):
        gh = gh.reshape(steps, q, hid)   # at h_1..h_T
        # da[:, t] holds step t's gate gradients, one contiguous (q, H)
        # block per gate; the recurrent product runs per gate against one
        # contiguous (4, H, H) copy of w_h's gate blocks transposed
        wg = _gate_major(wv)
        w_h_t = np.ascontiguousarray(wg[:, n_in:].transpose(0, 2, 1))
        da = np.empty((4, steps, q, hid))
        dgate, slope, rec = np.empty((3, 4, q, hid))
        di, df, dg, do = dgate
        slope_g = slope[2]
        dh, dh_next = gh[-1], np.empty((q, hid))
        dcell = np.zeros((q, hid))       # c_T reaches no output
        tmp, slope_c = np.empty((2, q, hid))
        for t in range(steps - 1, -1, -1):
            s, tc, da_t = gates[t], tanh_c[t], da[:, t]
            i, f, g, o = s
            # step t's slopes while its blocks are in cache: s(1 - s) on
            # all four blocks, then 1 - g^2 on g's, and 1 - tanh(c)^2
            np.subtract(1.0, s, out=slope)
            slope *= s
            np.multiply(g, g, out=slope_g)
            np.subtract(1.0, slope_g, out=slope_g)
            np.multiply(tc, tc, out=slope_c)
            np.subtract(1.0, slope_c, out=slope_c)
            np.multiply(dh, o, out=tmp)
            tmp *= slope_c
            dcell += tmp
            np.multiply(dcell, g, out=di)
            np.multiply(dcell, cs[t], out=df)
            np.multiply(dcell, i, out=dg)
            np.multiply(dh, tc, out=do)
            np.multiply(dgate, slope, out=da_t)
            if t:
                dcell *= f
                np.matmul(da_t, w_h_t, out=rec)
                dh = rec.sum(axis=0, out=dh_next)   # i, f, g, o in order
                dh += gh[t - 1]
        # per-gate products over all T*q rows: dw's written into its
        # gate-major view, dx's summed in i, f, g, o order
        da = da.reshape(4, steps * q, hid)
        dw = np.empty_like(wv)
        dw4 = _gate_major(dw)
        np.matmul(xv.reshape(steps * q, n_in).T, da, out=dw4[:, :n_in])
        np.matmul(hs[:steps].reshape(steps * q, hid).T, da, out=dw4[:, n_in:])
        dx = (np.matmul(da, wg[:, :n_in].transpose(0, 2, 1)).sum(axis=0)
              .reshape(xv.shape) if x.requires_grad else None)
        return dx, dw, da.sum(axis=1).reshape(4 * hid)

    return dc.DiffNode(hs[1:].reshape(steps * q, hid),
                       (x, params.w, params.b), "lstm", rule)


def _lstm_loop(x, state, params, keep):
    """The one step loop of `lstm_step` and `lstm_unroll`: the steps of a
    (T, q, input_dim) array from the (h, c) pair `state`, each through
    `lstm_cell` with `_halved_weights`.  Returns (hs, cs, gates, tanh_c),
    hs holding h_0..h_T.  With `keep`, for the BPTT rule, gates[t],
    cs[t + 1] and tanh_c[t] hold step t's gates, c_t and tanh(c_t), and
    the input products of all steps are formed before the loop; without
    it one gate block, two cell blocks and one tanh(c) block are reused,
    and each step forms its input product and adds a same-shape bias
    block.  Both give the same bits."""
    steps, q, n_in = x.shape
    hid = params.hidden
    w4, b4 = _halved_weights(params)
    w_x4, w_h4 = w4[:, :n_in], w4[:, n_in:]
    kept = steps if keep else 1          # steps whose gates stay in `gates`
    if keep:
        gates = np.matmul(x[:, None], w_x4)
        gates += b4
    else:
        gates = np.empty((1, 4, q, hid))
        bias = np.broadcast_to(b4, (4, q, hid)).copy()
    hs, cs = np.empty((steps + 1, q, hid)), np.empty((kept + 1, q, hid))
    hs[0], cs[0] = state
    tanh_c = np.empty((kept, q, hid))
    rec = np.empty((4, q, hid))
    for t in range(steps):
        a = gates[t % kept]
        if not keep:
            np.matmul(x[t], w_x4, out=a)
            a += bias
        a += np.matmul(hs[t], w_h4, out=rec)
        lstm_cell(a, cs[t % (kept + 1)], cs[(t + 1) % (kept + 1)],
                  tanh_c[t % kept], hs[t + 1])
    return hs, cs, gates, tanh_c


def _gate_major(rows):
    """The (4, n, H) gate-major view of (n, 4H) rows in parameter layout:
    block k holds gate k's H columns of every row."""
    n, width = rows.shape
    return rows.reshape(n, 4, width // 4).transpose(1, 0, 2)


# per gate block (i, f, g, o): the factor that turns a pre-activation into
# the argument of its tanh, since sigmoid(a) = 0.5 * (1 + tanh(a * 0.5))
_TANH_ARG = np.array([0.5, 0.5, 1.0, 0.5])[:, None, None]


def _halved_weights(params):
    """Gate-major copies of lstm.w, (4, input_dim + H, H), and lstm.b,
    (4, 1, H), whose i, f and o blocks are multiplied by 0.5, so the
    products and sums of a step give `lstm_cell` its half-scaled input.
    Each scaling is by a power of two, so the pre-activation is the
    unscaled one's times 0.5 bit for bit (barring subnormal values)."""
    return (_gate_major(params.w.value) * _TANH_ARG,
            params.b.value.reshape(4, 1, -1) * _TANH_ARG)


# the largest step, in gate values 4 * q * H, whose activation pass reads
# same-shape tables.  Measured with one BLAS thread on a 2-vCPU host, the
# two table passes beat the four scalar ops on gate views by 3x at batch 1
# and by 1.14x at 8192 values (train steps at q = 16, H = 128), and lose
# from 16384 values on (0.9x; 0.67x at the acceptance evaluation blocks,
# q = 128, H = 128)
_TABLE_GATES = 4 * 16 * 128


@functools.lru_cache(maxsize=4)
def _gate_affine(q, hid):
    """The read-only (4, q, H) scale and shift of `lstm_cell`'s activation
    pass, blocks of 0.5, 0.5, 1, 0.5 and of 1, 1, -0.0, 1.  Whole
    contiguous arrays, since numpy runs a same-shape ufunc at about twice
    the speed of a broadcast one and a slice of a larger gate-major table
    would not be contiguous.  Cached for the last four (q, H), so callers
    that alternate row counts (train steps, evaluation blocks, generation)
    do not rebuild them; a pair serves steps of up to _TABLE_GATES values,
    so it takes at most 128 KiB and the cache at most 512 KiB."""
    tables = tuple(np.repeat(np.array(blocks), q * hid).reshape(4, q, hid)
                   for blocks in ([0.5, 0.5, 1.0, 0.5], [1.0, 1.0, -0.0, 1.0]))
    for t in tables:
        t.flags.writeable = False
    return tables


def lstm_cell(a, c_prev, c=None, tanh_c=None, h=None, halved=True):
    """The body of one LSTM step, shared by `lstm_step`, `lstm_unroll`
    and `cell_step`.

    a is the step's gate-major pre-activation x_t @ w_x + b +
    h_{t-1} @ w_h, summed in that order: a C-contiguous (4, q, H) array
    whose blocks a[0..3] are i, f, g and o.  When `halved`, the i, f and
    o blocks arrive half-scaled, as 0.5 * a, from `_halved_weights`;
    else the cell first multiplies them by 0.5.  All four are then
    activated in place: tanh over the whole array, and i, f and o become
    (t + 1) * 0.5, their sigmoid with no exp to overflow on either tail.
    Up to _TABLE_GATES values each pass reads the contiguous
    `_gate_affine` tables, where g's block is multiplied by 1 and adds
    -0.0, which keeps every value, the sign of zero too (+0.0 would turn
    -0.0 into +0.0); above it, scalar ops on the a[:2] and a[3] views do
    the work and no tables are built.  The products f * c_{t-1}, i * g
    and o * tanh(c_t) then read whole blocks.  Writes c_t, tanh(c_t) and
    h_t into `c`, `tanh_c` and `h` when given, else into new arrays, and
    returns (h_t, c_t).
    """
    if a.size <= _TABLE_GATES:
        scale, shift = _gate_affine(*a.shape[1:])
        if not halved:
            a *= scale
        np.tanh(a, out=a)
        a += shift
        a *= scale
    else:
        if not halved:
            a *= _TANH_ARG
        np.tanh(a, out=a)
        for sig in (a[:2], a[3]):
            sig += 1.0
            sig *= 0.5
    i, f, g, o = a
    c = np.multiply(f, c_prev, out=c)
    tanh_c = np.multiply(i, g, out=tanh_c)
    c += tanh_c
    np.tanh(c, out=tanh_c)
    return np.multiply(o, tanh_c, out=h), c


def cell_step(x, state, params):
    """Advance the cell one step on plain arrays, building no graph nodes.

    x is (q, input_dim) and state an (h, c) pair of (q, hidden) arrays.
    The products and summation order are a one-step `lstm_step`'s, with
    the unscaled weights, so no weights are copied per step, and
    `lstm_cell` halves the sum; the new h equals the op's bit for bit.
    Returns the new (h, c) pair.
    """
    _check_step_inputs("cell_step", x, 2, state, params)
    w4, n_in = _gate_major(params.w.value), params.input_dim
    a = np.matmul(x, w4[:, :n_in])
    a += params.b.value.reshape(4, 1, -1)
    a += np.matmul(state[0], w4[:, n_in:])
    return lstm_cell(a, state[1], halved=False)


def lstm_unroll(x, state, params):
    """`lstm_step` on plain arrays for a caller that needs no gradient:
    the steps of a (T, q, input_dim) batch from the (h, c) pair `state`,
    keeping no step's gates or cell state.  Returns the t-major rows
    (T*q, H) of h_1..h_T, equal to the op's bit for bit."""
    _check_step_inputs("lstm_unroll", x, 3, state, params)
    steps, q, _ = x.shape
    hs = _lstm_loop(x, state, params, keep=False)[0]
    return hs[1:].reshape(steps * q, params.hidden)


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
