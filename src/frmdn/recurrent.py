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
`lstm_unroll` alone may run on several threads: it cuts a large batch's
windows into parts, each at least two windows and a 32k-float step array,
one per usable CPU, which fill their rows of one hidden-state array in
place with the serial loop's bits (minibatch parallelism, as in Appleyard
et al. 2016 below).  Training and generation run on the calling thread.

`lstm.w` keeps the (input_dim + H, 4H) layout that checkpoints store,
its gate columns, like `lstm.b`, in parameter order (i, f, g, o).  The
working arrays are gate-major in work order (i, f, o, g): a step's
pre-activations and gates are one (4, q, H) array of contiguous (q, H)
gate blocks, the three sigmoid gates first, so the cell and the BPTT rule
work on contiguous blocks (the layout choices of Appleyard et al. 2016,
"Optimizing Performance of Recurrent Neural Networks on GPUs").  As in
that paper, constant work moves into the weights once per call:
`halved_weights` builds one work-order copy of w and b whose sigmoid
blocks [:3] are halved, so each step's tanh reads its argument straight
from the products (sigmoid(a) = 0.5 * (1 + tanh(a * 0.5))).  The step
loop builds it once per call and a rollout once for all its
`cell_step`s, so training, evaluation and generation share one weight
preparation.  Halving is exact, barring subnormal values, so every value
keeps its bits.  `lstm_cell` has one activation path for every shape:
tanh over the whole array, then +1 and *0.5 over a[:3].  The BPTT rule
keeps the gate gradients in work order in one (4, T, q, H) array and
runs its products per gate; it sums the four recurrent products in work
order and writes dw and db back in parameter order.  The input rows are
data: the rule returns the gradients of lstm.w and lstm.b alone.

The head output of width K + K*d + K*d holds coefficient logits, raw
means and scale logits in the layout `mixtures.split_head` reads; softmax
and clamped exp keep the resulting mixture parameters inside their valid
ranges for any hidden state.
"""

from __future__ import annotations

import os
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
    """Unroll the cell over a (T, q, input_dim) float64 array from the
    (h, c) pair `state`, in one fused op with a hand-written BPTT backward.

    params.w is (input_dim + H, 4H) with gate columns ordered (input,
    forget, cell, output) and params.b is (4H,).  Each step computes
        i, f, g, o = sigmoid, sigmoid, tanh, sigmoid of
                     x_t @ w[:input_dim] + b + h_{t-1} @ w[input_dim:]
        c_t = f * c_{t-1} + i * g,    h_t = o * tanh(c_t).

    Returns one node, op "lstm", with parents lstm.w and lstm.b: the
    t-major rows (T*q, H) of h_1..h_T.  The input and the start state are
    data and get no gradient.
    """
    _check_step_inputs("lstm_step", x, 3, state, params)
    steps, q, n_in = x.shape
    if steps < 1:
        raise dc.ShapeMismatchError("lstm_step", x.shape)
    hid, wv = params.hidden, params.w.value
    hs, cs, gates, tanh_c = _lstm_loop(x, state, params, keep=True)

    def rule(gh):
        gh = gh.reshape(steps, q, hid)   # at h_1..h_T
        # da[:, t] holds step t's gate gradients in work order, one
        # contiguous (q, H) block per gate; the recurrent product runs per
        # gate against one contiguous (4, H, H) work-order copy of w_h's
        # gate blocks transposed
        w_h_t = _gate_major(wv)[:, n_in:].transpose(0, 2, 1).take(_WORK, axis=0)
        da = np.empty((4, steps, q, hid))
        dgate, slope, rec = np.empty((3, 4, q, hid))
        di, df, do, dg = dgate
        slope_g = slope[3]
        dh, dh_next = gh[-1], np.empty((q, hid))
        dcell = np.zeros((q, hid))       # c_T reaches no output
        tmp, slope_c = np.empty((2, q, hid))
        for t in range(steps - 1, -1, -1):
            s, tc, da_t = gates[t], tanh_c[t], da[:, t]
            i, f, o, g = s
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
            np.multiply(dh, tc, out=do)
            np.multiply(dcell, i, out=dg)
            np.multiply(dgate, slope, out=da_t)
            if t:
                dcell *= f
                np.matmul(da_t, w_h_t, out=rec)
                dh = np.add.reduce(rec, axis=0, out=dh_next)
                dh += gh[t - 1]
        # per-gate products over all T*q rows, written into dw's
        # parameter-order blocks
        da = da.reshape(4, steps * q, hid)
        dw = np.empty_like(wv)
        dw4 = _gate_major(dw)
        x_rows = x.reshape(steps * q, n_in)
        h_rows = hs[:steps].reshape(steps * q, hid)
        for da_k, block in zip(da, _WORK):
            np.matmul(x_rows.T, da_k, out=dw4[block, :n_in])
            np.matmul(h_rows.T, da_k, out=dw4[block, n_in:])
        return dw, da.sum(axis=1).take(_WORK, axis=0).reshape(4 * hid)

    return dc.DiffNode(hs[1:].reshape(steps * q, hid),
                       (params.w, params.b), "lstm", rule)


def _lstm_loop(x, state, params, keep, weights=None, hs=None):
    """The one step loop of `lstm_step` and `lstm_unroll`: the steps of a
    (T, q, input_dim) array from the (h, c) pair `state`, each through
    `lstm_cell` with `weights`, `halved_weights(params)` when None.
    Returns (hs, cs, gates, tanh_c), hs holding h_0..h_T: the given
    (T + 1, q, H) array, which may be a view of a wider one, or else a new
    one.  With `keep`, for the BPTT rule, gates[t], cs[t + 1] and
    tanh_c[t] hold step t's work-order gates, c_t and tanh(c_t), and the
    input products of all steps are formed before the loop; without it one
    gate block, two cell blocks and one tanh(c) block are reused, and each
    step forms its input product and adds a same-shape bias block.  Both
    give the same bits."""
    steps, q, n_in = x.shape
    hid = params.hidden
    w_x4, w_h4, b4 = weights or halved_weights(params)
    kept = steps if keep else 1          # steps whose gates stay in `gates`
    if keep:
        gates = np.matmul(x[:, None], w_x4)
        gates += b4
    else:
        gates = np.empty((1, 4, q, hid))
        bias = np.broadcast_to(b4, (4, q, hid)).copy()
    if hs is None:
        hs = np.empty((steps + 1, q, hid))
    cs = np.empty((kept + 1, q, hid))
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


# the work order (i, f, o, g) as parameter-order (i, f, g, o) block
# indices; the swap is its own inverse, so `take` with it moves gate-major
# blocks from either order into the other
_WORK = np.array([0, 1, 3, 2])


def halved_weights(params):
    """Work-order copies of lstm.w's input and recurrent rows, (4,
    input_dim, H) and (4, H, H), and of lstm.b, (4, 1, H), with the
    sigmoid blocks [:3] (i, f, o) multiplied by 0.5, so a step's products
    and sums give `lstm_cell` its half-scaled input, bit for bit the
    unscaled sum times 0.5 (barring subnormal values).  The step loop
    builds them once per call and a rollout once for all its
    `cell_step`s."""
    w4 = _gate_major(params.w.value).take(_WORK, axis=0)
    b4 = params.b.value.reshape(4, 1, -1).take(_WORK, axis=0)
    w4[:3] *= 0.5
    b4[:3] *= 0.5
    return w4[:, :params.input_dim], w4[:, params.input_dim:], b4


def lstm_cell(a, c_prev, c=None, tanh_c=None, h=None):
    """The body of one LSTM step, shared by `lstm_step`, `lstm_unroll`
    and `cell_step`.

    a is the step's pre-activation x_t @ w_x + b + h_{t-1} @ w_h, summed
    in that order, in work order: a C-contiguous (4, q, H) array of blocks
    i, f, o and g whose sigmoid block a[:3] is half-scaled.  One path
    activates it in place for every shape: tanh over the whole array, then
    (t + 1) * 0.5 over a[:3], a sigmoid with no exp to overflow on either
    tail; g is the tanh itself, the sign of a zero too.  Writes c_t,
    tanh(c_t) and h_t into `c`, `tanh_c` and `h` when given, else into new
    arrays, and returns (h_t, c_t).
    """
    np.tanh(a, out=a)
    sig = a[:3]
    sig += 1.0
    sig *= 0.5
    i, f, o, g = a
    c = np.multiply(f, c_prev, out=c)
    tanh_c = np.multiply(i, g, out=tanh_c)
    c += tanh_c
    np.tanh(c, out=tanh_c)
    return np.multiply(o, tanh_c, out=h), c


def cell_step(x, state, params, weights):
    """Advance the cell one step on plain arrays, building no graph nodes.

    x is (q, input_dim), state an (h, c) pair of (q, hidden) arrays and
    weights `halved_weights(params)`, which a rollout builds once for all
    its steps.  The products, sums and body are a one-step `lstm_step`'s,
    so h equals the op's bit for bit.  Returns the new (h, c) pair.
    """
    _check_step_inputs("cell_step", x, 2, state, params)
    w_x4, w_h4, b4 = weights
    a = np.matmul(x, w_x4)
    a += b4
    a += np.matmul(state[0], w_h4)
    return lstm_cell(a, state[1])


# the usable CPUs, read once (all of them where the OS gives no affinity
# mask); and the fewest floats in a part's (4, q, H) gate-major step array
# for a thread to pay for its handoffs of the interpreter lock between
# numpy calls (the measured crossover on a 2-core host)
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_PART_FLOATS = 32768


def _unroll_parts(q, hidden):
    """How many parts `lstm_unroll` splits q windows of width `hidden`
    into: as many as there are usable CPUs while every part keeps two
    windows or more (a one-window part takes numpy's matrix-vector path,
    whose bits differ) and a (4, q, H) step array of _PART_FLOATS floats
    or more; at least 1."""
    fewest = max(2, -(-_PART_FLOATS // (4 * hidden)))   # windows a part takes
    return max(1, min(_CPUS, q // fewest))


def lstm_unroll(x, state, params):
    """`lstm_step` on plain arrays for a caller that needs no gradient:
    the steps of a (T, q, input_dim) batch from the (h, c) pair `state`,
    keeping no step's gates or cell state.  Returns the t-major rows
    (T*q, H) of h_1..h_T, equal to the op's bit for bit.

    The windows are independent rows of one recurrence, so a large batch
    is cut at k*q // parts into `_unroll_parts` parts, each run by
    `_lstm_loop` on its own thread (numpy releases the interpreter lock
    inside its products and ufuncs).  The parts share one read-only
    `halved_weights` and fill their windows' rows hs[:, lo:hi] of one
    hidden array in place.  The products form each row of a part of two
    rows or more as they do in the whole batch (checked with OpenBLAS over
    five widths and q up to 512), so every split gives the serial loop's
    bits.  With one part no thread is made; otherwise the pool lives for
    this call alone, is joined before it returns, and a part's exception
    reaches the caller."""
    _check_step_inputs("lstm_unroll", x, 3, state, params)
    steps, q, _ = x.shape
    hid = params.hidden
    weights = halved_weights(params)
    hs = np.empty((steps + 1, q, hid))
    h0, c0 = state

    def run(lo, hi):
        _lstm_loop(x[:, lo:hi], (h0[lo:hi], c0[lo:hi]), params, False,
                   weights, hs[:, lo:hi])

    parts = _unroll_parts(q, hid)
    if parts == 1:
        run(0, q)
    else:
        # imported here, so the paths that never split do not carry the
        # module's resident size
        from concurrent.futures import ThreadPoolExecutor

        cuts = [k * q // parts for k in range(parts + 1)]
        with ThreadPoolExecutor(parts) as pool:
            list(pool.map(run, cuts[:-1], cuts[1:]))   # re-raises a part's error
    return hs[1:].reshape(steps * q, hid)


def head_logits(h, head):
    """The linear head output rows (n, K + 2*K*d) as one graph node;
    `mx.split_head` reads its layout."""
    return dc.add(dc.matmul(h, head.w), head.b)


def head_project(h_vec, head):
    """Numeric mixture parameters (alpha, mu, scale) for one (hidden,)
    float64 vector (sampling path): the (K,) coefficients through the
    softmax, the (K, d) raw means and the (K, d) scales through the
    clamped exponential, read from the output row in `mx.split_head`'s
    layout."""
    out = h_vec @ head.w.value + head.b.value
    k, d = head.k, head.dim
    return (mx.coeffs_from_logits(out[:k]), out[k:k + k * d].reshape(k, d),
            mx.diag_scales_from_logits(out[k + k * d:]).reshape(k, d))
