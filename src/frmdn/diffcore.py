"""Reverse-mode automatic differentiation over dense float64 arrays.

Graphs are tapes: each operation returns a fresh DiffNode holding the
forward value, references to its inputs, and a closure mapping the output
gradient back to input gradients.  A graph is built per evaluation and
discarded afterwards; leaves (parameters) persist across graphs.  Every
node takes a creation number from one counter, and `backward` visits the
nodes with pending gradients newest first: a node's consumers are all
created after it, so its gradient is complete when it is visited, and no
graph search is needed (a Wengert list swept in reverse).

The model's work is done by fused ops with hand-written backwards: `lstm`
here, the coupling layer in `flow` and the mixture rows in `mixtures`.
The coupling op has two outputs and returns them as `output_view`s of
one core node, so gradients reaching either meet in a single backward
call.  `lstm_cell`, the LSTM op's step body, also serves generation,
which runs on plain arrays without a tape.  It activates all four gate
blocks of a step's (q, 4H) pre-activation rows in one contiguous pass of
four ufuncs, scale * (tanh(scale * a) + shift) per column, rather than
one call per strided (q, H) block: the sigmoid gates get
0.5 * (1 + tanh(a * 0.5)) and the cell input tanh(a), whose shift is
-0.0 because adding +0.0 would turn -0.0 into +0.0.  The BPTT backward
works in place on one reused (q, H) scratch.  The generic ops are only
the glue the loss needs around them: `add` (equal shapes, or a row-wise
bias (n, m) + (m,)), `matmul`, `neg` and the whole-array `reduce_mean`.
`grad_check(loss, leaves)` compares `backward` with central differences
taken by shifting the leaves' values in place.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

# Scale logits are clamped to this band before exponentiation.
EXP_CLAMP = 60.0

# creation numbers of DiffNodes; `backward` visits the newest node first
_CREATION = itertools.count()


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform to an operation's rule."""

    def __init__(self, op, *shapes):
        self.op = op
        self.shapes = tuple(tuple(int(n) for n in s) for s in shapes)
        pretty = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{op}: incompatible shapes {pretty}")


class DiffNode:
    """A value in the computation graph: data and parents, and the rule
    that maps its gradient back to theirs."""

    __slots__ = ("value", "parents", "op", "_rule", "requires_grad", "_order")

    def __init__(self, value, parents=(), op="leaf", rule=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self.op = op
        self._rule = rule
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)
        self._order = next(_CREATION)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"DiffNode(op={self.op!r}, shape={self.value.shape})"


def parameter(value):
    """Trainable leaf node."""
    return DiffNode(value, requires_grad=True)


def constant(value):
    """Leaf node that never receives a gradient."""
    return DiffNode(value)


def _node(x):
    return x if isinstance(x, DiffNode) else constant(x)


# ---------------------------------------------------------------------------
# generic operations
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _node(a), _node(b)
    av, bv = a.value, b.value
    if av.shape == bv.shape:
        rule = lambda g: (g, g)
    elif av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
        # row-wise bias
        rule = lambda g: (g, g.sum(axis=0))
    else:
        raise ShapeMismatchError("add", av.shape, bv.shape)
    return DiffNode(av + bv, (a, b), "add", rule)


def matmul(a, b):
    a, b = _node(a), _node(b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeMismatchError("matmul", av.shape, bv.shape)
    return DiffNode(av @ bv, (a, b), "matmul", lambda g: (g @ bv.T, av.T @ g))


def neg(a):
    a = _node(a)
    return DiffNode(-a.value, (a,), "neg", lambda g: (-g,))


def reduce_mean(a):
    """Mean over every element, a scalar node."""
    a = _node(a)
    av = a.value
    return DiffNode(av.mean(), (a,), "mean",
                    lambda g: (np.broadcast_to(g, av.shape).copy() / av.size,))


# ---------------------------------------------------------------------------
# fused recurrence
# ---------------------------------------------------------------------------

def lstm(x, w, b, h0, c0):
    """Whole-sequence LSTM unroll with a hand-written BPTT backward
    (Graves 2013, "Generating Sequences With Recurrent Neural Networks").

    x is (T, q, n_in); w is (n_in + H, 4H) with gate columns ordered
    (input, forget, cell, output); b is (4H,); h0 and c0 are the (q, H)
    arrays the unroll starts from, and get no gradient.  Each step computes
        i, f, g, o = sigmoid, sigmoid, tanh, sigmoid of
                     x_t @ w[:n_in] + h_{t-1} @ w[n_in:] + b
        c_t = f * c_{t-1} + i * g,    h_t = o * tanh(c_t).

    Returns one node: the t-major rows (T*q, H) of h_1..h_T.
    """
    x, w, b = _node(x), _node(w), _node(b)
    xv, wv, bv = x.value, w.value, b.value
    shapes = (xv.shape, wv.shape, bv.shape, h0.shape, c0.shape)
    if xv.ndim != 3 or h0.ndim != 2:
        raise ShapeMismatchError("lstm", *shapes)
    steps, q, n_in = xv.shape
    hid = h0.shape[1]
    if (steps < 1 or wv.shape != (n_in + hid, 4 * hid)
            or bv.shape != (4 * hid,) or h0.shape != (q, hid)
            or c0.shape != (q, hid)):
        raise ShapeMismatchError("lstm", *shapes)
    w_x, w_h = wv[:n_in], wv[n_in:]
    x_rows = xv.reshape(steps * q, n_in)
    blocks = [np.s_[:, k * hid : (k + 1) * hid] for k in range(4)]

    # gates[t] holds the activated (i, f, g, o) of step t; hc stacks
    # h_0..h_T then c_0..c_T, and the output is a view of its h_1..h_T
    gates = (x_rows @ w_x).reshape(steps, q, 4 * hid)
    gates += bv
    hc = np.empty((2 * (steps + 1), q, hid))
    hs, cs = hc[: steps + 1], hc[steps + 1 :]
    hs[0], cs[0] = h0, c0
    tanh_c = np.empty((steps, q, hid))
    for t in range(steps):
        a = gates[t]
        a += hs[t] @ w_h
        lstm_cell(a, cs[t], cs[t + 1], tanh_c[t], hs[t + 1])

    def rule(gh):
        gh = gh.reshape(steps, q, hid)   # at h_1..h_T
        # activation slopes of every step at once: s(1 - s) for the
        # sigmoid gates, 1 - g^2 for the cell input and 1 - tanh(c)^2
        slope = 1.0 - gates
        slope *= gates
        g_all = gates[..., 2 * hid : 3 * hid]
        slope_g = slope[..., 2 * hid : 3 * hid]
        np.multiply(g_all, g_all, out=slope_g)
        np.subtract(1.0, slope_g, out=slope_g)
        slope_c = tanh_c * tanh_c
        np.subtract(1.0, slope_c, out=slope_c)
        dgates = np.empty_like(gates)
        dh = gh[-1]
        dc = np.zeros((q, hid))          # c_T reaches no output
        tmp = np.empty((q, hid))
        for t in range(steps - 1, -1, -1):
            i, f, g, o = (gates[t][sl] for sl in blocks)
            di, df, dg, do = (dgates[t][sl] for sl in blocks)
            np.multiply(dh, o, out=tmp)
            tmp *= slope_c[t]
            dc += tmp
            np.multiply(dc, g, out=di)
            np.multiply(dc, cs[t], out=df)
            np.multiply(dc, i, out=dg)
            np.multiply(dh, tanh_c[t], out=do)
            dgates[t] *= slope[t]
            if t:
                dc *= f
                dh = dgates[t] @ w_h.T
                dh += gh[t - 1]
        da_rows = dgates.reshape(steps * q, 4 * hid)
        dw = np.empty_like(wv)
        dw[:n_in] = x_rows.T @ da_rows
        dw[n_in:] = hs[:steps].reshape(steps * q, hid).T @ da_rows
        dx = (da_rows @ w_x.T).reshape(xv.shape) if x.requires_grad else None
        return dx, dw, da_rows.sum(axis=0)

    return DiffNode(hs[1:].reshape(steps * q, hid), (x, w, b), "lstm", rule)


# hidden size -> read-only (rows, 4H) scale and shift tables of the
# activation pass, grown to the most rows any step has had
_GATE_AFFINE = {}


def _gate_affine(q, hid):
    """The (q, 4H) scale and shift of `lstm_cell`'s activation pass: each
    row is (0.5, 0.5, 1, 0.5) and (1, 1, -0.0, 1), each repeated per gate
    block.  Whole rows rather than one broadcast (4H,) row, since numpy
    runs a same-shape ufunc at about twice the speed."""
    tables = _GATE_AFFINE.get(hid)
    if tables is None or tables[0].shape[0] < q:
        tables = tuple(np.tile(np.repeat(row, hid), (q, 1))
                       for row in ([0.5, 0.5, 1.0, 0.5], [1.0, 1.0, -0.0, 1.0]))
        for t in tables:
            t.flags.writeable = False
        _GATE_AFFINE[hid] = tables
    return tables[0][:q], tables[1][:q]


def lstm_cell(a, c_prev, c=None, tanh_c=None, h=None):
    """The body of one LSTM step, shared by `lstm` and tape-free generation.

    a is the (q, 4H) pre-activation x_t @ w_x + b + h_{t-1} @ w_h, summed
    in that order.  All four gate blocks are activated in place in one
    contiguous pass, scale * (tanh(scale * a) + shift) per column:
    i, f and o get sigmoid as 0.5 * (1 + tanh(a * 0.5)), with no exp to
    overflow on either tail, and g gets tanh(a), since a * 1 is exact and
    adding -0.0 keeps every value, the sign of zero too (+0.0 would turn
    -0.0 into +0.0).  Writes c_t, tanh(c_t) and h_t into `c`, `tanh_c`
    and `h` when given, else into new arrays, and returns (h_t, c_t).
    """
    q, hid = a.shape[0], a.shape[1] // 4
    scale, shift = _gate_affine(q, hid)
    a *= scale
    np.tanh(a, out=a)
    a += shift
    a *= scale
    i, f, g, o = (a[:, k * hid : (k + 1) * hid] for k in range(4))
    c = np.multiply(f, c_prev, out=c)
    tanh_c = np.multiply(i, g, out=tanh_c)
    c += tanh_c
    np.tanh(c, out=tanh_c)
    return np.multiply(o, tanh_c, out=h), c


def output_view(core, index, shape):
    """One output of a fused op: `core.value[index]` reshaped to `shape`.
    Its gradient is scattered back into the core's layout, so the core's
    rule runs once for all of its outputs."""
    def rule(g):
        z = np.zeros_like(core.value)
        z[index] = g.reshape(z[index].shape)
        return (z,)

    return DiffNode(core.value[index].reshape(shape), (core,), "view", rule)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(root, params=None):
    """Propagate gradients from a scalar root to every reachable leaf.

    Returns a map {leaf DiffNode: gradient array}.  When `params` is given,
    the map covers exactly those nodes, with zeros for leaves the root does
    not depend on.
    """
    if root.value.size != 1:
        raise ValueError(
            f"backward: root must be scalar-shaped, got shape {root.value.shape}"
        )
    leaf_grads = {}
    if root.requires_grad:
        pending = {root._order: np.ones_like(root.value)}
        newest = [(-root._order, root)]
        while newest:
            _, node = heapq.heappop(newest)
            g = pending.pop(node._order)
            if node._rule is None:
                if not node.parents:
                    leaf_grads[node] = g
                continue
            for p, pg in zip(node.parents, node._rule(g)):
                if pg is None or not p.requires_grad:
                    continue
                key = p._order
                if key in pending:
                    pending[key] = pending[key] + pg
                else:
                    pending[key] = pg
                    heapq.heappush(newest, (-key, p))
    if params is not None:
        return {
            p: leaf_grads[p] if p in leaf_grads else np.zeros_like(p.value)
            for p in params
        }
    return leaf_grads


def grad_check(loss, leaves, step=1e-5):
    """Compare the analytic gradient of `loss()` in `leaves` against
    central differences.

    `loss` takes no arguments and builds the scalar root node from the
    leaves' current values.  Each coordinate is shifted in place through
    `leaf.value[idx]` and put back afterwards.  Returns the max over
    coordinates of |analytic - numeric| / max(1, |analytic|).
    """
    if not 0.0 < step <= 1e-2:
        raise ValueError(f"grad_check: step must be in (0, 1e-2], got {step}")
    root = loss()
    if not np.all(np.isfinite(root.value)):
        raise ValueError("grad_check: function value is not finite")
    grads = backward(root, params=leaves)

    worst = 0.0
    for leaf in leaves:
        analytic = grads[leaf]
        for idx in np.ndindex(leaf.value.shape):
            orig = leaf.value[idx]
            leaf.value[idx] = orig + step
            hi = float(loss().value)
            leaf.value[idx] = orig - step
            lo = float(loss().value)
            leaf.value[idx] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError("grad_check: function value is not finite")
            numeric = (hi - lo) / (2.0 * step)
            err = abs(analytic[idx] - numeric) / max(1.0, abs(analytic[idx]))
            worst = max(worst, err)
    return worst
