"""Reverse-mode automatic differentiation over dense float64 arrays.

Graphs are tapes: each operation returns a fresh DiffNode holding the
forward value, references to its inputs, and a closure mapping the output
gradient back to input gradients.  A graph is built per evaluation and
discarded afterwards; leaves (parameters) persist across graphs.

Elementwise operations require identical shapes.  The only broadcasts are
row-wise bias addition ((n, m) + (m,)) and scalar-node addition.
"""

from __future__ import annotations

import numpy as np

# Arguments of guarded exponentials are clamped to this band before
# exponentiation (variance / scale heads only; log_sum_exp is stabilized
# by max subtraction instead).
EXP_CLAMP = 60.0


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform to an operation's rule."""

    def __init__(self, op, *shapes):
        self.op = op
        self.shapes = tuple(tuple(int(n) for n in s) for s in shapes)
        pretty = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{op}: incompatible shapes {pretty}")


class DiffNode:
    """A value in the computation graph: data, gradient slot, and parents."""

    __slots__ = ("value", "grad", "parents", "op", "_rule", "requires_grad")

    def __init__(self, value, parents=(), op="leaf", rule=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self.op = op
        self._rule = rule
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

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
# elementwise and linear-algebra operations
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _node(a), _node(b)
    av, bv = a.value, b.value
    if av.shape == bv.shape:
        rule = lambda g: (g, g)
    elif av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
        # row-wise bias
        rule = lambda g: (g, g.sum(axis=0))
    elif bv.ndim == 0:
        rule = lambda g: (g, np.asarray(g.sum()))
    elif av.ndim == 0:
        rule = lambda g: (np.asarray(g.sum()), g)
    else:
        raise ShapeMismatchError("add", av.shape, bv.shape)
    return DiffNode(av + bv, (a, b), "add", rule)


def sub(a, b):
    a, b = _node(a), _node(b)
    if a.value.shape != b.value.shape:
        raise ShapeMismatchError("sub", a.value.shape, b.value.shape)
    return DiffNode(a.value - b.value, (a, b), "sub", lambda g: (g, -g))


def mul(a, b):
    a, b = _node(a), _node(b)
    if a.value.shape != b.value.shape:
        raise ShapeMismatchError("mul", a.value.shape, b.value.shape)
    av, bv = a.value, b.value
    return DiffNode(av * bv, (a, b), "mul", lambda g: (g * bv, g * av))


def matmul(a, b):
    a, b = _node(a), _node(b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeMismatchError("matmul", av.shape, bv.shape)
    return DiffNode(av @ bv, (a, b), "matmul", lambda g: (g @ bv.T, av.T @ g))


def neg(a):
    a = _node(a)
    return DiffNode(-a.value, (a,), "neg", lambda g: (-g,))


def square(a):
    a = _node(a)
    av = a.value
    return DiffNode(av * av, (a,), "square", lambda g: (2.0 * av * g,))


def scale(a, factor):
    """Multiply by a python scalar constant."""
    a = _node(a)
    c = float(factor)
    return DiffNode(c * a.value, (a,), "scale", lambda g: (c * g,))


def exp(a):
    a = _node(a)
    out = np.exp(a.value)
    return DiffNode(out, (a,), "exp", lambda g: (g * out,))


def log(a):
    a = _node(a)
    av = a.value
    return DiffNode(np.log(av), (a,), "log", lambda g: (g / av,))


def tanh(a):
    a = _node(a)
    out = np.tanh(a.value)
    return DiffNode(out, (a,), "tanh", lambda g: (g * (1.0 - out * out),))


def _sigmoid(x, out=None):
    """0.5 * (1 + tanh(x / 2)): no exp to overflow on either tail and no
    masks to allocate.  `out` may alias `x`."""
    out = np.tanh(x * 0.5, out=out)
    out += 1.0
    out *= 0.5
    return out


# ---------------------------------------------------------------------------
# reductions, reshaping, stacking
# ---------------------------------------------------------------------------

def reduce_sum(a, axis=None, keepdims=False):
    a = _node(a)
    av = a.value
    out = av.sum(axis=axis, keepdims=keepdims)

    def rule(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, av.shape).copy(),)

    return DiffNode(out, (a,), "sum", rule)


def reduce_mean(a, axis=None, keepdims=False):
    a = _node(a)
    av = a.value
    count = av.size if axis is None else av.shape[axis]
    out = av.mean(axis=axis, keepdims=keepdims)

    def rule(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, av.shape).copy() / count,)

    return DiffNode(out, (a,), "mean", rule)


def log_sum_exp(a, axis=None, keepdims=False):
    """log-sum-exp stabilized by max subtraction."""
    a = _node(a)
    av = a.value
    m = np.max(av, axis=axis, keepdims=True)
    s = np.exp(av - m)
    tot = s.sum(axis=axis, keepdims=True)
    out = np.log(tot) + m
    soft = s / tot
    if axis is None:
        out = out.reshape(())
    elif not keepdims:
        out = np.squeeze(out, axis=axis)

    def rule(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (soft * gg,)

    return DiffNode(out, (a,), "log_sum_exp", rule)


def concat(nodes, axis=0):
    nodes = [_node(n) for n in nodes]
    if not nodes:
        raise ValueError("concat: empty input list")
    base = nodes[0].value.shape
    for n in nodes[1:]:
        s = n.value.shape
        if len(s) != len(base) or any(
            s[i] != base[i] for i in range(len(base)) if i != axis
        ):
            raise ShapeMismatchError("concat", base, s)
    out = np.concatenate([n.value for n in nodes], axis=axis)
    sizes = [n.value.shape[axis] for n in nodes]
    offsets = np.cumsum(sizes)[:-1]

    def rule(g):
        return tuple(np.split(g, offsets, axis=axis))

    return DiffNode(out, tuple(nodes), "concat", rule)


def slice_cols(a, cols):
    """Select columns of a 2-D node.  Column indices must be unique."""
    a = _node(a)
    av = a.value
    if av.ndim != 2:
        raise ShapeMismatchError("slice", av.shape)
    idx = np.asarray(cols, dtype=np.intp)
    if idx.ndim != 1 or len(np.unique(idx)) != idx.size:
        raise ValueError("slice: column indices must be a unique 1-D set")
    out = av[:, idx]

    def rule(g):
        z = np.zeros_like(av)
        z[:, idx] = g
        return (z,)

    return DiffNode(out, (a,), "slice", rule)


# ---------------------------------------------------------------------------
# fused recurrence
# ---------------------------------------------------------------------------

def lstm(x, w, b, h0, c0):
    """Whole-sequence LSTM unroll with a hand-written BPTT backward
    (Graves 2013, "Generating Sequences With Recurrent Neural Networks").

    x is (T, q, n_in), or (q, n_in) for a single step; w is (n_in + H, 4H)
    with gate columns ordered (input, forget, cell, output); b is (4H,);
    h0 and c0 are (q, H).  Each step computes
        i, f, g, o = sigmoid, sigmoid, tanh, sigmoid of
                     x_t @ w[:n_in] + h_{t-1} @ w[n_in:] + b
        c_t = f * c_{t-1} + i * g,    h_t = o * tanh(c_t).

    Returns (hs, h_T, c_T): hs holds the t-major rows (T*q, H) of h_1..h_T
    and is h_T itself when T == 1.  The outputs read one forward cache, and
    gradients arriving at any of them are folded into a single backward
    sweep.
    """
    x, w, b, h0, c0 = (_node(n) for n in (x, w, b, h0, c0))
    xv, wv, bv = x.value, w.value, b.value
    seq = xv[None] if xv.ndim == 2 else xv
    shapes = (xv.shape, wv.shape, bv.shape, h0.value.shape, c0.value.shape)
    if seq.ndim != 3 or h0.value.ndim != 2:
        raise ShapeMismatchError("lstm", *shapes)
    steps, q, n_in = seq.shape
    hid = h0.value.shape[1]
    if (steps < 1 or wv.shape != (n_in + hid, 4 * hid)
            or bv.shape != (4 * hid,) or h0.value.shape != (q, hid)
            or c0.value.shape != (q, hid)):
        raise ShapeMismatchError("lstm", *shapes)
    w_x, w_h = wv[:n_in], wv[n_in:]
    x_rows = seq.reshape(steps * q, n_in)
    blocks = [np.s_[:, k * hid : (k + 1) * hid] for k in range(4)]
    ifo = (np.s_[:, : 2 * hid], blocks[3])           # the sigmoid gates

    # gates[t] holds the activated (i, f, g, o) of step t; hc stacks
    # h_0..h_T then c_0..c_T, and is the value the three outputs slice
    gates = (x_rows @ w_x + bv).reshape(steps, q, 4 * hid)
    hc = np.empty((2 * (steps + 1), q, hid))
    hs, cs = hc[: steps + 1], hc[steps + 1 :]
    hs[0], cs[0] = h0.value, c0.value
    tanh_c = np.empty((steps, q, hid))
    for t in range(steps):
        a = gates[t]
        a += hs[t] @ w_h
        for sl in ifo:
            _sigmoid(a[sl], out=a[sl])
        np.tanh(a[blocks[2]], out=a[blocks[2]])
        i, f, g, o = (a[sl] for sl in blocks)
        np.multiply(f, cs[t], out=cs[t + 1])
        cs[t + 1] += i * g
        np.tanh(cs[t + 1], out=tanh_c[t])
        np.multiply(o, tanh_c[t], out=hs[t + 1])

    def rule(ghc):
        dh = ghc[steps]                  # at h_T, from the hs rows and h_T
        dc = ghc[-1]                     # at c_T
        # activation slopes of every step at once: s(1 - s) for the
        # sigmoid gates, 1 - g^2 for the cell input and 1 - tanh(c)^2
        slope = gates * (1.0 - gates)
        g_all = gates[..., 2 * hid : 3 * hid]
        slope[..., 2 * hid : 3 * hid] = 1.0 - g_all * g_all
        slope_c = 1.0 - tanh_c * tanh_c
        dgates = np.empty_like(gates)
        for t in range(steps - 1, -1, -1):
            i, f, g, o = (gates[t][sl] for sl in blocks)
            di, df, dg, do = (dgates[t][sl] for sl in blocks)
            dc = dc + dh * o * slope_c[t]
            np.multiply(dc, g, out=di)
            np.multiply(dc, cs[t], out=df)
            np.multiply(dc, i, out=dg)
            np.multiply(dh, tanh_c[t], out=do)
            dgates[t] *= slope[t]
            dc = dc * f
            dh = dgates[t] @ w_h.T
            if t:
                dh += ghc[t]
        da_rows = dgates.reshape(steps * q, 4 * hid)
        dw = np.empty_like(wv)
        dw[:n_in] = x_rows.T @ da_rows
        dw[n_in:] = hs[:steps].reshape(steps * q, hid).T @ da_rows
        dx = (da_rows @ w_x.T).reshape(xv.shape) if x.requires_grad else None
        return dx, dw, da_rows.sum(axis=0), dh, dc

    core = DiffNode(hc, (x, w, b, h0, c0), "lstm", rule)
    rows = _lstm_output(core, np.s_[1 : steps + 1], (steps * q, hid))
    h_last = rows if steps == 1 else _lstm_output(core, steps, (q, hid))
    return rows, h_last, _lstm_output(core, -1, (q, hid))


def _lstm_output(core, index, shape):
    """A view of the fused cell's stacked states; its gradient is scattered
    back into the stack for the one backward sweep."""
    def rule(g):
        z = np.zeros_like(core.value)
        z[index] = g.reshape(z[index].shape)
        return (z,)

    return DiffNode(core.value[index].reshape(shape), (core,), "lstm_out", rule)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _reverse_topological(root):
    """Root first, every node before its parents.  Iterative to keep long
    unrolled graphs from hitting the recursion limit.

    Visited marking happens when a node is popped, not pushed: a shared
    node must be appended only after every path that consumes it, or its
    gradient would be propagated before all contributions arrive."""
    visited = set()
    order = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order


def backward(root, params=None):
    """Accumulate gradients from a scalar root into every reachable leaf.

    Returns a map {leaf DiffNode: gradient array}.  When `params` is given,
    the map covers exactly those nodes, with zeros for leaves the root does
    not depend on.
    """
    if root.value.size != 1:
        raise ValueError(
            f"backward: root must be scalar-shaped, got shape {root.value.shape}"
        )
    root.grad = np.ones_like(root.value)
    leaf_grads = {}
    if root.requires_grad:
        pending = {id(root): root.grad}
        for node in _reverse_topological(root):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            node.grad = g
            if node._rule is None:
                if not node.parents:
                    leaf_grads[node] = g
                continue
            for p, pg in zip(node.parents, node._rule(g)):
                if pg is None or not p.requires_grad:
                    continue
                key = id(p)
                if key in pending:
                    pending[key] = pending[key] + pg
                else:
                    pending[key] = pg
    if params is not None:
        return {
            p: leaf_grads.get(p, np.zeros_like(p.value)) for p in params
        }
    return leaf_grads


def grad_check(scalar_fn, point, step=1e-5):
    """Compare the analytic gradient of `scalar_fn` against central
    differences at `point`.

    `scalar_fn` takes one vector-shaped DiffNode and returns a scalar node.
    Returns the max over coordinates of
    |analytic - numeric| / max(1, |analytic|).
    """
    if not 0.0 < step <= 1e-2:
        raise ValueError(f"grad_check: step must be in (0, 1e-2], got {step}")
    point = np.asarray(point, dtype=np.float64).ravel()
    leaf = parameter(point)
    root = scalar_fn(leaf)
    if not np.all(np.isfinite(root.value)):
        raise ValueError("grad_check: function value is not finite")
    analytic = backward(root, params=[leaf])[leaf]

    worst = 0.0
    for i in range(point.size):
        shifted = point.copy()
        shifted[i] = point[i] + step
        hi = float(scalar_fn(constant(shifted)).value)
        shifted[i] = point[i] - step
        lo = float(scalar_fn(constant(shifted)).value)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("grad_check: function value is not finite")
        numeric = (hi - lo) / (2.0 * step)
        err = abs(analytic[i] - numeric) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
    return worst
