"""Reverse-mode automatic differentiation over dense float64 arrays.

Graphs are tapes: each operation returns a fresh DiffNode holding the
forward value, references to its inputs, and a closure mapping the output
gradient back to input gradients.  A graph is built per evaluation and
discarded afterwards; leaves (parameters) persist across graphs.  Every
node takes a creation number from one counter, and `backward` visits the
nodes with pending gradients newest first: a node's consumers are all
created after it, so its gradient is complete when it is visited, and no
graph search is needed (a Wengert list swept in reverse).

This module is the generic tape alone.  The model's work is done by
fused ops that each layer's own module builds with hand-written
backwards: the LSTM unroll in `recurrent`, the coupling layer in `flow`
and the mixture rows in `mixtures`.  A node whose value holds several
outputs, such as the flow's [z | log-det] rows, is read through
`output_view`s, so gradients reaching any of them meet in a single
backward call.  The generic ops are only
the glue the loss needs around them: `add` (equal shapes, or a row-wise
bias (n, m) + (m,)), `matmul`, `neg` and the whole-array `reduce_mean`.
`grad_check(loss, leaves)` compares `backward` with central differences
taken by shifting the leaves' values in place.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

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
