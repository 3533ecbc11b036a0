"""Invertible affine coupling stack (Dinh et al. 2017, "Density
estimation using Real NVP").

A layer of parity p leaves coordinates p, p + 2, p + 4, ... untouched and
maps the rest through x * exp(s_hat) + t, where s and t are
one-hidden-layer feed-forward networks of the untouched ones and s_hat is
bounded by s_clamp * tanh; a stack alternates parities 0 and 1.  The
log-determinant of the Jacobian is the sum of s_hat over transformed
coordinates, and layers compose with log-determinants adding.

The forward runs on rows [x | log-det so far] of shape (n, d + 1): a
layer maps them to [y | log-det so far + its own], so a stack is one
chain from the start rows [y | 0] and needs no glue to sum its layers'
log-determinants, and an empty stack is the empty chain.  The forward
nets are evaluated in one place, `coupling_nets`, and a layer's forward
arithmetic in one, `coupling_rows`.  The forward layer is one tape op with
a hand-written backward built on it, and `flow_rows` runs the chain on
plain arrays for evaluation.  The numeric inverse reads arrays that
`inverse_nets` prepares once per stack, with the s and t nets' first
layers joined into one product (Appleyard et al. 2016's rule: constant
work moves into weights built once), so a generated row costs one
first-layer product per layer, not two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc

DEFAULT_S_CLAMP = 5.0
DEFAULT_HIDDEN = 64


def halves(dim, parity):
    """(pass-through, transformed) coordinates of a coupling layer of width
    dim >= 2 and parity 0 or 1: every other coordinate from `parity` on
    passes through, the rest are transformed.  Both slices stop at dim, so
    they select the same columns of the (n, dim + 1) [y | log-det] rows as
    of the (n, dim) ones."""
    if dim < 2:
        raise ValueError("coupling layers need dim >= 2")
    if parity not in (0, 1):
        raise ValueError(f"coupling parity must be 0 or 1, got {parity}")
    return slice(parity, dim, 2), slice(1 - parity, dim, 2)


@dataclass
class CouplingLayer:
    dim: int
    parity: int                 # 0: even coordinates pass through, 1: odd
    w1s: dc.DiffNode
    b1s: dc.DiffNode
    w2s: dc.DiffNode
    b2s: dc.DiffNode
    w1t: dc.DiffNode
    b1t: dc.DiffNode
    w2t: dc.DiffNode
    b2t: dc.DiffNode
    s_clamp: float = DEFAULT_S_CLAMP
    pass_idx: slice = field(init=False)
    trans_idx: slice = field(init=False)

    def __post_init__(self):
        self.pass_idx, self.trans_idx = halves(self.dim, self.parity)

    def parameters(self):
        return [
            ("w1s", self.w1s), ("b1s", self.b1s),
            ("w2s", self.w2s), ("b2s", self.b2s),
            ("w1t", self.w1t), ("b1t", self.b1t),
            ("w2t", self.w2t), ("b2t", self.b2t),
        ]


@dataclass
class FlowStack:
    layers: list

    @property
    def depth(self):
        return len(self.layers)

    def parameters(self):
        out = []
        for i, layer in enumerate(self.layers):
            out.extend((f"flow.{i}.{name}", node) for name, node in layer.parameters())
        return out


def coupling_shapes(d_pass, d_trans, hidden):
    """Shape of each coupling-layer parameter, by name, in
    `CouplingLayer.parameters` order."""
    shapes = {}
    for net in ("s", "t"):
        shapes[f"w1{net}"] = (d_pass, hidden)
        shapes[f"b1{net}"] = (hidden,)
        shapes[f"w2{net}"] = (hidden, d_trans)
        shapes[f"b2{net}"] = (d_trans,)
    return shapes


def make_coupling_layer(dim, parity, rng, hidden=DEFAULT_HIDDEN,
                        s_clamp=DEFAULT_S_CLAMP):
    """Hidden layers (w1s, w1t) get scaled-uniform fan-in init; output
    layers start at zero so a fresh layer is the identity map."""
    d_pass = len(range(dim)[halves(dim, parity)[0]])
    nodes = {}
    for name, shape in coupling_shapes(d_pass, dim - d_pass, hidden).items():
        if name.startswith("w1"):
            bound = 1.0 / np.sqrt(shape[0])
            nodes[name] = dc.parameter(rng.uniform(-bound, bound, size=shape))
        else:
            nodes[name] = dc.parameter(np.zeros(shape))
    return CouplingLayer(dim, parity, s_clamp=s_clamp, **nodes)


def flow_shapes(dim, n_pairs, hidden=DEFAULT_HIDDEN):
    """The `coupling_shapes` of each layer `make_flow` builds, worked out
    without allocating anything."""
    for i in range(2 * n_pairs):
        d_pass = len(range(dim)[halves(dim, i % 2)[0]])
        yield coupling_shapes(d_pass, dim - d_pass, hidden)


def make_flow(dim, n_pairs, rng, hidden=DEFAULT_HIDDEN, s_clamp=DEFAULT_S_CLAMP):
    """Stack of `n_pairs` coupling pairs: layer i has parity i % 2, so every
    coordinate is transformed once per pair."""
    if n_pairs < 0:
        raise ValueError("n_pairs must be non-negative")
    return FlowStack([make_coupling_layer(dim, i % 2, rng, hidden, s_clamp)
                      for i in range(2 * n_pairs)])


# ---------------------------------------------------------------------------
# forward (graph and plain arrays) and inverse (numeric)
# ---------------------------------------------------------------------------

def coupling_nets(layer, x_pass):
    """The layer's s and t nets on a pass-through block (n, d_pass).

    Returns (s_hat, t, hidden): s_hat and t are (n, d_trans), and hidden
    holds the activations (tanh of the s hidden layer, tanh of the s
    output, tanh of the t hidden layer) that the backward reuses.
    """
    hs = np.tanh(x_pass @ layer.w1s.value + layer.b1s.value)
    ts = np.tanh(hs @ layer.w2s.value + layer.b2s.value)
    ht = np.tanh(x_pass @ layer.w1t.value + layer.b1t.value)
    t = ht @ layer.w2t.value + layer.b2t.value
    return layer.s_clamp * ts, t, (hs, ts, ht)


def coupling_rows(xv, layer):
    """The forward arithmetic of one coupling layer on float64 rows
    [x | log-det so far] of shape (n, d + 1), shared by the op
    `coupling_forward` and the tape-free `flow_rows`.

    Returns (out, rule): out holds [y | log-det so far + this layer's] as
    (n, d + 1), and rule(g, x_grad) maps out's gradient to those of the
    input rows (None unless x_grad; column d passes g's column d through)
    and of the layer's eight parameters.  A caller that needs only values
    drops the rule.  The pass-through and transformed blocks, and the
    rule's transformed block of g, are C-ordered copies of the parity
    slices: as strided views they would send some products, such as
    xp.T @ g_as at d = 2, through numpy's loop instead of BLAS.
    """
    d = layer.dim
    if xv.ndim != 2 or xv.shape[1] != d + 1:
        raise dc.ShapeMismatchError("coupling", xv.shape, (d + 1,))
    pas, trans = layer.pass_idx, layer.trans_idx
    xp, xt = np.ascontiguousarray(xv[:, pas]), np.ascontiguousarray(xv[:, trans])
    s_hat, t, (hs, ts, ht) = coupling_nets(layer, xp)
    scale = np.exp(s_hat)
    out = np.empty_like(xv)
    out[:, pas] = xp
    out[:, trans] = xt * scale + t
    out[:, d] = xv[:, d] + s_hat.sum(axis=1)
    w1s, w2s, w1t, w2t = (layer.w1s.value, layer.w2s.value, layer.w1t.value,
                          layer.w2t.value)

    def rule(g, x_grad):
        g_t = np.ascontiguousarray(g[:, trans])
        # through s_hat = s_clamp * ts, from y_trans and from the log-det
        g_bs = (g_t * xt * scale + g[:, d:]) * (layer.s_clamp * (1.0 - ts * ts))
        g_as = (g_bs @ w2s.T) * (1.0 - hs * hs)
        g_at = (g_t @ w2t.T) * (1.0 - ht * ht)
        g_x = None
        if x_grad:
            g_x = np.empty_like(xv)
            g_x[:, pas] = g[:, pas] + g_as @ w1s.T + g_at @ w1t.T
            g_x[:, trans] = g_t * scale
            g_x[:, d] = g[:, d]
        return (g_x, xp.T @ g_as, g_as.sum(axis=0), hs.T @ g_bs,
                g_bs.sum(axis=0), xp.T @ g_at, g_at.sum(axis=0), ht.T @ g_t,
                g_t.sum(axis=0))

    return out, rule


def coupling_forward(x, layer):
    """One coupling layer on a node of [x | log-det so far] rows (n, d + 1),
    as one tape op, "coupling", with parents x and the layer's eight
    parameters.  Returns the node of [y | log-det so far + this layer's]
    rows (n, d + 1)."""
    out, rule = coupling_rows(x.value, layer)
    params = [node for _, node in layer.parameters()]
    return dc.DiffNode(out, [x] + params, "coupling",
                       lambda g: rule(g, x.requires_grad))


def inverse_net(layer):
    """The arrays `coupling_inverse` reads for one layer, as the tuple
    (pass_idx, trans_idx, w1, b1, h, w2s, b2s, -s_clamp, w2t, b2t).

    w1 (d_pass, 2h) and b1 (1, 2h) are the s net's first layer joined with
    the t net's, copied from the parameters; the first h columns of their
    activations feed w2s, the rest w2t.  The second layers are the
    parameters' own arrays.  Every bias is a (1, k) row: adding it to one
    row of the same shape skips numpy's broadcast set-up, and its sums are
    the (k,) bias's bit for bit."""
    h = layer.w1s.value.shape[1]
    return (layer.pass_idx, layer.trans_idx,
            np.concatenate([layer.w1s.value, layer.w1t.value], axis=1),
            np.concatenate([layer.b1s.value, layer.b1t.value])[None], h,
            layer.w2s.value, layer.b2s.value[None], -layer.s_clamp,
            layer.w2t.value, layer.b2t.value[None])


def inverse_nets(stack):
    """`inverse_net` of every layer in the order `flow_inverse` runs them,
    last layer first.  A rollout builds them once and every generated row
    reads them."""
    return [inverse_net(layer) for layer in reversed(stack.layers)]


def coupling_inverse(y, net):
    """Numeric inverse of one layer, from its `inverse_net` arrays, on a
    float64 batch array (n, d); y is left untouched.  Per-call overhead
    dominates on a sampling step's single row, so both nets' hidden layers
    come from one product, one bias add and one in-place tanh, and the
    pass-through block is read through its parity slice without a copy.
    Values are `coupling_nets`' up to rounding: the joined product, and
    on one row a strided block, sum in another order than its two
    products."""
    pas, trans, w1, b1, h, w2s, b2s, neg_clamp, w2t, b2t = net
    a = y[:, pas] @ w1
    a += b1
    np.tanh(a, out=a)
    ts = np.tanh(a[:, :h] @ w2s + b2s)
    x = y.copy()
    x[:, trans] = (y[:, trans] - (a[:, h:] @ w2t + b2t)) * np.exp(neg_clamp * ts)
    return x


def flow_forward(y, stack):
    """The stack on a float64 array y (n, d) as one chain of coupling ops
    from the constant rows [y | 0].  Returns (z node (n, d), per-row
    log-determinant node (n,)), the two views of the chain's last node; an
    empty stack's are y and zeros."""
    node = dc.constant(np.column_stack([y, np.zeros(len(y))]))
    for layer in stack.layers:
        node = coupling_forward(node, layer)
    n, d = y.shape
    return (dc.output_view(node, np.s_[:, :d], (n, d)),
            dc.output_view(node, np.s_[:, d], (n,)))


def flow_rows(y, stack):
    """`flow_forward` on a float64 array (n, d) for a caller that needs no
    gradient: the same chain from [y | 0], each layer's rule dropped at
    once, so the next layer runs without this one's hidden activations.
    Returns (z (n, d), per-row log-determinant (n,)), views of the last
    rows, equal to the op's values bit for bit and building no graph
    nodes; an empty stack's are y and zeros."""
    rows = np.column_stack([y, np.zeros(len(y))])
    for layer in stack.layers:
        rows = coupling_rows(rows, layer)[0]
    d = y.shape[1]
    return rows[:, :d], rows[:, d]


def row_floats(stack):
    """float64 values per row that `flow_rows` holds at its peak, 0 for an
    empty stack.  A layer of width d, net width h and d_t transformed
    coordinates holds its input rows (d + 1, the previous layer's output),
    the pass-through and transformed blocks (d), and at its widest either
    the s net's hidden rows, ts and the t net's hidden layer being formed
    (3h + d_t), or both hidden layers, ts, t, s_hat, exp(s_hat), its
    output (d + 1) and two temporaries of the update (2h + d + 1 + 6 d_t).
    A caller that sizes row chunks by a byte budget reads it."""
    out = 0
    for layer in stack.layers:
        d, d_t = layer.dim, len(range(layer.dim)[layer.trans_idx])
        h = layer.w1s.value.shape[1]
        out = max(out, 2 * d + 1 + max(3 * h + d_t, 2 * h + d + 1 + 6 * d_t))
    return out


def flow_inverse(z, stack, nets=None):
    """Numeric inverse of the whole stack (layers applied in reverse) on
    rows z, (n, d) or one (d,) row.  nets is the stack's `inverse_nets`,
    built here when None."""
    x = np.asarray(z, dtype=np.float64)
    if x.ndim < 2:
        x = x.reshape(1, -1)
    for net in inverse_nets(stack) if nets is None else nets:
        x = coupling_inverse(x, net)
    return x
