"""Invertible affine coupling stack (Dinh et al. 2017, "Density
estimation using Real NVP").

Each layer leaves a masked half of the coordinates untouched and maps the
rest through x * exp(s_hat) + t, where s and t are one-hidden-layer
feed-forward networks of the untouched half and s_hat is bounded by
s_clamp * tanh.  The log-determinant of the Jacobian is the sum of s_hat
over transformed coordinates, and layers compose with log-determinants
adding.

The nets are evaluated in one place, `coupling_nets`, and a layer's
forward arithmetic in one, `coupling_rows`.  The forward layer is one tape
op with a hand-written backward built on it, `flow_rows` runs it on plain
arrays for evaluation, and the numeric inverse calls the nets too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc

DEFAULT_S_CLAMP = 5.0
DEFAULT_HIDDEN = 64


@dataclass
class CouplingLayer:
    mask: np.ndarray            # 1 = pass-through coordinate, 0 = transformed
    w1s: dc.DiffNode
    b1s: dc.DiffNode
    w2s: dc.DiffNode
    b2s: dc.DiffNode
    w1t: dc.DiffNode
    b1t: dc.DiffNode
    w2t: dc.DiffNode
    b2t: dc.DiffNode
    s_clamp: float = DEFAULT_S_CLAMP
    pass_idx: np.ndarray = field(init=False)
    trans_idx: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mask = np.asarray(self.mask)
        if not (np.any(self.mask == 1) and np.any(self.mask == 0)):
            raise ValueError("coupling mask needs both pass-through and "
                             "transformed coordinates")
        self.pass_idx = np.where(self.mask == 1)[0]
        self.trans_idx = np.where(self.mask == 0)[0]

    @property
    def dim(self):
        return self.mask.shape[0]

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


def make_coupling_layer(dim, mask, rng, hidden=DEFAULT_HIDDEN,
                        s_clamp=DEFAULT_S_CLAMP):
    """Hidden layers (w1s, w1t) get scaled-uniform fan-in init; output
    layers start at zero so a fresh layer is the identity map."""
    mask = np.asarray(mask)
    d_pass = int(mask.sum())
    nodes = {}
    for name, shape in coupling_shapes(d_pass, dim - d_pass, hidden).items():
        if name.startswith("w1"):
            bound = 1.0 / np.sqrt(shape[0])
            nodes[name] = dc.parameter(rng.uniform(-bound, bound, size=shape))
        else:
            nodes[name] = dc.parameter(np.zeros(shape))
    return CouplingLayer(mask=mask, s_clamp=s_clamp, **nodes)


def _pass_through(i):
    """Layer i of a stack passes the even coordinates through when i is
    even and the odd ones when i is odd, so every coordinate is
    transformed once per pair."""
    return slice(i % 2, None, 2)


def flow_shapes(dim, n_pairs, hidden=DEFAULT_HIDDEN):
    """The `coupling_shapes` of each layer `make_flow` builds, worked out
    without allocating anything."""
    for i in range(2 * n_pairs):
        d_pass = len(range(dim)[_pass_through(i)])
        yield coupling_shapes(d_pass, dim - d_pass, hidden)


def make_flow(dim, n_pairs, rng, hidden=DEFAULT_HIDDEN, s_clamp=DEFAULT_S_CLAMP):
    """Stack of `n_pairs` coupling pairs with alternating even/odd masks."""
    if n_pairs < 0:
        raise ValueError("n_pairs must be non-negative")
    if n_pairs > 0 and dim < 2:
        raise ValueError("coupling layers need dim >= 2")
    layers = []
    for i in range(2 * n_pairs):
        mask = np.zeros(dim, dtype=np.int64)
        mask[_pass_through(i)] = 1
        layers.append(make_coupling_layer(dim, mask, rng, hidden, s_clamp))
    return FlowStack(layers)


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
    """The forward arithmetic of one coupling layer on a float64 array
    (n, d), shared by the op `coupling_forward` and the tape-free
    `flow_rows`.

    Returns (out, rule): out holds [y | per-row log-determinant] as
    (n, d + 1), and rule(g, x_grad) maps out's gradient to those of x
    (None unless x_grad) and of the layer's eight parameters.  A caller
    that needs only values drops the rule.
    """
    if xv.ndim != 2 or xv.shape[1] != layer.dim:
        raise dc.ShapeMismatchError("coupling", xv.shape, (layer.dim,))
    n, d = xv.shape
    pas, trans = layer.pass_idx, layer.trans_idx
    xp, xt = xv[:, pas], xv[:, trans]
    s_hat, t, (hs, ts, ht) = coupling_nets(layer, xp)
    scale = np.exp(s_hat)
    out = np.empty((n, d + 1))
    out[:, pas] = xp
    out[:, trans] = xt * scale + t
    out[:, d] = s_hat.sum(axis=1)
    w1s, w2s, w1t, w2t = (layer.w1s.value, layer.w2s.value, layer.w1t.value,
                          layer.w2t.value)

    def rule(g, x_grad):
        g_t = g[:, trans]
        # through s_hat = s_clamp * ts, from y_trans and from the log-det
        g_bs = (g_t * xt * scale + g[:, d:]) * (layer.s_clamp * (1.0 - ts * ts))
        g_as = (g_bs @ w2s.T) * (1.0 - hs * hs)
        g_at = (g_t @ w2t.T) * (1.0 - ht * ht)
        g_x = None
        if x_grad:
            g_x = np.empty_like(xv)
            g_x[:, pas] = g[:, pas] + g_as @ w1s.T + g_at @ w1t.T
            g_x[:, trans] = g_t * scale
        return (g_x, xp.T @ g_as, g_as.sum(axis=0), hs.T @ g_bs,
                g_bs.sum(axis=0), xp.T @ g_at, g_at.sum(axis=0), ht.T @ g_t,
                g_t.sum(axis=0))

    return out, rule


def coupling_forward(x, layer):
    """One coupling layer on a batch node (n, d), as one tape op with
    parents x and the layer's eight parameters.

    Returns (y node, per-row log-determinant node of shape (n,)); both are
    views of one core node holding [y | log-det] as (n, d + 1).
    """
    x = x if isinstance(x, dc.DiffNode) else dc.constant(x)
    out, rule = coupling_rows(x.value, layer)
    n, d = x.value.shape
    params = [node for _, node in layer.parameters()]
    core = dc.DiffNode(out, [x] + params, "coupling",
                       lambda g: rule(g, x.requires_grad))
    return (dc.output_view(core, np.s_[:, :d], (n, d)),
            dc.output_view(core, np.s_[:, d], (n,)))


def coupling_inverse(y, layer):
    """Numeric inverse of one layer on a float64 batch array (n, d); y is
    left untouched.  `take` gathers the same columns as fancy indexing
    with less per-call overhead, which dominates on a sampling step's
    single row."""
    s_hat, t, _ = coupling_nets(layer, y.take(layer.pass_idx, axis=1))
    x = y.copy()
    x[:, layer.trans_idx] = (y.take(layer.trans_idx, axis=1) - t) * np.exp(-s_hat)
    return x


def flow_forward(y, stack):
    """Compose all layers; total log-determinant is the sum over layers."""
    z = y if isinstance(y, dc.DiffNode) else dc.constant(y)
    total = None
    for layer in stack.layers:
        z, ld = coupling_forward(z, layer)
        total = ld if total is None else dc.add(total, ld)
    if total is None:
        total = dc.constant(np.zeros(z.value.shape[0]))
    return z, total


def flow_rows(y, stack):
    """`flow_forward` on a float64 array (n, d) for a caller that needs no
    gradient: (z, per-row log-determinant (n,)), equal to the op's values
    bit for bit and building no graph nodes."""
    z, total = y, None
    for layer in stack.layers:
        out, _ = coupling_rows(z, layer)
        z, ld = out[:, :layer.dim], out[:, layer.dim]
        total = ld if total is None else total + ld
    if total is None:
        total = np.zeros(z.shape[0])
    return z, total


def flow_inverse(z, stack):
    """Numeric inverse of the whole stack (layers applied in reverse) on
    rows z, (n, d) or one (d,) row."""
    x = np.asarray(z, dtype=np.float64)
    if x.ndim < 2:
        x = x.reshape(1, -1)
    for layer in reversed(stack.layers):
        x = coupling_inverse(x, layer)
    return x
