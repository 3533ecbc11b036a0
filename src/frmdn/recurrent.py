"""LSTM backbone and the linear head that emits per-step mixture parameters.

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
    pair `state`, in one fused op.

    Returns the node of the t-major rows (T*q, hidden) of every step's
    hidden output.  The start state gets no gradient.
    """
    x = x if isinstance(x, dc.DiffNode) else dc.constant(x)
    _check_step_inputs("lstm_step", x.value, 3, state, params)
    return dc.lstm(x, params.w, params.b, *state)


def cell_step(x, state, params):
    """Advance the cell one step on plain arrays, building no graph nodes.

    x is (q, input_dim) and state an (h, c) pair of (q, hidden) arrays.
    The arithmetic is `dc.lstm`'s own loop body in the op's summation
    order, so the new h equals a one-step `lstm_step` from the same pair
    bit for bit.  Returns the new (h, c) pair.
    """
    _check_step_inputs("cell_step", x, 2, state, params)
    w = params.w.value
    a = x @ w[: params.input_dim]
    a += params.b.value
    a += state[0] @ w[params.input_dim :]
    return dc.lstm_cell(a, state[1])


def head_logits(h, head):
    """The linear head output rows (n, K + 2*K*d) as one graph node;
    `mx.split_head` reads its layout."""
    h = h if isinstance(h, dc.DiffNode) else dc.constant(h)
    return dc.add(dc.matmul(h, head.w), head.b)


def head_project(h_vec, head):
    """Numeric mixture parameters for one (hidden,) float64 vector
    (sampling path).

    Coefficients go through the softmax, means stay raw, and scale logits go
    through the clamped exponential.
    """
    out = h_vec @ head.w.value + head.b.value
    alpha, mu, scale_logits = mx.split_head(out[None], head.k, head.dim)
    return mx.MixtureParams(mx.coeffs_from_logits(alpha[0]), mu[0],
                            mx.diag_scales_from_logits(scale_logits[0]),
                            head.structure)
