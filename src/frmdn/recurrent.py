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
class RecurrentState:
    h: dc.DiffNode
    c: dc.DiffNode


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
    zeros = np.zeros((batch, hidden))
    return RecurrentState(dc.constant(zeros), dc.constant(zeros.copy()))


def lstm_step(x, state, params):
    """Advance the cell from `state` over a batch node: (q, input_dim) for
    one step, or (T, q, input_dim) for T steps in one fused op.

    Returns (h, new_state).  For one step h is (q, hidden) and the same
    node as new_state.h; for T steps it holds the t-major rows
    (T*q, hidden) of every step's hidden output.  new_state holds the final
    h and c, and gradients flow back through both.
    """
    x = x if isinstance(x, dc.DiffNode) else dc.constant(x)
    H = params.hidden
    if x.value.ndim not in (2, 3) or x.value.shape[-1] != params.input_dim:
        raise ValueError(
            f"lstm_step: expected input (*, {params.input_dim}), "
            f"got {x.value.shape}"
        )
    if state.h.value.shape != (x.value.shape[-2], H):
        raise ValueError(
            f"lstm_step: state shape {state.h.value.shape} does not match "
            f"batch {x.value.shape[-2]} and hidden size {H}"
        )
    h_rows, h, c = dc.lstm(x, params.w, params.b, state.h, state.c)
    return h_rows, RecurrentState(h, c)


def generation_state(hidden):
    """The zero (h, c) pair, each a (1, hidden) array, that tape-free
    generation starts from."""
    return np.zeros((1, hidden)), np.zeros((1, hidden))


def cell_step(x, state, params):
    """Advance the cell one step on plain arrays, building no graph nodes.

    x is (1, input_dim) and state an (h, c) pair of (1, hidden) arrays.
    The arithmetic is `dc.lstm`'s own loop body in the op's summation
    order, so the new (h, c) pair equals a one-step `lstm_step` bit for bit.
    """
    h, c = state
    if x.shape != (1, params.input_dim):
        raise ValueError(f"cell_step: expected input (1, {params.input_dim}), "
                         f"got {x.shape}")
    if h.shape != (1, params.hidden) or c.shape != (1, params.hidden):
        raise ValueError(f"cell_step: state shapes {h.shape} and {c.shape} "
                         f"do not match hidden size {params.hidden}")
    w = params.w.value
    a = x @ w[: params.input_dim]
    a += params.b.value
    a += h @ w[params.input_dim :]
    return dc.lstm_cell(a, c)


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
