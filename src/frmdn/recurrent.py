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


def init_lstm(input_dim, hidden, rng):
    """Scaled-uniform fan-in weights; forget-gate bias starts at 1 so early
    gradients reach back through time."""
    fan_in = input_dim + hidden
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, 4 * hidden))
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = 1.0
    return LstmParams(dc.parameter(w), dc.parameter(b), input_dim, hidden)


def init_head(hidden, k, dim, structure, rng):
    out_dim = k + 2 * k * dim
    bound = 1.0 / np.sqrt(hidden)
    w = rng.uniform(-bound, bound, size=(hidden, out_dim))
    u = dc.parameter(np.eye(dim)) if structure == "tied" else None
    return HeadParams(dc.parameter(w), dc.parameter(np.zeros(out_dim)),
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


def head_logits(h, head):
    """The linear head output rows (n, K + 2*K*d) as one graph node;
    `mx.split_head` reads its layout."""
    h = h if isinstance(h, dc.DiffNode) else dc.constant(h)
    return dc.add(dc.matmul(h, head.w), head.b)


def head_project(h_vec, head):
    """Numeric mixture parameters for one hidden vector (sampling path).

    Coefficients go through the softmax, means stay raw, and scale logits go
    through the clamped exponential.
    """
    h_vec = np.asarray(h_vec, dtype=np.float64).ravel()
    out = h_vec @ head.w.value + head.b.value
    alpha, mu, scale_logits = mx.split_head(out[None], head.k, head.dim)
    return mx.MixtureParams(mx.coeffs_from_logits(alpha[0]), mu[0],
                            mx.diag_scales_from_logits(scale_logits[0]),
                            head.structure)
