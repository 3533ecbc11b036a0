"""Independent numpy forward pass of the frmdn loss, used as the reference
that the benchmark checks each trained model's final loss against.

It is written from the model's stated math (LSTM with fused gates ordered
input/forget/cell/output, linear head, affine coupling stack, and the
diagonal / tied / logistic mixture densities) and shares no code with the
tape in `frmdn.model`.
"""

from __future__ import annotations

import math

import numpy as np

EXP_CLAMP = 60.0
LOG_2PI = math.log(2.0 * math.pi)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


def _logsumexp(a, axis):
    m = a.max(axis=axis, keepdims=True)
    return (np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m).squeeze(axis)


def hidden_states(model, obs, actions):
    """Hidden states after each of the first T-1 steps, t-major rows."""
    w, b = model.lstm.w.value, model.lstm.b.value
    hidden = model.lstm.hidden
    q, t, _ = obs.shape
    inputs = obs if actions is None else np.concatenate([obs, actions], axis=2)
    h = np.zeros((q, hidden))
    c = np.zeros((q, hidden))
    out = []
    for step in range(t - 1):
        pre = np.concatenate([inputs[:, step], h], axis=1) @ w + b
        i, f, g, o = np.split(pre, 4, axis=1)
        c = _sigmoid(f) * c + _sigmoid(i) * np.tanh(g)
        h = _sigmoid(o) * np.tanh(c)
        out.append(h)
    return np.concatenate(out, axis=0)


def flow_forward(y, stack):
    """(z, per-row log-determinant) through every coupling layer."""
    logdet = np.zeros(y.shape[0])
    for layer in stack.layers:
        xp = y[:, layer.pass_idx]
        xt = y[:, layer.trans_idx]
        hs = np.tanh(xp @ layer.w1s.value + layer.b1s.value)
        s = layer.s_clamp * np.tanh(hs @ layer.w2s.value + layer.b2s.value)
        ht = np.tanh(xp @ layer.w1t.value + layer.b1t.value)
        shift = ht @ layer.w2t.value + layer.b2t.value
        y = y.copy()
        y[:, layer.trans_idx] = xt * np.exp(s) + shift
        logdet = logdet + s.sum(axis=1)
    return y, logdet


def mixture_log_density(z, head_out, model):
    """Per-row log density of z under the mixture the head emits."""
    cfg = model.config
    k, d = cfg.components, cfg.dim
    n = z.shape[0]
    alpha = head_out[:, :k]
    mu = head_out[:, k:k + k * d].reshape(n, k, d)
    zs = np.clip(head_out[:, k + k * d:].reshape(n, k, d), -EXP_CLAMP, EXP_CLAMP)
    diff = z[:, None, :] - mu
    if cfg.head_structure == "diagonal":
        comp = (-0.5 * d * LOG_2PI - zs.sum(axis=2)
                - 0.5 * ((diff * np.exp(-zs)) ** 2).sum(axis=2))
    elif cfg.head_structure == "tied":
        u = model.head.u.value
        v = diff @ u
        comp = (-0.5 * d * LOG_2PI + np.linalg.slogdet(u)[1]
                + 0.5 * zs.sum(axis=2) - 0.5 * (v * v * np.exp(zs)).sum(axis=2))
    elif cfg.head_structure == "logistic":
        inv = np.exp(-zs)
        centre = diff * inv
        half = 0.5 * cfg.c_width * inv
        per_dim = (_log_sigmoid(centre + half) + _log_sigmoid(half - centre)
                   + np.log1p(-np.exp(-cfg.c_width * inv)))
        comp = per_dim.sum(axis=2) - d * math.log(cfg.c_width)
    else:
        raise ValueError(f"no reference for head {cfg.head_structure!r}")
    log_alpha = alpha - _logsumexp(alpha, axis=1)[:, None]
    return _logsumexp(log_alpha + comp, axis=1)


def sequence_nll(model, obs, actions=None):
    """(total, mixture, logdet) mean NLL per step, as frmdn.model defines it."""
    d = model.config.dim
    h = hidden_states(model, obs, actions)
    targets = obs[:, 1:, :].transpose(1, 0, 2).reshape(-1, d)
    if model.config.flow_enabled and model.flow.depth > 0:
        z, logdet = flow_forward(targets, model.flow)
    else:
        z, logdet = targets, np.zeros(targets.shape[0])
    head_out = h @ model.head.w.value + model.head.b.value
    mixture = -float(mixture_log_density(z, head_out, model).mean())
    logdet_term = -float(logdet.mean())
    return mixture + logdet_term, mixture, logdet_term
