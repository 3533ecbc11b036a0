"""Model composition and training.

The per-step loss transforms the next observation through the coupling
stack, evaluates the mixture emitted by the recurrent head at the
transformed point, and subtracts the flow's log-determinant:

    loss_t = -log p_mix(f(y_{t+1})) - log |det df/dy|

With the flow disabled (or zero-initialized) the log-determinant term
vanishes and the objective is the plain recurrent mixture density NLL.
Training is teacher-forced: ground-truth observations feed every step.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import flow as fl
from . import mixtures as mx
from . import recurrent as rc
from .datasets import SequenceBatch, read_exact, slice_windows

FRMD_MAGIC = b"FRMD"
FRMD_VERSION = 1


class NumericsError(RuntimeError):
    """Loss or gradients left the representable range."""


@dataclass
class ModelConfig:
    dim: int
    action_dim: int = 0
    components: int = 1
    hidden: int = 32
    flow_depth: int = 1              # number of coupling pairs
    head_structure: str = "diagonal"
    flow_enabled: bool = True
    c_width: float = 1.0
    flow_hidden: int = fl.DEFAULT_HIDDEN
    s_clamp: float = fl.DEFAULT_S_CLAMP

    def validate(self):
        if self.dim < 1 or self.components < 1 or self.hidden < 1:
            raise ValueError("dim, components and hidden must be positive")
        if self.action_dim < 0 or self.flow_depth < 0:
            raise ValueError("action_dim and flow_depth must be non-negative")
        if self.head_structure not in mx.STRUCTURES:
            raise ValueError(f"unknown head structure {self.head_structure!r}")
        if self.c_width <= 0.0:
            raise ValueError("c_width must be positive")
        if self.flow_enabled and self.flow_depth > 0 and self.dim < 2:
            raise ValueError("coupling layers need dim >= 2")

    @property
    def input_dim(self):
        return self.dim + self.action_dim


@dataclass
class LossRecord:
    total: float
    mixture: float
    logdet: float


@dataclass
class FrmdnModel:
    lstm: rc.LstmParams
    head: rc.HeadParams
    flow: fl.FlowStack
    config: ModelConfig

    def parameters(self):
        out = list(self.lstm.parameters()) + list(self.head.parameters())
        out.extend(self.flow.parameters())
        return out

    def shared_matrix(self):
        if self.head.u is None:
            return mx.SharedMatrix.identity(self.config.dim)
        return mx.SharedMatrix(self.head.u.value.copy())


def build_model(config, seed=0):
    config.validate()
    rng = np.random.default_rng(seed)
    lstm = rc.init_lstm(config.input_dim, config.hidden, rng)
    head = rc.init_head(config.hidden, config.components, config.dim,
                        config.head_structure, rng)
    if config.flow_enabled and config.flow_depth > 0:
        stack = fl.make_flow(config.dim, config.flow_depth, rng,
                             hidden=config.flow_hidden, s_clamp=config.s_clamp)
    else:
        stack = fl.FlowStack([])
    return FrmdnModel(lstm, head, stack, config)


# ---------------------------------------------------------------------------
# loss graph
# ---------------------------------------------------------------------------

def _nll_graph(model, obs, actions):
    """Loss graph over a batch of equal-length windows.

    Returns (root, mixture_term, logdet_term) scalar nodes with
    root = mixture_term + logdet_term.
    """
    cfg = model.config
    q, t, d = obs.shape
    if t < 2:
        raise ValueError(f"sequence_nll needs T >= 2, got T={t}")
    if d != cfg.dim:
        raise ValueError(f"observation dim {d} does not match model dim {cfg.dim}")
    if cfg.action_dim and (actions is None or actions.shape[2] != cfg.action_dim):
        raise ValueError("batch is missing the action stream the model expects")

    x = obs[:, :-1, :]
    if cfg.action_dim:
        x = np.concatenate([x, actions[:, :-1, :]], axis=2)
    h_all, _ = rc.lstm_step(dc.constant(x.transpose(1, 0, 2)),    # t-major rows
                            rc.initial_state(q, cfg.hidden), model.lstm)

    targets = obs[:, 1:, :].transpose(1, 0, 2).reshape(-1, d)    # align t-major
    z = dc.constant(targets)
    if cfg.flow_enabled and model.flow.depth > 0:
        z, logdet_rows = fl.flow_forward(z, model.flow)
        logdet_term = dc.neg(dc.reduce_mean(logdet_rows))
    else:
        logdet_term = dc.constant(np.zeros(()))

    alpha_logits, mu, scale_logits = rc.head_logits(h_all, model.head)
    rows = mx.mixture_log_rows(z, alpha_logits, mu, scale_logits, model.head,
                               cfg.c_width)
    mixture_term = dc.neg(dc.reduce_mean(rows))
    root = dc.add(mixture_term, logdet_term)
    return root, mixture_term, logdet_term


def sequence_nll(model, batch):
    """Mean NLL per step over a batch, with its two terms.

    The mixture term alone is the quantity comparable across models that
    share a target space; the total additionally charges the flow's volume
    change.
    """
    root, mixture, logdet = _nll_graph(model, batch.observations, batch.actions)
    total = float(root.value)
    if not np.isfinite(total):
        raise NumericsError("sequence_nll produced a non-finite loss")
    return LossRecord(total, float(mixture.value), float(logdet.value))


def evaluate(model, batch, window=None):
    """NLL on non-overlapping windows of a batch (whole sequences when
    `window` is None)."""
    if window is None:
        return sequence_nll(model, batch)
    obs, acts = slice_windows(batch, window)
    return sequence_nll(model, SequenceBatch(obs, acts))


# ---------------------------------------------------------------------------
# optimizers and the training step
# ---------------------------------------------------------------------------

class RmsProp:
    name = "rmsprop"

    def __init__(self, lr=1e-4, alpha=0.99, eps=1e-8):
        self.lr = lr
        self.alpha = alpha
        self.eps = eps
        self.sq = {}

    def update(self, named_params, grads):
        for name, node in named_params:
            g = grads[node]
            sq = self.sq.get(name)
            if sq is None:
                sq = np.zeros_like(node.value)
            sq = self.alpha * sq + (1.0 - self.alpha) * g * g
            self.sq[name] = sq
            node.value = node.value - self.lr * g / (np.sqrt(sq) + self.eps)

    def state_arrays(self):
        return {f"opt.sq.{name}": arr for name, arr in self.sq.items()}

    def load_state_arrays(self, arrays):
        self.sq = {
            name[len("opt.sq."):]: arr
            for name, arr in arrays.items()
            if name.startswith("opt.sq.")
        }


class Adam:
    name = "adam"

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = {}
        self.v = {}

    def update(self, named_params, grads):
        self.step += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1**self.step
        corr2 = 1.0 - b2**self.step
        for name, node in named_params:
            g = grads[node]
            m = self.m.get(name, np.zeros_like(node.value))
            v = self.v.get(name, np.zeros_like(node.value))
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            self.m[name] = m
            self.v[name] = v
            node.value = node.value - self.lr * (m / corr1) / (
                np.sqrt(v / corr2) + self.eps
            )

    def state_arrays(self):
        out = {"opt.step": np.asarray(float(self.step))}
        out.update({f"opt.m.{n}": a for n, a in self.m.items()})
        out.update({f"opt.v.{n}": a for n, a in self.v.items()})
        return out

    def load_state_arrays(self, arrays):
        self.step = int(arrays.get("opt.step", np.zeros(())))
        self.m = {n[len("opt.m."):]: a for n, a in arrays.items()
                  if n.startswith("opt.m.")}
        self.v = {n[len("opt.v."):]: a for n, a in arrays.items()
                  if n.startswith("opt.v.")}


def make_optimizer(name, lr):
    if name == "rmsprop":
        return RmsProp(lr=lr)
    if name == "adam":
        return Adam(lr=lr)
    raise ValueError(f"unknown optimizer {name!r}")


def train_step(model, batch, optimizer, clip_norm=10.0):
    """One gradient step; the model is untouched if anything is non-finite."""
    root, mixture, logdet = _nll_graph(model, batch.observations, batch.actions)
    record = LossRecord(float(root.value), float(mixture.value),
                        float(logdet.value))
    if not np.isfinite(record.total):
        raise NumericsError("training loss is non-finite")
    named = model.parameters()
    grads = dc.backward(root, params=[node for _, node in named])
    sq_sum = sum(float((g * g).sum()) for g in grads.values())
    if not np.isfinite(sq_sum):
        raise NumericsError("non-finite gradient")
    norm = math.sqrt(sq_sum)
    if norm > clip_norm:
        factor = clip_norm / norm
        grads = {node: g * factor for node, g in grads.items()}
    optimizer.update(named, grads)
    return record


def gradient_check_model(model, batch, step=1e-5):
    """Max relative error between the loss gradient and central finite
    differences, swept over every parameter coordinate."""
    named = model.parameters()
    root, _, _ = _nll_graph(model, batch.observations, batch.actions)
    grads = dc.backward(root, params=[node for _, node in named])
    worst = 0.0
    for _, node in named:
        flat = node.value.ravel()
        analytic = grads[node].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(_nll_graph(model, batch.observations, batch.actions)[0].value)
            flat[i] = orig - step
            lo = float(_nll_graph(model, batch.observations, batch.actions)[0].value)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            err = abs(analytic[i] - numeric) / max(1.0, abs(analytic[i]))
            worst = max(worst, err)
    return worst


@dataclass
class TrainSettings:
    epochs: int = 30
    lr: float = 1e-4
    optimizer: str = "rmsprop"
    batch_size: int = 16
    window: int = 32
    seed: int = 0
    clip_norm: float = 10.0


def train_model(model, train_batch, settings, test_batch=None,
                optimizer=None, start_epoch=0):
    """Epoch loop over shuffled windows.

    Emits one metrics row per (epoch, split); epoch `start_epoch` is the
    pre-training evaluation.  The shuffle for epoch e is seeded by
    (settings.seed, e), so a resumed run replays the identical schedule.
    """
    obs, acts = slice_windows(train_batch, settings.window)
    n_windows = obs.shape[0]
    if optimizer is None:
        optimizer = make_optimizer(settings.optimizer, settings.lr)
    rows = []

    def log_eval(epoch):
        for split, batch in (("train", train_batch), ("test", test_batch)):
            if batch is None:
                continue
            rec = evaluate(model, batch, settings.window)
            rows.append({
                "epoch": epoch, "split": split, "nll_total": rec.total,
                "nll_mixture": rec.mixture, "nll_logdet": rec.logdet,
            })

    log_eval(start_epoch)
    for epoch in range(start_epoch + 1, start_epoch + settings.epochs + 1):
        order = np.random.default_rng([settings.seed, epoch]).permutation(n_windows)
        for lo in range(0, n_windows, settings.batch_size):
            pick = order[lo : lo + settings.batch_size]
            window = SequenceBatch(obs[pick], None if acts is None else acts[pick])
            train_step(model, window, optimizer, settings.clip_norm)
        log_eval(epoch)
    return rows, optimizer


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def generate_step(model, x_t, state, rng):
    """Advance the backbone on the full input vector x_t (observation plus
    action when present), sample the emitted mixture, and map the draw back
    through the inverse flow.

    The new state comes back as constant nodes: generation never runs a
    backward, so each step cuts the tape instead of chaining the next
    step's op onto every earlier one."""
    x_t = np.asarray(x_t, dtype=np.float64).reshape(1, -1)
    h, new_state = rc.lstm_step(dc.constant(x_t), state, model.lstm)
    new_state = rc.RecurrentState(dc.constant(new_state.h.value),
                                  dc.constant(new_state.c.value))
    params = rc.head_project(h.value[0], model.head)
    shared = model.shared_matrix() if model.config.head_structure == "tied" else None
    z = mx.mixture_sample(params, shared, rng)
    if model.config.flow_enabled and model.flow.depth > 0:
        y = fl.flow_inverse(z.reshape(1, -1), model.flow)[0]
    else:
        y = z
    return y, new_state


def rollout(model, y_0, action_fn, steps, rng=None, seed=0):
    """Free-running generation: each sample feeds the next step.

    Returns one sequence of steps+1 observations (y_0 first).  When the
    model takes actions, action_fn(t) supplies the action applied at step t;
    the final action row is zero padding.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    cfg = model.config
    if rng is None:
        rng = np.random.default_rng(seed)
    y = np.asarray(y_0, dtype=np.float64).ravel()
    state = rc.initial_state(1, cfg.hidden)
    obs = np.empty((steps + 1, cfg.dim))
    obs[0] = y
    acts = np.zeros((steps + 1, cfg.action_dim)) if cfg.action_dim else None
    for t in range(steps):
        if cfg.action_dim:
            a = np.asarray(action_fn(t), dtype=np.float64).ravel()
            acts[t] = a
            x = np.concatenate([y, a])
        else:
            x = y
        y, state = generate_step(model, x, state, rng)
        obs[t + 1] = y
    return SequenceBatch(obs[None], None if acts is None else acts[None],
                         "rollout")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _config_text(config, extra=None):
    entries = {
        "dim": config.dim,
        "action_dim": config.action_dim,
        "components": config.components,
        "hidden": config.hidden,
        "flow_depth": config.flow_depth,
        "head_structure": config.head_structure,
        "flow_enabled": int(config.flow_enabled),
        "c_width": repr(config.c_width),
        "flow_hidden": config.flow_hidden,
        "s_clamp": repr(config.s_clamp),
    }
    if extra:
        entries.update(extra)
    return "".join(f"{k}={entries[k]}\n" for k in sorted(entries))


def _parse_config_text(text):
    entries = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    config = ModelConfig(
        dim=int(entries.pop("dim")),
        action_dim=int(entries.pop("action_dim")),
        components=int(entries.pop("components")),
        hidden=int(entries.pop("hidden")),
        flow_depth=int(entries.pop("flow_depth")),
        head_structure=entries.pop("head_structure"),
        flow_enabled=bool(int(entries.pop("flow_enabled"))),
        c_width=float(entries.pop("c_width")),
        flow_hidden=int(entries.pop("flow_hidden")),
        s_clamp=float(entries.pop("s_clamp")),
    )
    return config, entries


def _write_array(fh, name, arr):
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_array(fh):
    (name_len,) = struct.unpack("<H", _read(fh, 2))
    name = _read(fh, name_len).decode("utf-8")
    (rank,) = struct.unpack("<B", _read(fh, 1))
    shape = struct.unpack(f"<{rank}Q", _read(fh, 8 * rank))
    count = int(np.prod(shape)) if shape else 1
    arr = np.frombuffer(_read(fh, count * 8), dtype="<f8").reshape(shape)
    return name, arr.copy()


def _read(fh, size):
    return read_exact(fh, size, "FRMD checkpoint")


def save_checkpoint(path, model, optimizer=None, extra=None):
    arrays = [(name, node.value) for name, node in model.parameters()]
    if optimizer is not None:
        extra = dict(extra or {})
        extra.setdefault("optimizer", optimizer.name)
        arrays.extend(sorted(optimizer.state_arrays().items()))
    config_block = _config_text(model.config, extra).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(FRMD_MAGIC)
        fh.write(struct.pack("<I", FRMD_VERSION))
        fh.write(struct.pack("<I", len(config_block)))
        fh.write(config_block)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays:
            _write_array(fh, name, arr)


def load_checkpoint(path):
    """Rebuild the model from a checkpoint.

    Returns (model, extra_entries, optimizer_arrays); evaluation of the
    reloaded model is bit-identical to the saved one.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != FRMD_MAGIC:
            raise ValueError("not an FRMD checkpoint: bad magic")
        (version,) = struct.unpack("<I", _read(fh, 4))
        if version != FRMD_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (config_len,) = struct.unpack("<I", _read(fh, 4))
        config, extra = _parse_config_text(_read(fh, config_len).decode("utf-8"))
        (count,) = struct.unpack("<I", _read(fh, 4))
        arrays = dict(_read_array(fh) for _ in range(count))
    model = build_model(config, seed=0)
    opt_arrays = {}
    for name, arr in arrays.items():
        if name.startswith("opt."):
            opt_arrays[name] = arr
    for name, node in model.parameters():
        if name not in arrays:
            raise ValueError(f"checkpoint is missing array {name!r}")
        if arrays[name].shape != node.value.shape:
            raise ValueError(f"checkpoint array {name!r} has shape "
                             f"{arrays[name].shape}, expected {node.value.shape}")
        node.value = arrays[name]
    return model, extra, opt_arrays
