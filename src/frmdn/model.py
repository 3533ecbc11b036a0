"""Model composition and training.

The per-step loss transforms the next observation through the coupling
stack, evaluates the mixture emitted by the recurrent head at the
transformed point, and subtracts the flow's log-determinant:

    loss_t = -log p_mix(f(y_{t+1})) - log |det df/dy|

A model with the flow disabled, or of depth 0, has the empty stack: its
chain maps the targets to themselves with a zero log-determinant, so the
objective is the plain recurrent mixture density NLL, through the same
code as a model with a flow.  Training is teacher-forced: ground-truth
observations feed every step.

The loss has two forward paths over the same arithmetic.  `_nll_graph`
builds the tape for a caller that needs gradients (`train_step` and the
gradient checks).  `_forward_nll` runs on plain arrays through each
layer's tape-free entry point and builds no graph nodes, as generation
does; `sequence_nll` is it in one chunk, with values equal to the graph's
bit for bit, and `evaluate` runs it over blocks and row chunks sized by
EVAL_BYTES.  Both paths read their inputs through one check,
`_loss_inputs`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from . import diffcore as dc
from . import flow as fl
from . import mixtures as mx
from . import recurrent as rc
from .datasets import (SequenceBatch, atomic_write, check_end, parse_entry,
                       read_exact, read_float64, read_key_values,
                       slice_windows)

FRMD_MAGIC = b"FRMD"
FRMD_VERSION = 1

# Byte budget of `evaluate`'s work arrays, about twice a core's L2 cache.
# The LSTM runs over blocks of windows whose hidden rows fit it, so a small
# model evaluates a split in one block, and the row-wise tail (head
# product, flow and mixture) over chunks of rows whose work arrays fit it,
# so a wide mixture's arrays stay near the cache (cache blocking, Lam,
# Rothberg & Wolf 1991).  Memory is then set by the budget, not the split.
# Where `rc.lstm_unroll` cuts a block across threads, its parts fill rows
# of the block's one hidden-row array, so the budget still holds; each part
# brings its own step scratch, about 1 MB at the acceptance block (H = 128).
EVAL_BYTES = 4 * 1024 * 1024


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
        for name in ("c_width", "s_clamp"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.flow_hidden < 1:
            raise ValueError(f"flow_hidden must be at least 1, got {self.flow_hidden}")
        if self.flow_pairs and self.dim < 2:
            raise ValueError("coupling layers need dim >= 2")

    @property
    def input_dim(self):
        return self.dim + self.action_dim

    @property
    def flow_pairs(self):
        """The model's number of coupling pairs: 0 with the flow off."""
        return self.flow_depth if self.flow_enabled else 0


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


def parameter_shapes(config):
    """(name, shape) of every parameter `build_model(config)` creates, in
    `FrmdnModel.parameters` order, from the shape helpers the init
    functions allocate from, without allocating any."""
    def named(prefix, shapes):
        return ((f"{prefix}.{name}", shape) for name, shape in shapes.items())

    yield from named("lstm", rc.lstm_shapes(config.input_dim, config.hidden))
    yield from named("head", rc.head_shapes(config.hidden, config.components,
                                            config.dim, config.head_structure))
    layers = fl.flow_shapes(config.dim, config.flow_pairs, config.flow_hidden)
    for i, shapes in enumerate(layers):
        yield from named(f"flow.{i}", shapes)


def build_model(config, seed=0):
    config.validate()
    rng = np.random.default_rng(seed)
    lstm = rc.init_lstm(config.input_dim, config.hidden, rng)
    head = rc.init_head(config.hidden, config.components, config.dim,
                        config.head_structure, rng)
    stack = fl.make_flow(config.dim, config.flow_pairs, rng,
                         hidden=config.flow_hidden, s_clamp=config.s_clamp)
    return FrmdnModel(lstm, head, stack, config)


# ---------------------------------------------------------------------------
# loss: the graph and the plain-array forward
# ---------------------------------------------------------------------------

def _loss_inputs(model, obs, actions):
    """Check a batch of equal-length windows, observations (q, T, d) and
    actions (q, T, d_action) with d_action 0 for a model without actions,
    against the model and return (x, targets): the LSTM input rows
    (T - 1, q, input_dim), observations joined with actions and t-major,
    and the next observations as t-major (n, d) rows, n = (T - 1) * q.
    Both loss paths read their inputs here, so they accept and reject the
    same batches."""
    cfg = model.config
    _, t, d = obs.shape
    if t < 2:
        raise ValueError(f"sequence_nll needs T >= 2, got T={t}")
    if d != cfg.dim:
        raise ValueError(f"observation dim {d} does not match model dim {cfg.dim}")
    if actions.shape[2] != cfg.action_dim:
        raise ValueError(f"the batch has {actions.shape[2]} action values per "
                         f"step, but the model takes {cfg.action_dim}")
    x = np.concatenate([obs[:, :-1, :], actions[:, :-1, :]], axis=2)
    targets = obs[:, 1:, :].transpose(1, 0, 2).reshape(-1, d)    # align t-major
    return x.transpose(1, 0, 2), targets


def _nll_graph(model, obs, actions):
    """Loss graph over a batch of equal-length windows, for a caller that
    needs gradients.

    The flow is one chain of coupling ops from the constant rows
    [targets | 0], the empty chain without a flow.  Returns (root,
    mixture_term, logdet_term) scalar nodes, root = mixture + logdet.
    """
    cfg = model.config
    x, targets = _loss_inputs(model, obs, actions)
    start = rc.initial_state(x.shape[1], cfg.hidden)
    h_all = rc.lstm_step(x, start, model.lstm)
    z, logdet_rows = fl.flow_forward(targets, model.flow)
    rows = mx.mixture_log_rows(z, rc.head_logits(h_all, model.head),
                               model.head, cfg.c_width)
    mixture_term = dc.neg(dc.reduce_mean(rows))
    logdet_term = dc.neg(dc.reduce_mean(logdet_rows))
    root = dc.add(mixture_term, logdet_term)
    return root, mixture_term, logdet_term


def _tail_row_floats(model):
    """float64 values per target row that the loss tail holds at its peak:
    the flow's widest layer, or the mixture with its head rows, the flow's
    output rows [z | log-det] (d + 1, the start rows for an empty stack)
    and the row's log-determinant."""
    cfg = model.config
    mixture = mx.row_floats(cfg.components, cfg.dim, cfg.head_structure)
    return max(mixture + cfg.dim + 2, fl.row_floats(model.flow))


def _tail_rows(model, h, targets):
    """The row-wise tail of the loss forward on plain arrays: the mixture
    log density rows of the flowed targets under the head's output for
    hidden rows h, and the flow's log-determinant rows.  Its arrays,
    the mixture's backward rule included, are dropped on return, so the
    next chunk runs without them."""
    z, logdet_rows = fl.flow_rows(targets, model.flow)
    head = model.head
    rows, _ = mx.mixture_rows(z, h @ head.w.value + head.b.value, head,
                              model.config.c_width)
    return rows, logdet_rows


def _forward_nll(model, obs, actions, chunk_rows=None):
    """The loss forward on plain arrays over a batch of equal-length
    windows, as mean terms over its rows; it builds no graph nodes.

    The LSTM runs over the whole batch through `rc.lstm_unroll`.  The tail
    (the head product `h @ head.w + head.b`, `fl.flow_rows` and
    `mx.mixture_rows`) runs over chunks of `chunk_rows` rows, all rows in
    one when None, and fills one array of per-row terms that the means
    read, so chunking moves a mean only where a chunk's products round
    differently.  With one chunk the arithmetic is the ops' of
    `_nll_graph`, and every value equals the graph's bit for bit.
    """
    cfg = model.config
    x, targets = _loss_inputs(model, obs, actions)
    h = rc.lstm_unroll(x, rc.initial_state(x.shape[1], cfg.hidden), model.lstm)
    n = h.shape[0]
    rows, logdet_rows = np.empty(n), np.empty(n)
    step = chunk_rows or n
    for lo in range(0, n, step):
        part = slice(lo, lo + step)
        rows[part], logdet_rows[part] = _tail_rows(model, h[part], targets[part])
    mixture = -rows.mean()
    logdet = -logdet_rows.mean()
    total = float(mixture + logdet)
    if not np.isfinite(total):
        raise NumericsError("sequence_nll produced a non-finite loss")
    return LossRecord(total, float(mixture), float(logdet))


def sequence_nll(model, batch):
    """Mean NLL per step over a batch, with its two terms.

    The mixture term alone is the quantity comparable across models that
    share a target space; the total additionally charges the flow's volume
    change.  It is `_forward_nll` in one chunk: plain arrays, no graph
    nodes, and every value equal to `_nll_graph`'s bit for bit.
    """
    return _forward_nll(model, batch.observations, batch.actions)


def evaluate(model, batch, window=None):
    """NLL on non-overlapping windows of a batch (whole sequences when
    `window` is None).

    The windows go through `_forward_nll` in blocks sized by EVAL_BYTES:
    as few blocks as keep each block's hidden rows within the budget, with
    window counts that differ by at most one, and each block's tail in
    chunks of rows whose work arrays fit the budget (`_tail_row_floats`).
    Each block's arrays are dropped before the next block runs, so memory
    is bounded by the budget rather than the split.  Every window has
    t - 1 rows, so weighting each block's means by its window count gives
    the mean over all rows, up to rounding."""
    if window is None:
        obs, acts = batch.observations, batch.actions
    else:
        obs, acts = slice_windows(batch, window)
    n, t = obs.shape[:2]
    if n == 0:
        raise ValueError("evaluate needs at least one sequence")
    window_bytes = 8 * max(1, t - 1) * model.config.hidden
    blocks = -(-n // max(1, EVAL_BYTES // window_bytes))
    chunk_rows = max(1, EVAL_BYTES // (8 * _tail_row_floats(model)))
    total = mixture = logdet = 0.0
    for b in range(blocks):
        lo, hi = b * n // blocks, (b + 1) * n // blocks
        rec = _forward_nll(model, obs[lo:hi], acts[lo:hi], chunk_rows)
        q = hi - lo
        total += rec.total * q
        mixture += rec.mixture * q
        logdet += rec.logdet * q
    return LossRecord(total / n, mixture / n, logdet / n)


# ---------------------------------------------------------------------------
# optimizers and the training step
# ---------------------------------------------------------------------------

class _OptimizerState:
    """Checkpoint layout of an optimizer's state: each attribute named in
    `moments` is a dict of per-parameter arrays, stored as
    `opt.<moment>.<parameter>`; each attribute named in `counters` is an
    int, stored as the scalar `opt.<counter>`.  `update` changes the
    moment arrays in place, so both directions copy them."""

    moments = ()
    counters = ()

    def state_arrays(self):
        out = {f"opt.{c}": np.asarray(float(getattr(self, c)))
               for c in self.counters}
        for m in self.moments:
            out.update({f"opt.{m}.{n}": a.copy()
                        for n, a in getattr(self, m).items()})
        return out

    def load_state_arrays(self, arrays):
        for c in self.counters:
            setattr(self, c, int(arrays.get(f"opt.{c}", np.zeros(()))))
        for m in self.moments:
            prefix = f"opt.{m}."
            setattr(self, m, {n[len(prefix):]: np.array(a, dtype=np.float64)
                              for n, a in arrays.items()
                              if n.startswith(prefix)})

    @classmethod
    def state_shapes(cls, param_shapes):
        """{name: shape} of every array this optimizer stores once it has
        taken a step: a scalar per counter, and per moment an array of
        each parameter's shape."""
        shapes = {f"opt.{c}": () for c in cls.counters}
        for m in cls.moments:
            shapes.update((f"opt.{m}.{n}", s) for n, s in param_shapes.items())
        return shapes


def _moment(moments, name, like):
    """The moment array of parameter `name`, zeros on first use."""
    arr = moments.get(name)
    if arr is None:
        arr = moments[name] = np.zeros_like(like)
    return arr


class RmsProp(_OptimizerState):
    name = "rmsprop"
    moments = ("sq",)

    def __init__(self, lr=1e-4, alpha=0.99, eps=1e-8):
        self.lr = lr
        self.alpha = alpha
        self.eps = eps
        self.sq = {}

    def update(self, named_params, grads):
        for name, node in named_params:
            g = grads[node]
            sq = _moment(self.sq, name, node.value)
            sq *= self.alpha
            tmp = (1.0 - self.alpha) * g
            tmp *= g
            sq += tmp
            den = np.sqrt(sq, out=tmp)
            den += self.eps
            step = self.lr * g
            step /= den
            # a fresh array: callers may hold the old value
            node.value = node.value - step


class Adam(_OptimizerState):
    name = "adam"
    moments = ("m", "v")
    counters = ("step",)

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
            m = _moment(self.m, name, node.value)
            v = _moment(self.v, name, node.value)
            m *= b1
            tmp = (1.0 - b1) * g
            m += tmp
            v *= b2
            np.multiply(1.0 - b2, g, out=tmp)
            tmp *= g
            v += tmp
            den = np.divide(v, corr2, out=tmp)
            np.sqrt(den, out=den)
            den += self.eps
            step = m / corr1
            step *= self.lr
            step /= den
            node.value = node.value - step


OPTIMIZERS = {cls.name: cls for cls in (RmsProp, Adam)}


def optimizer_class(name):
    """The optimizer class named `name`."""
    if name not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {name!r}")
    return OPTIMIZERS[name]


def make_optimizer(name, lr):
    return optimizer_class(name)(lr=lr)


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
        raise _gradient_error(named, grads)
    norm = math.sqrt(sq_sum)
    if norm > clip_norm:
        factor = clip_norm / norm
        grads = {node: g * factor for node, g in grads.items()}
    optimizer.update(named, grads)
    return record


def _gradient_error(named, grads):
    """NumericsError naming the first parameter whose gradient is not
    finite (or whose squared norm overflows)."""
    for name, node in named:
        g = grads[node]
        if not np.isfinite(float((g * g).sum())):
            return NumericsError(f"non-finite gradient in {name!r}")
    return NumericsError("gradient norm overflows")


def gradient_check_model(model, batch, step=1e-5):
    """Max relative error between the loss gradient and central finite
    differences, swept over every parameter coordinate."""
    return dc.grad_check(
        lambda: _nll_graph(model, batch.observations, batch.actions)[0],
        [node for _, node in model.parameters()], step)


@dataclass
class TrainSettings:
    epochs: int = 30
    lr: float = 1e-4
    optimizer: str = "rmsprop"
    batch_size: int = 16
    window: int = 32
    seed: int = 0
    clip_norm: float = 10.0

    def validate(self):
        """Reject settings under which training would silently do nothing
        or fail deep inside the loop.  A zero learning rate is allowed: it
        evaluates a fixed model on the training schedule."""
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError(f"lr must be finite and non-negative, got {self.lr}")
        if not self.clip_norm > 0.0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")


def train_model(model, train_batch, settings, test_batch=None,
                optimizer=None, start_epoch=0):
    """Epoch loop over shuffled windows.

    Emits one metrics row per (epoch, split); epoch `start_epoch` is the
    pre-training evaluation.  The shuffle for epoch e is seeded by
    (settings.seed, e), so a resumed run replays the identical schedule.
    """
    settings.validate()
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
            window = SequenceBatch(obs[pick], acts[pick])
            train_step(model, window, optimizer, settings.clip_norm)
        log_eval(epoch)
    return rows, optimizer


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

class Generator:
    """What every `generate_step` of one rollout reads, built once per
    rollout instead of once per step: the model; the LSTM's halved
    work-order weights (`rc.halved_weights`, the copy training and
    evaluation step from); and the flow's inverse arrays
    (`fl.inverse_nets`, each layer's s and t first layers joined into one
    product).  The LSTM weights and the flow's first layers are copied
    when it is built, so each rollout builds its own and sees every write
    made before it; the head and the flow's second layers are read as
    they are."""

    def __init__(self, model):
        self.model = model
        self.weights = rc.halved_weights(model.lstm)
        self.inverse = fl.inverse_nets(model.flow)


def generate_step(gen, x_t, state, rng):
    """Advance the backbone of `gen`'s model on the full (input_dim,) array
    x_t (observation plus action when present), sample the emitted mixture,
    and map the draw back through the inverse flow.

    gen is the rollout's `Generator`, and state the (h, c) pair of
    (1, hidden) arrays that `rc.initial_state` starts and each step
    returns.  Generation never runs a backward, so it works on plain
    arrays and builds no graph nodes.  Returns (y, state)."""
    model = gen.model
    state = rc.cell_step(x_t.reshape(1, -1), state, model.lstm, gen.weights)
    head = model.head
    u = None if head.u is None else head.u.value
    y = mx.mixture_sample(*rc.head_project(state[0][0], head), head.structure,
                          rng, u=u, c_width=model.config.c_width)
    return fl.flow_inverse(y[None], model.flow, gen.inverse)[0], state


def rollout(model, y_0, action_fn, steps, rng):
    """Free-running generation: each sample feeds the next step, with every
    draw taken from the generator `rng`.

    Returns one sequence of steps+1 observations (y_0 first) and steps+1
    actions, of width 0 when the model takes none; otherwise action_fn(t)
    supplies the action applied at step t, and the final row is zero padding.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    cfg = model.config
    y = np.asarray(y_0, dtype=np.float64)
    if y.shape != (cfg.dim,):
        raise ValueError(f"y_0 must have shape ({cfg.dim},), got {y.shape}")
    gen = Generator(model)
    state = rc.initial_state(1, cfg.hidden)
    obs = np.empty((steps + 1, cfg.dim))
    obs[0] = y
    acts = np.zeros((steps + 1, cfg.action_dim))
    for t in range(steps):
        if cfg.action_dim:
            acts[t] = np.ravel(action_fn(t))
        y, state = generate_step(gen, np.concatenate([y, acts[t]]), state, rng)
        obs[t + 1] = y
    return SequenceBatch(obs[None], acts[None])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _config_text(config, extra=None):
    """The FRMD config block: every ModelConfig field and every `extra`
    entry as sorted `key=value` lines, bools as 0/1."""
    entries = {f.name: getattr(config, f.name) for f in fields(ModelConfig)}
    entries.update(extra or {})
    return "".join(f"{k}={int(v) if isinstance(v, bool) else v}\n"
                   for k, v in sorted(entries.items()))


def _parse_config_text(text):
    """(ModelConfig, the remaining entries as strings) from a config block;
    each field is read back by its annotated type."""
    entries = read_key_values(text, "FRMD checkpoint config")
    types = get_type_hints(ModelConfig)
    values = {}
    for f in fields(ModelConfig):
        if f.name not in entries:
            raise ValueError(f"FRMD checkpoint config is missing {f.name!r}")
        values[f.name] = parse_entry("FRMD checkpoint config", f.name,
                                     entries.pop(f.name), types[f.name])
    return ModelConfig(**values), entries


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
    return name, read_float64(fh, shape, "FRMD checkpoint", f"array {name!r}")


def _read(fh, size):
    return read_exact(fh, size, "FRMD checkpoint")


def save_checkpoint(path, model, optimizer=None, extra=None):
    arrays = [(name, node.value) for name, node in model.parameters()]
    if optimizer is not None:
        extra = dict(extra or {})
        extra.setdefault("optimizer", optimizer.name)
        arrays.extend(sorted(optimizer.state_arrays().items()))
    config_block = _config_text(model.config, extra).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(FRMD_MAGIC)
        fh.write(struct.pack("<I", FRMD_VERSION))
        fh.write(struct.pack("<I", len(config_block)))
        fh.write(config_block)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays:
            _write_array(fh, name, arr)


def load_checkpoint(path):
    """Rebuild the model from a checkpoint.

    Every stored array is checked against the shape the config implies
    before anything sized by the config is allocated, so a corrupt size in
    the config block fails as a ValueError instead of an allocation.
    `opt.*` arrays must be ones the optimizer named by the `optimizer`
    entry stores, and must be all of its state: its counters alone (a
    fresh optimizer) or every counter and moment array.  Each counter
    must hold a non-negative integer.

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
        arrays = {}
        for _ in range(count):
            name, arr = _read_array(fh)
            if name in arrays:
                raise ValueError(f"checkpoint has array {name!r} twice")
            arrays[name] = arr
        check_end(fh, "FRMD checkpoint")
    config.validate()
    stored_opt = (optimizer_class(extra["optimizer"])
                  if "optimizer" in extra else None)
    # the table stops at the first name the file lacks, so its size is
    # bounded by the file's, not by the config's
    shapes = {}
    for name, shape in parameter_shapes(config):
        if name not in arrays:
            raise ValueError(f"checkpoint is missing array {name!r}")
        shapes[name] = shape
    opt_shapes = stored_opt.state_shapes(shapes) if stored_opt else {}
    opt_arrays = {n: a for n, a in arrays.items() if n in opt_shapes}
    for name, arr in arrays.items():
        want = shapes.get(name, opt_shapes.get(name))
        if want is None:
            raise ValueError(f"checkpoint has unexpected array {name!r}")
        if arr.shape != want:
            raise ValueError(f"checkpoint array {name!r} has shape "
                             f"{arr.shape}, expected {want}")
    # a fresh optimizer stores its counters alone, one that has taken a
    # step its whole state
    fresh = {f"opt.{c}" for c in stored_opt.counters} if stored_opt else set()
    for name in fresh if opt_arrays.keys() <= fresh else opt_shapes:
        if name not in opt_arrays:
            raise ValueError(f"checkpoint is missing array {name!r}")
    for name in fresh:
        count = float(opt_arrays[name])
        if not (count >= 0.0 and count.is_integer()):
            raise ValueError(f"checkpoint array {name!r} must be a "
                             f"non-negative integer, not {count!r}")
    model = build_model(config, seed=0)
    for name, node in model.parameters():
        node.value = arrays[name]
    return model, extra, opt_arrays
