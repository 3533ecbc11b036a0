"""The three benchmark workloads: set-up, one timed cycle, output checks.

Every workload is a closed loop in one process: each operation is issued
after the previous one returns.  All calls into `frmdn` go through module
attributes (`md.train_step`, `control.evaluate_population`, ...), so the
tracer's wrappers see them.

- train-acceptance: the acceptance config (AR data d=8, K=5, H=128, batch
  16, window 32, RMSProp lr 1e-3); a diagonal model with the flow off and
  one with flow depth 1, trained in lock step.  The LSTM unroll and the
  backward pass dominate.
- train-wide-head: the same loop at H=16, d=16, K=16 and flow depth 2 with
  a logistic and a tied head.  The mixture density and the flow dominate,
  and the tied and logistic code paths run.
- dream: CMA-ES generations (popsize 16, sigma 0.5, 2 episodes per
  candidate, common random numbers) over the `frmdn dream` world model.
  Batch-1 generation with no backward pass.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import reference
from tracing import Patcher
from frmdn import cmaes, control
from frmdn import datasets as ds
from frmdn import flow as fl
from frmdn import model as md

clock = time.perf_counter_ns

# A reordering of float64 sums moves a mean loss over a few thousand rows by
# about n * 2^-52 relative (~1e-12); 1e-9 leaves three orders of margin and
# still catches any change to the forward math.
LOSS_RTOL = 1e-9
# Central differences with step 1e-5 along a unit direction carry a
# truncation plus round-off error of at most ~1e-8 here; a kernel that only
# reorders sums moves the analytic gradient by ~1e-13, while a wrong
# gradient rule is off by orders of magnitude more than 1e-6.
GRAD_STEP = 1e-5
GRAD_RTOL = 1e-6
# The coupling inverse undoes exp(s_hat) with |s_hat| <= s_clamp; observed
# round-trip errors sit near 1e-15 relative.
FLOW_RTOL = 1e-10


@dataclass
class Tally:
    """Operations and checks attempted, and those that failed."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def fail(self, what):
        self.failed += 1
        self.failures.append(what)

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.fail(what)


# reference passes in the running median that a forward call's cost uses
REF_WINDOW = 9


@dataclass
class Meter:
    """Times of single operations, forward calls and whole cycles, in ns,
    and their costs in reference passes.

    The reference pass (`reference_pass` of a workload) is the benchmark's
    own numpy forward of the workload's models on a fixed input.  It shares
    no code with `frmdn`, so its time tracks the speed of the host and not
    that of the program.  One runs after every timed operation and forward
    call, and is left out of every time.

    The cost of a call is its time over a reference time.  An operation
    (20 to 150 ms) takes the mean of the passes just before and after it,
    which follows short changes of the host's speed.  A forward call (up
    to 2 s, over which the host may change) takes the median of the
    `REF_WINDOW` passes around it.  The cost of a span (a cycle, a
    generation) is the cost of its calls scaled up by the rest of its time.
    """

    reference: object = None
    calls: list = field(default_factory=list)      # every costed call, ns
    refs: list = field(default_factory=list)       # reference pass after each
    ops: list = field(default_factory=list)        # index into calls
    op_traced: list = field(default_factory=list)
    forward: list = field(default_factory=list)    # (items, ns, first, end)
    cycles: list = field(default_factory=list)     # (ns, first, end)
    ref_ns: int = 0        # total time in reference passes
    traced: bool = False

    def _call(self, ns):
        self.calls.append(ns)
        start = clock()
        self.reference()
        ref = clock() - start
        self.refs.append(ref)
        self.ref_ns += ref
        return len(self.calls) - 1

    def op(self, ns):
        self.ops.append(self._call(ns))
        self.op_traced.append(self.traced)

    def forward_call(self, items, ns):
        i = self._call(ns)
        self.forward.append((items, ns, i, i + 1))

    def mark(self):
        return clock(), self.ref_ns, len(self.calls)

    def _span(self, mark):
        start, ref_ns, first = mark
        return clock() - start - (self.ref_ns - ref_ns), first, len(self.calls)

    def forward_span(self, items, mark):
        self.forward.append((items, *self._span(mark)))

    def end_cycle(self, mark):
        self.cycles.append(self._span(mark))

    def costs(self):
        """The cost of every call, and a function giving a span's cost."""
        half = REF_WINDOW // 2
        ops = set(self.ops)

        def ref(i):
            if i in ops:
                return (self.refs[max(i - 1, 0)] + self.refs[i]) / 2
            return statistics.median(self.refs[max(0, i - half):i + half + 1])

        costs = [ns / ref(i) for i, ns in enumerate(self.calls)]

        def span(ns, first, end):
            return sum(costs[first:end]) * ns / sum(self.calls[first:end])

        return costs, span


# ---------------------------------------------------------------------------
# output checks shared by every model
# ---------------------------------------------------------------------------

class _GradientCapture:
    """Optimizer stand-in: records the gradients and leaves the model as is."""

    name = "capture"

    def update(self, named_params, grads):
        self.grads = {name: grads[node] for name, node in named_params}


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_model(label, net, batch, window, rng, tally, out_dir):
    """Final-loss, gradient, checkpoint, flow and sampling checks."""
    obs, acts = md.slice_windows(batch, window)

    rec = md.evaluate(net, batch, window)
    ref = reference.sequence_nll(net, obs, acts)
    tally.check(f"{label}: loss vs reference",
                all(_close(a, b, LOSS_RTOL)
                    for a, b in zip((rec.total, rec.mixture, rec.logdet), ref)))

    small = ds.SequenceBatch(obs[:2], None if acts is None else acts[:2])
    capture = _GradientCapture()
    md.train_step(net, small, capture, clip_norm=math.inf)
    for name, node in net.parameters():
        v = rng.standard_normal(node.value.shape)
        v /= np.linalg.norm(v)
        analytic = float((capture.grads[name] * v).sum())
        base = node.value
        node.value = base + GRAD_STEP * v
        hi = md.sequence_nll(net, small).total
        node.value = base - GRAD_STEP * v
        lo = md.sequence_nll(net, small).total
        node.value = base
        tally.check(f"{label}: gradient of {name}",
                    _close(analytic, (hi - lo) / (2.0 * GRAD_STEP), GRAD_RTOL))

    path = os.path.join(out_dir, f"check-{os.getpid()}.frmd")
    try:
        md.save_checkpoint(path, net)
        loaded, _, _ = md.load_checkpoint(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    again = md.evaluate(loaded, batch, window)
    tally.check(f"{label}: checkpoint round trip",
                (again.total, again.mixture, again.logdet)
                == (rec.total, rec.mixture, rec.logdet))

    if net.flow.depth > 0:
        y = obs.reshape(-1, obs.shape[2])
        z, _ = fl.flow_forward(y, net.flow)
        back = fl.flow_inverse(z.value, net.flow)
        err = float(np.abs(back - y).max())
        tally.check(f"{label}: flow round trip",
                    err <= FLOW_RTOL * max(1.0, float(np.abs(y).max())))

    action = np.zeros(net.config.action_dim)
    sample = md.rollout(net, obs[0, 0], lambda t: action, 16,
                        rng=np.random.default_rng(int(rng.integers(2**31))))
    tally.check(f"{label}: samples finite",
                bool(np.all(np.isfinite(sample.observations))))


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

@dataclass
class TrainSpec:
    dim: int
    models: tuple                     # ModelConfig keyword sets
    q_train: int = 64
    q_test: int = 16
    t: int = 256
    rho: float = 0.9
    corr: float = 0.8
    batch_size: int = 16
    window: int = 32
    lr: float = 1e-3
    clip_norm: float = 10.0


TRAIN_SPECS = {
    "train-acceptance": TrainSpec(dim=8, models=(
        dict(components=5, hidden=128, flow_depth=1, flow_enabled=False),
        dict(components=5, hidden=128, flow_depth=1, flow_enabled=True),
    )),
    "train-wide-head": TrainSpec(dim=16, models=(
        dict(components=16, hidden=16, flow_depth=2, head_structure="logistic"),
        dict(components=16, hidden=16, flow_depth=2, head_structure="tied"),
    )),
}

TINY_TRAIN = dict(q_train=8, q_test=4, t=64)


class TrainWorkload:
    """Two models trained for equal epochs, as `train_model` runs each:
    shuffle seeded by [seed, epoch], then `evaluate` on both splits."""

    required_spans = (
        "model.train_step", "model.nll_graph", "model.evaluate",
        "model.optimizer_update", "recurrent.lstm_step",
        "recurrent.head_logits", "flow.flow_forward", "diffcore.backward",
        "datasets.gen_correlated_ar", "datasets.slice_windows",
        "model.generate_step", "recurrent.head_project",
        "mixtures.mixture_sample", "flow.flow_inverse",
    )

    def __init__(self, name, seed, tiny):
        spec = TRAIN_SPECS[name]
        self.spec = replace(spec, **TINY_TRAIN) if tiny else spec
        self.seed = seed
        self.configs = [md.ModelConfig(dim=self.spec.dim, **kw)
                        for kw in self.spec.models]

    def setup(self):
        s = self.spec
        full = ds.gen_correlated_ar(s.q_train + s.q_test, s.t, s.dim, s.rho,
                                    s.corr, seed=self.seed)
        self.train = ds.SequenceBatch(full.observations[:s.q_train])
        self.test = ds.SequenceBatch(full.observations[s.q_train:])
        self.obs, _ = md.slice_windows(self.train, s.window)
        # warm-up on throwaway models, so the timed models start untouched
        first = ds.SequenceBatch(self.obs[:s.batch_size])
        for cfg in self.configs:
            scratch = md.build_model(cfg, seed=self.seed + 1)
            opt = md.make_optimizer("rmsprop", s.lr)
            for _ in range(2):
                md.train_step(scratch, first, opt, s.clip_norm)
            md.evaluate(scratch, first, s.window)
        self.models = [md.build_model(cfg, seed=self.seed) for cfg in self.configs]
        self.ref_models = [md.build_model(cfg, seed=self.seed + 2)
                           for cfg in self.configs]
        self.ref_obs = first.observations
        self.reference_pass()
        self.opts = [md.make_optimizer("rmsprop", s.lr) for _ in self.configs]
        self.epoch = 0

    def reference_pass(self):
        """The numpy reference forward of every model config on one batch."""
        for net in self.ref_models:
            reference.sequence_nll(net, self.ref_obs)

    def cycle(self, meter, tally, deadline):
        """One epoch of both models: every batch, then eval of both splits.

        Stops between batches once the clock passes `deadline` (None: never)
        and returns whether the epoch completed.
        """
        s = self.spec
        self.epoch += 1
        n = self.obs.shape[0]
        order = np.random.default_rng([self.seed, self.epoch]).permutation(n)
        for lo in range(0, n, s.batch_size):
            if deadline is not None and clock() > deadline:
                return False
            batch = ds.SequenceBatch(self.obs[order[lo:lo + s.batch_size]])
            start = clock()
            for net, opt in zip(self.models, self.opts):
                tally.attempted += 1
                try:
                    md.train_step(net, batch, opt, s.clip_norm)
                except md.NumericsError as exc:
                    tally.fail(f"train step: {exc}")
            meter.op(clock() - start)
        for net in self.models:
            for split in (self.train, self.test):
                tally.attempted += 1
                start = clock()
                try:
                    md.evaluate(net, split, s.window)
                except md.NumericsError as exc:
                    tally.fail(f"evaluate: {exc}")
                meter.forward_call(split.q * (split.t // s.window),
                                   clock() - start)
        return True

    def check(self, tally, rng, out_dir):
        for i, net in enumerate(self.models):
            cfg = net.config
            flow = f"flow depth {cfg.flow_depth}" if cfg.flow_enabled else "flow off"
            check_model(f"model {i} ({cfg.head_structure}, {flow})", net,
                        self.test, self.spec.window, rng, tally, out_dir)


# ---------------------------------------------------------------------------
# dream workload
# ---------------------------------------------------------------------------

@dataclass
class DreamSpec:
    hidden: int = 16
    horizon: int = 64
    train_epochs: int = 12
    popsize: int = 16
    sigma: float = 0.5
    episodes: int = 2


TINY_DREAM = dict(horizon=8, train_epochs=1, popsize=4)


class DreamWorkload:
    """CMA-ES generations, each cmaes_ask -> evaluate_population ->
    cmaes_tell, with the episode seeds fixed as `train_controller` does."""

    required_spans = (
        "model.train_step", "model.nll_graph", "model.evaluate",
        "model.optimizer_update", "recurrent.lstm_step",
        "recurrent.head_logits", "flow.flow_forward", "diffcore.backward",
        "datasets.gen_control_task", "datasets.slice_windows",
        "model.generate_step", "recurrent.head_project",
        "mixtures.mixture_sample", "flow.flow_inverse",
        "control.controller_act", "control.dream_rollout",
        "control.evaluate_population", "cmaes.cmaes_ask", "cmaes.cmaes_tell",
    )

    def __init__(self, name, seed, tiny):
        self.spec = DreamSpec(**TINY_DREAM) if tiny else DreamSpec()
        self.seed = seed

    def setup(self):
        s = self.spec
        self.task = control.build_dream_task(seed=self.seed, hidden=s.hidden,
                                             horizon=s.horizon,
                                             train_epochs=s.train_epochs)
        self.state = cmaes.cmaes_init(np.zeros(self.task.n_params), s.sigma,
                                      lam=s.popsize)
        self.ask_rng = np.random.default_rng([self.seed, 1])
        self.episode_seeds = [int(v) for v in np.random.default_rng(
            [self.seed, 2]).integers(0, 2**31, 64)]
        # warm-up: one episode of the initial controller
        ctrl = control.LinearController.from_vector(
            self.state.mean, self.task.obs_dim, self.task.hidden,
            self.task.action_dim)
        control.dream_rollout(self.task.env, ctrl, np.random.default_rng(0))
        self.ref_data = ds.gen_control_task(1, s.horizon, self.task.obs_dim,
                                            self.task.action_dim,
                                            seed=self.seed + 2)
        self.reference_pass()

    def reference_pass(self):
        """The numpy reference forward of the world model on one episode."""
        reference.sequence_nll(self.task.env.model, self.ref_data.observations,
                               self.ref_data.actions)

    def cycle(self, meter, tally, deadline):
        """One generation; the episode timer records each rollout.  A
        generation is never cut short, so `deadline` is not consulted."""
        s = self.spec
        mark = meter.mark()
        candidates = cmaes.cmaes_ask(self.state, self.ask_rng)
        timer = Patcher()
        timer.replace(control, "dream_rollout", self._timed_episode(meter, tally))
        try:
            fitness = control.evaluate_population(
                self.task.env, candidates, s.episodes, self.episode_seeds)
        except md.NumericsError as exc:
            tally.fail(f"dream episode: {exc}")
            return True
        finally:
            timer.restore()
        finite = bool(np.all(np.isfinite(fitness)))
        tally.check(f"generation {self.state.generation}: fitness finite", finite)
        if finite:
            cmaes.cmaes_tell(self.state, candidates, fitness)
        meter.forward_span(s.popsize * s.episodes * s.horizon, mark)
        return True

    def _timed_episode(self, meter, tally):
        inner = control.dream_rollout

        def timed(env, ctrl, rng):
            tally.attempted += 1
            start = clock()
            try:
                return inner(env, ctrl, rng)
            finally:
                meter.op(clock() - start)

        return timed

    def check(self, tally, rng, out_dir):
        data = ds.gen_control_task(32, 256, self.task.obs_dim,
                                   self.task.action_dim, seed=self.seed)
        check_model("world model", self.task.env.model, data, 32, rng, tally,
                    out_dir)


WORKLOADS = {
    "train-acceptance": TrainWorkload,
    "train-wide-head": TrainWorkload,
    "dream": DreamWorkload,
}
