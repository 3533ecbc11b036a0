"""Spans and op counters recorded from outside the `frmdn` package.

The tracer replaces public functions with timing wrappers at the name
their caller looks up, so a function a module binds at import (such as
`control.generate_step`) is patched in that module as well as in the one
that defines it.  Every patched name is restored on `uninstall`.

Spans live in memory as [name, start_ns, end_ns, parent, op_id] lists and
are written out once, at the end of a run.  A span's self time is its
duration minus the time covered by its direct child spans; calls are
synchronous, so children never overlap.

diffcore work is counted, not timed: every DiffNode the tape creates is
one call into an op function (or one leaf), tallied by its op tag against
the enclosing unit of work (a train step or a dreamed step).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from frmdn import cmaes, control
from frmdn import datasets as ds
from frmdn import diffcore as dc
from frmdn import flow as fl
from frmdn import mixtures as mx
from frmdn import model as md
from frmdn import recurrent as rc

# span name -> every (owner, attribute) a caller looks the function up by
SPAN_TARGETS = {
    "model.train_step": [(md, "train_step")],
    "model.nll_graph": [(md, "_nll_graph")],
    "model.evaluate": [(md, "evaluate")],
    "model.optimizer_update": [(md.RmsProp, "update"), (md.Adam, "update")],
    "model.generate_step": [(md, "generate_step"), (control, "generate_step")],
    "recurrent.lstm_step": [(rc, "lstm_step")],
    "recurrent.head_logits": [(rc, "head_logits")],
    "recurrent.head_project": [(rc, "head_project")],
    "flow.flow_forward": [(fl, "flow_forward")],
    "flow.flow_inverse": [(fl, "flow_inverse")],
    "mixtures.mixture_sample": [(mx, "mixture_sample")],
    "diffcore.backward": [(dc, "backward")],
    "control.controller_act": [(control, "controller_act")],
    "control.dream_rollout": [(control, "dream_rollout")],
    "control.evaluate_population": [(control, "evaluate_population")],
    "cmaes.cmaes_ask": [(cmaes, "cmaes_ask")],
    "cmaes.cmaes_tell": [(cmaes, "cmaes_tell")],
    "datasets.gen_correlated_ar": [(ds, "gen_correlated_ar")],
    "datasets.gen_control_task": [(control, "gen_control_task")],
    "datasets.slice_windows": [(md, "slice_windows")],
}

# spans that delimit one unit of work; op counts are attributed to them
UNIT_SPANS = {"model.train_step": "train", "model.generate_step": "dream"}

# op tags of the seed tape, reported by name; other tags still count in
# the totals and in the printed table
OP_TAGS = ("leaf", "add", "sub", "mul", "matmul", "neg", "square", "scale",
           "exp", "log", "tanh", "sigmoid", "softplus", "clamp", "sum",
           "mean", "log_sum_exp", "concat", "slice", "logabsdet")


class Patcher:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Tracer:
    """Spans and op counts, recorded while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._unit = None
        self.op_id = -1
        self.op_counts = defaultdict(lambda: defaultdict(int))
        self._patcher = Patcher()

    # -- recording -------------------------------------------------------

    def _span_wrapper(self, name, fn):
        unit = UNIT_SPANS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, clock(), 0, parent, self.op_id]
            stack.append(len(spans))
            spans.append(record)
            outer_unit = self._unit
            if unit is not None:
                self._unit = unit
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                self._unit = outer_unit

        return wrapper

    def _counting_init(self, init):
        counts = self.op_counts

        def wrapper(node, *args, **kwargs):
            init(node, *args, **kwargs)
            counts[self._unit][node.op] += 1

        return wrapper

    def install(self):
        for name, targets in SPAN_TARGETS.items():
            for owner, attr in targets:
                fn = owner.__dict__[attr]
                self._patcher.replace(owner, attr, self._span_wrapper(name, fn))
        self._patcher.replace(dc.DiffNode, "__init__",
                              self._counting_init(dc.DiffNode.__init__))

    def uninstall(self):
        self._patcher.restore()

    # -- output ----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\top_id\n")
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{op_id}\n")

    def summary(self):
        return SpanSummary(self)


class SpanSummary:
    """Per-name totals and per-unit breakdowns computed from the spans."""

    def __init__(self, tracer):
        spans = tracer.spans
        n = len(spans)
        self.names = [s[0] for s in spans]
        self.parents = [s[3] for s in spans]
        self.op_ids = [s[4] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        child = [0] * n
        unit_of = [-1] * n
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += self.dur[i]
            if self.names[i] in UNIT_SPANS:
                unit_of[i] = i
            elif parent >= 0:
                unit_of[i] = unit_of[parent]
        self.self_ns = [d - c for d, c in zip(self.dur, child)]
        self.unit_of = unit_of
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.total_self_ns = defaultdict(int)
        for i, name in enumerate(self.names):
            self.calls[name] += 1
            self.total_ns[name] += self.dur[i]
            self.total_self_ns[name] += self.self_ns[i]
        self.op_counts = tracer.op_counts

    def mean_ms(self, name):
        return self.total_ns[name] / self.calls[name] / 1e6

    def unit_mean(self, unit_name, value_of):
        """Mean over unit spans of value_of(unit duration ns, parts), where
        parts maps each descendant name to [total ns, self ns].

        Units inside the timed loop are used when there are any; otherwise
        (train steps of the dream world model, dreamed steps of the sampling
        check) every unit span counts.
        """
        units = {i: defaultdict(lambda: [0, 0])
                 for i, name in enumerate(self.names) if name == unit_name}
        for i, u in enumerate(self.unit_of):
            if u != i and u in units:
                cell = units[u][self.names[i]]
                cell[0] += self.dur[i]
                cell[1] += self.self_ns[i]
        in_loop = [i for i in units if self.op_ids[i] >= 0]
        picked = in_loop or list(units)
        return statistics.fmean(value_of(self.dur[i], units[i]) for i in picked)

    def child_calls(self, parent_name, child_name):
        """Mean number of child_name calls made directly by parent_name."""
        children = sum(1 for i, name in enumerate(self.names)
                       if name == child_name and self.parents[i] >= 0
                       and self.names[self.parents[i]] == parent_name)
        parents = self.calls[parent_name]
        return children / parents if parents else 0

    def op_calls_per_unit(self, unit, tag=None):
        unit_span = next(s for s, u in UNIT_SPANS.items() if u == unit)
        counts = self.op_counts[unit]
        total = sum(counts.values()) if tag is None else counts.get(tag, 0)
        return total / self.calls[unit_span]

    def table(self):
        rows = sorted(self.calls, key=lambda k: -self.total_self_ns[k])
        lines = [f"{'span':32s} {'calls':>8s} {'total_ms':>12s} {'self_ms':>12s}"]
        for name in rows:
            lines.append(f"{name:32s} {self.calls[name]:8d} "
                         f"{self.total_ns[name] / 1e6:12.3f} "
                         f"{self.total_self_ns[name] / 1e6:12.3f}")
        for unit, counts in sorted(self.op_counts.items(), key=str):
            tags = " ".join(f"{t}={c}" for t, c in sorted(counts.items()))
            lines.append(f"op counts [{unit or 'outside units'}]: {tags}")
        return "\n".join(lines)
