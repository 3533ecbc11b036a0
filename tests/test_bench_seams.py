"""The benchmark in `perfbench/` patches `frmdn` functions by name.  These
checks fail when a function it patches has moved or a workload requires a
span the tracer does not record, which otherwise shows only when the
benchmark runs."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def harness(monkeypatch):
    """The benchmark's `tracing` and `workloads` modules."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_tracer_finds_every_span_target(monkeypatch):
    # install looks each target up in its owner's __dict__: a KeyError
    # names an attribute that has left its owner
    tracing, _ = harness(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_required_spans_are_span_targets(monkeypatch):
    tracing, workloads = harness(monkeypatch)
    for name, workload in workloads.WORKLOADS.items():
        missing = set(workload.required_spans) - set(tracing.SPAN_TARGETS)
        assert not missing, (name, sorted(missing))
