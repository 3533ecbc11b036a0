"""The benchmark in `perfbench/` patches `frmdn` functions by name.  These
checks fail when a function it patches has moved or a workload requires a
span the tracer does not record, which otherwise shows only when the
benchmark runs; the last run short traced workloads, so a caller that
bypasses a span's module attribute, or a change that the benchmark's own
checks refuse, shows too."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def traced_run(workload):
    """The result line of a short traced run of one workload, which must
    exit 0 and report `correct`."""
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--tiny", "--trace", "1", "--seconds", "0.5", "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"]
    return result


def test_traced_dream_run_records_the_sampling_spans():
    # a span whose caller stops looking its function up by module attribute
    # still has its target, but records nothing: the run fails its
    # required-span check or reports zero time
    metrics = traced_run("dream")["metrics"]
    for name in ("flow.inverse_us", "recurrent.head_project_us",
                 "mixtures.sample_us", "model.generate_step_us"):
        assert metrics[name]["value"] > 0.0, name


@pytest.mark.parametrize("workload", ["train-acceptance", "train-wide-head"])
def test_traced_train_run_is_correct(workload):
    # the benchmark's reference forward reads the layers' pass_idx and
    # trans_idx, its model check runs the flow's round trip, and the run
    # fails when a required train span records nothing
    traced_run(workload)
