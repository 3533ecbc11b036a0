"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py
    python -m pytest perfbench/smoke.py

Each case runs perfbench/run.py in a fresh process from the repository
root, as the benchmark contract runs it.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=0, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def assert_declared(result, lines, declared):
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
        assert any(line.startswith(f"{m['name']} = ") and
                   line.endswith(f" {m['unit']}") for line in lines), m["name"]


def test_end_to_end_metrics_on_two_seeds():
    for workload in WORKLOADS:
        for seed in (0, 1):
            result, lines = bench(workload, 0, seed)
            assert result["correct"] and result["failed"] == 0, lines
            assert result["attempted"] > 0
            assert_declared(result, lines, SPEC["end_to_end"])


def test_per_layer_metrics_and_repeatable_op_counts():
    for workload in WORKLOADS:
        first, lines = bench(workload, 1)
        second, _ = bench(workload, 1)
        assert first["correct"], lines
        assert_declared(first, lines, SPEC["per_layer"])
        counts = {k: v for k, v in first["metrics"].items()
                  if k.startswith("diffcore.op_calls_")}
        again = {k: v for k, v in second["metrics"].items()
                 if k.startswith("diffcore.op_calls_")}
        assert counts and counts == again


def test_injected_numerics_error_counts_as_failed():
    for workload in WORKLOADS:
        result, lines = bench(workload, 0, 0, "--inject-fault")
        assert result["failed"] == 1 and not result["correct"], lines
        assert any(line.startswith("error_rate = ") for line in lines)


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failed else 0)
