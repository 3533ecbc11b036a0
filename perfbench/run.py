"""Benchmark driver for frmdn: one workload per invocation.

    python3 perfbench/run.py --workload train-acceptance --seed 0 \
        --seconds 20 --trace 0

Run from the root of a checkout; the `frmdn` sources are imported from
`src/` there.  With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics; with `--trace 1` it carries the
per-layer metrics from a traced run.  See perfbench/README.md for the
workloads, the metrics and the checks.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

if not (SRC / "frmdn" / "__init__.py").is_file():
    sys.exit(f"perfbench: no frmdn sources under {SRC}; "
             "run it from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import frmdn  # noqa: E402
from frmdn import control  # noqa: E402
from frmdn import model as md  # noqa: E402
from tracing import OP_TAGS, Patcher, Tracer  # noqa: E402
from workloads import WORKLOADS, Meter, Tally  # noqa: E402

if Path(frmdn.__file__).resolve().parent != SRC / "frmdn":
    sys.exit(f"perfbench: imported frmdn from {frmdn.__file__}, not {SRC}")

clock = time.perf_counter_ns

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "op_cost_p50": "ref",
    "op_cost_p90": "ref", "cycle_cost_p50": "ref", "forward_items_per_ref": "1/ref",
}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment():
    digest = hashlib.sha256()
    for path in sorted((SRC / "frmdn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _raise_once(fn):
    fired = []

    def wrapper(*args, **kwargs):
        if not fired:
            fired.append(True)
            raise md.NumericsError("injected by --inject-fault")
        return fn(*args, **kwargs)

    return wrapper


def inject_numerics_error(patcher):
    """Make the first train step and the first dreamed step raise."""
    for owner, name in ((md, "train_step"), (control, "generate_step")):
        patcher.replace(owner, name, _raise_once(owner.__dict__[name]))


def run(args):
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.workload, args.seed, args.tiny)
    tally = Tally()
    tracer = Tracer() if args.trace else None
    loop_patches = Patcher()

    setup_ns = []
    if tracer is not None:
        tracer.op_id = -1
        tracer.install()
        try:
            workload.setup()
        finally:
            tracer.uninstall()
    else:
        for _ in range(SETUP_REPEATS):
            start = clock()
            workload.setup()
            setup_ns.append(clock() - start)

    meter = Meter(reference=workload.reference_pass)
    if args.inject_fault:
        inject_numerics_error(loop_patches)
    # in a traced run, cycles alternate untraced / traced; the first
    # `min_cycles` cycles always complete, later ones stop at the deadline
    min_cycles = 2 if tracer is not None else 1
    deadline = clock() + int(args.seconds * 1e9)
    try:
        while len(meter.cycles) < min_cycles or clock() < deadline:
            meter.traced = tracer is not None and len(meter.cycles) % 2 == 1
            if meter.traced:
                tracer.op_id = len(meter.cycles)
                tracer.install()
            mark = meter.mark()
            try:
                done = workload.cycle(
                    meter, tally,
                    None if len(meter.cycles) < min_cycles else deadline)
            finally:
                if meter.traced:
                    tracer.uninstall()
            if not done:
                break
            meter.end_cycle(mark)
    finally:
        loop_patches.restore()

    check_rng = np.random.default_rng([args.seed, 3])
    if tracer is not None:
        tracer.op_id = -2
        tracer.install()
    try:
        workload.check(tally, check_rng, str(OUT_DIR))
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tracer is None:
        metrics = end_to_end(meter, setup_ns)
    else:
        summary = tracer.summary()
        missing = [n for n in workload.required_spans if summary.calls[n] == 0]
        if missing:
            raise RuntimeError(f"spans recorded no calls: {', '.join(missing)}; "
                               "a traced function was renamed or bypassed")
        print(summary.table())
        metrics = per_layer(summary, meter)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}.tsv")
    return tally, metrics, meter, setup_ns


def decile(values, k):
    """The k-th decile (k = 1..9) of `values`; the one value if there is one."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def end_to_end(meter, setup_ns):
    # A shared host's speed drifts by up to 1.7x within minutes, so the raw
    # times of runs made minutes apart disagree.  The loop's timings are
    # gated as costs, in reference passes timed next to them (see Meter and
    # README.md); the raw times are printed but not gated.
    costs, span = meter.costs()
    op_costs = [costs[i] for i in meter.ops]
    items = sum(f[0] for f in meter.forward)
    values = {
        "setup_s": statistics.median(setup_ns) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_cost_p50": decile(op_costs, 5),
        "op_cost_p90": decile(op_costs, 9),
        "cycle_cost_p50": decile([span(*c) for c in meter.cycles], 5),
        "forward_items_per_ref": items / sum(span(*f[1:]) for f in meter.forward),
    }
    ops_ms = [meter.calls[i] / 1e6 for i in meter.ops]
    print(f"samples: {len(ops_ms)} ops, {len(meter.forward)} forward calls, "
          f"{len(meter.cycles)} cycles, {len(setup_ns)} set-ups")
    print(f"raw times, not gated: ref_ms_p50 = "
          f"{decile(meter.refs, 5) / 1e6:.6g}, "
          f"op_ms_p50 = {decile(ops_ms, 5):.6g}, "
          f"op_ms_p90 = {decile(ops_ms, 9):.6g}, "
          f"cycle_s_p50 = {decile([c[0] for c in meter.cycles], 5) / 1e9:.6g}, "
          f"forward_items_per_s = "
          f"{items / (sum(f[1] for f in meter.forward) / 1e9):.6g}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(summary, meter):
    def train(value_of):
        return summary.unit_mean("model.train_step", value_of) / 1e6

    def dream(value_of):
        return summary.unit_mean("model.generate_step", value_of) / 1e3

    def part(name):
        return lambda dur, parts: parts[name][0]

    costs, _ = meter.costs()
    traced = [costs[i] for i, t in zip(meter.ops, meter.op_traced) if t]
    plain = [costs[i] for i, t in zip(meter.ops, meter.op_traced) if not t]
    values = {
        ("recurrent.lstm_forward_ms", "ms"): train(part("recurrent.lstm_step")),
        ("recurrent.head_ms", "ms"): train(part("recurrent.head_logits")),
        ("flow.forward_ms", "ms"): train(part("flow.flow_forward")),
        ("mixtures.nll_forward_ms", "ms"):
            train(lambda dur, parts: parts["model.nll_graph"][1]),
        ("diffcore.backward_ms", "ms"): train(part("diffcore.backward")),
        ("model.optimizer_update_ms", "ms"): train(part("model.optimizer_update")),
        ("model.forward_ms", "ms"): train(
            lambda dur, parts: dur - parts["diffcore.backward"][0]
            - parts["model.optimizer_update"][0]),
        ("model.evaluate_ms", "ms"): summary.mean_ms("model.evaluate"),
        ("recurrent.lstm_step_us", "us"): dream(part("recurrent.lstm_step")),
        ("flow.inverse_us", "us"): dream(part("flow.flow_inverse")),
        ("recurrent.head_project_us", "us"): dream(part("recurrent.head_project")),
        ("mixtures.sample_us", "us"): dream(part("mixtures.mixture_sample")),
        ("model.generate_step_us", "us"): dream(lambda dur, parts: dur),
        ("control.rollouts_per_generation", "count"):
            summary.child_calls("control.evaluate_population",
                                "control.dream_rollout"),
        ("datasets.generate_ms", "ms"): (
            (summary.total_ns["datasets.gen_correlated_ar"]
             + summary.total_ns["datasets.gen_control_task"]) / 1e6
            / (summary.calls["datasets.gen_correlated_ar"]
               + summary.calls["datasets.gen_control_task"])),
        ("datasets.slice_windows_ms", "ms"): summary.mean_ms("datasets.slice_windows"),
        ("trace.overhead_pct", "%"):
            100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0),
    }
    for unit, label in (("train", "train_step"), ("dream", "dream_step")):
        key = f"diffcore.op_calls_per_{label}"
        values[(key, "count")] = summary.op_calls_per_unit(unit)
        for tag in OP_TAGS:
            values[(f"{key}.{tag}", "count")] = summary.op_calls_per_unit(unit, tag)
    return {name: {"value": v, "unit": unit} for (name, unit), v in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small data and short episodes, for the smoke test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="raise one NumericsError inside the timed loop")
    args = parser.parse_args(argv)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    tally, metrics, meter, setup_ns = run(args)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    error_rate = tally.failed / tally.attempted
    print(f"error_rate = {error_rate:.6g} ({tally.failed} failed / "
          f"{tally.attempted} attempted)")
    for what in tally.failures:
        print(f"FAILED: {what}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env,
                  samples={"call_ns": meter.calls, "ref_ns": meter.refs,
                           "op_calls": meter.ops,
                           "forward_items_ns_calls": meter.forward,
                           "cycle_ns_calls": meter.cycles,
                           "setup_ns": setup_ns})
    out = OUT_DIR / f"result-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
