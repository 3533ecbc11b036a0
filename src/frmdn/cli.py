"""Command-line entry point.

Subcommands: gen, train, eval, sample, gradcheck, paramcount, dream.
Every command is reproducible from its flags and seed; metrics files echo
the flags that produced them.  Exit codes: 0 success, 2 validation
failure, 1 runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from typing import NamedTuple

import numpy as np

from . import control as ct
from . import datasets as ds
from . import flow as fl
from . import mixtures as mx
from . import model as md
from .datasets import SequenceBatch


class CliError(Exception):
    """Validation failure surfaced as exit code 2."""


def _check_outputs(args, *names, inputs=(), in_place=None):
    """Reject an output flag whose path could not be written, or that
    names one file with another output flag or an `inputs` flag, before
    any work: its directory must exist and it must not name a directory.
    `in_place` is the (input, output) pair that may name one file."""
    seen = {os.path.realpath(getattr(args, name)): name.replace("_", "-")
            for name in inputs if getattr(args, name) is not None}
    for name in names:
        path = getattr(args, name)
        if path is None:
            continue
        if os.path.isdir(path) or not os.path.basename(path):
            raise CliError(f"--{name} {path!r} does not name a file")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise CliError(f"--{name} {path!r}: no directory {folder}")
        real = os.path.realpath(path)
        if real in seen and (seen[real], name) != in_place:
            raise CliError(f"--{seen[real]} and --{name} name one file, {real}")
        seen[real] = name


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args):
    _check_outputs(args, "out", "csv")
    for kind, spec in ds.GEN_KINDS.items():
        for name, _, _ in spec.params:
            if kind != args.kind and getattr(args, name) is not None:
                raise CliError(f"--{name.replace('_', '-')} applies to "
                               f"--kind {kind}, not {args.kind}")
    spec = ds.GEN_KINDS[args.kind]
    values = {name: default if getattr(args, name) is None
              else getattr(args, name) for name, _, default in spec.params}
    batch = spec.make(args.q, args.t, args.d, seed=args.seed, **values)
    ds.save_fseq(args.out, batch)
    if args.csv:
        ds.export_csv(batch, args.csv)
    print(f"wrote {args.out}: q={batch.q} t={batch.t} d={batch.dim} "
          f"d_action={batch.action_dim}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class TrainOption(NamedTuple):
    """One `frmdn train` option: flag `--name` with its default, type and
    choices, and the ModelConfig or TrainSettings field it sets.  A
    checkpoint stores it in that ModelConfig field or, when `entry`, as an
    entry named `name`; a resumed run keeps a `locked` option's value."""

    name: str
    default: object
    type: type
    field: str
    choices: tuple | None = None
    entry: bool = False
    locked: bool = False


ON_OFF = ("on", "off")          # the choices of an option whose field is a bool

TRAIN_OPTIONS = (
    TrainOption("structure", "diagonal", str, "head_structure",
                mx.STRUCTURES, locked=True),
    TrainOption("flow", "on", str, "flow_enabled", ON_OFF, locked=True),
    TrainOption("flow_depth", 1, int, "flow_depth", locked=True),
    TrainOption("k", 5, int, "components", locked=True),
    TrainOption("hidden", 128, int, "hidden", locked=True),
    TrainOption("epochs", 30, int, "epochs"),
    TrainOption("lr", 1e-4, float, "lr", entry=True),
    TrainOption("optimizer", "rmsprop", str, "optimizer", ("rmsprop", "adam"),
                entry=True, locked=True),
    TrainOption("batch", 16, int, "batch_size", entry=True),
    TrainOption("window", 32, int, "window", entry=True),
    TrainOption("seed", 0, int, "seed", entry=True),
    TrainOption("c_width", 1.0, float, "c_width", locked=True),
)
MODEL_FIELDS = {f.name for f in fields(md.ModelConfig)}


def _field_value(opt, value):
    """The ModelConfig field value of option `opt` set to `value`."""
    return value == "on" if opt.choices == ON_OFF else value


def _stored_options(config, extra):
    """The option values a checkpoint's config and entries store."""
    stored = {}
    for opt in TRAIN_OPTIONS:
        if opt.field in MODEL_FIELDS:
            value = getattr(config, opt.field)
            if opt.choices == ON_OFF:
                value = "on" if value else "off"
            stored[opt.name] = value
        elif opt.entry and opt.name in extra:
            stored[opt.name] = ds.parse_entry(
                "FRMD checkpoint config", opt.name, extra[opt.name], opt.type)
    return stored


def _resolve_train_options(args, stored):
    """Flag > config file > `stored` (a resumed checkpoint's values) >
    default, per option.  A locked option that a flag or the config file
    sets to other than its stored value is an error, as is a value that
    could have no effect."""
    from_file = {}
    if args.config:
        with open(args.config) as fh:
            from_file = ds.read_key_values(fh.read(), f"config {args.config}")
        unknown = set(from_file) - {opt.name for opt in TRAIN_OPTIONS}
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
    opts, given = {}, set()
    for opt in TRAIN_OPTIONS:
        value = getattr(args, opt.name)
        if value is None and opt.name in from_file:
            value = ds.parse_entry(f"config {args.config}", opt.name,
                                   from_file[opt.name], opt.type)
            if opt.choices and value not in opt.choices:
                raise CliError(f"config {opt.name}={value} is not one of "
                               f"{', '.join(opt.choices)}")
        if value is None:
            opts[opt.name] = stored.get(opt.name, opt.default)
            continue
        if opt.locked and opt.name in stored and value != stored[opt.name]:
            raise CliError(f"{opt.name}={value} conflicts with the resumed "
                           f"checkpoint's {opt.name}={stored[opt.name]}")
        opts[opt.name] = value
        given.add(opt.name)
    if "flow_depth" in given and opts["flow"] == "off":
        raise CliError("flow_depth is set but the flow is off")
    if "c_width" in given and opts["structure"] != "logistic":
        raise CliError(f"c_width is set but the head is {opts['structure']}, "
                       "not logistic")
    return opts


def _write_log(path, args, columns, rows):
    """CSV of `rows` under `#` lines echoing every flag; floats are
    written with repr, so they read back exactly."""
    with ds.atomic_write(path) as fh:
        for key in sorted(vars(args)):
            if key != "func":
                fh.write(f"# {key}={getattr(args, key)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in columns) + "\n")


def cmd_train(args):
    _check_outputs(args, "out", "log",
                   inputs=("data", "test_data", "config", "resume"),
                   in_place=("resume", "out"))
    train = ds.load_fseq(args.data)
    test = ds.load_fseq(args.test_data) if args.test_data else None
    model, extra, opt_arrays = (md.load_checkpoint(args.resume)
                                if args.resume else (None, {}, {}))
    opts = _resolve_train_options(
        args, _stored_options(model.config, extra) if model else {})
    if model is None:
        config = md.ModelConfig(
            dim=train.dim, action_dim=train.action_dim,
            **{opt.field: _field_value(opt, opts[opt.name])
               for opt in TRAIN_OPTIONS if opt.field in MODEL_FIELDS})
        model = md.build_model(config, seed=opts["seed"])
    optimizer = md.make_optimizer(opts["optimizer"], opts["lr"])
    optimizer.load_state_arrays(opt_arrays)
    start_epoch = int(extra.get("epoch", 0))

    settings = md.TrainSettings(**{opt.field: opts[opt.name]
                                   for opt in TRAIN_OPTIONS
                                   if opt.field not in MODEL_FIELDS})
    rows, optimizer = md.train_model(model, train, settings, test_batch=test,
                                     optimizer=optimizer,
                                     start_epoch=start_epoch)
    entries = {opt.name: opts[opt.name] for opt in TRAIN_OPTIONS if opt.entry}
    entries["epoch"] = start_epoch + opts["epochs"]
    md.save_checkpoint(args.out, model, optimizer=optimizer, extra=entries)
    if args.log:
        _write_log(args.log, args, ("epoch", "split", "nll_total",
                                    "nll_mixture", "nll_logdet"), rows)
    final = rows[-1]
    print(f"epoch {final['epoch']} {final['split']} "
          f"nll_total={final['nll_total']:.6f} "
          f"nll_mixture={final['nll_mixture']:.6f}")
    return 0


# ---------------------------------------------------------------------------
# eval / sample
# ---------------------------------------------------------------------------

def cmd_eval(args):
    model, _, _ = md.load_checkpoint(args.ckpt)
    batch = ds.load_fseq(args.data)
    rec = md.evaluate(model, batch, window=args.window)
    print(f"nll_total={rec.total!r}")
    print(f"nll_mixture={rec.mixture!r}")
    print(f"nll_logdet={rec.logdet!r}")
    return 0


def cmd_sample(args):
    if args.n < 1:
        raise CliError(f"--n must be at least 1, got {args.n}")
    _check_outputs(args, "out", inputs=("ckpt",))
    model, _, _ = md.load_checkpoint(args.ckpt)
    rng = np.random.default_rng(args.seed)
    cfg = model.config
    outs = [md.rollout(model, np.zeros(cfg.dim),
                       lambda t: rng.uniform(-1.0, 1.0, cfg.action_dim),
                       args.steps, rng=rng) for _ in range(args.n)]
    batch = SequenceBatch(np.concatenate([out.observations for out in outs]),
                          np.concatenate([out.actions for out in outs]))
    ds.export_csv(batch, args.out)
    print(f"wrote {args.out}: {args.n} rollouts of {args.steps} steps")
    return 0


# ---------------------------------------------------------------------------
# gradcheck / paramcount
# ---------------------------------------------------------------------------

def cmd_gradcheck(args):
    flow_hidden = args.flow_hidden
    if flow_hidden is None:
        flow_hidden = fl.DEFAULT_HIDDEN
    elif args.flow_depth == 0:
        raise CliError("flow_hidden is set but flow_depth is 0")
    config = md.ModelConfig(dim=args.d, components=args.k, hidden=args.h,
                            flow_depth=args.flow_depth, flow_hidden=flow_hidden)
    model = md.build_model(config, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    for layer in model.flow.layers:
        for node in (layer.w2s, layer.b2s, layer.w2t, layer.b2t):
            node.value = rng.normal(size=node.value.shape) * 0.1
    obs = rng.normal(size=(2, args.t, args.d))
    err = float(md.gradient_check_model(model, SequenceBatch(obs)))
    print(f"max_relative_error={err!r}")
    if err > 1e-4:
        print("gradient check FAILED", file=sys.stderr)
        return 1
    return 0


def cmd_paramcount(args):
    report = mx.param_count(args.k, args.d, args.structure)
    print(f"structure={args.structure} k={args.k} d={args.d} "
          f"alpha={report.alpha_count} mu={report.mu_count} "
          f"sigma={report.sigma_count} total={report.total}")
    return 0


# ---------------------------------------------------------------------------
# dream
# ---------------------------------------------------------------------------

def _check_dream_counts(args):
    """Reject counts under which `frmdn dream` would fail, or do nothing,
    only after training its world model."""
    for flag, value, least in (("--generations", args.generations, 1),
                               ("--popsize", args.popsize, 2),
                               ("--episodes", args.episodes, 1),
                               ("--horizon", args.horizon, 1),
                               ("--hidden", args.hidden, 1),
                               ("--train-epochs", args.train_epochs, 0)):
        if value < least:
            raise CliError(f"{flag} must be at least {least}, got {value}")
    if not (math.isfinite(args.sigma) and args.sigma > 0.0):
        raise CliError(f"--sigma must be positive and finite, got {args.sigma}")


def cmd_dream(args):
    _check_dream_counts(args)
    _check_outputs(args, "log")
    task = ct.build_dream_task(seed=args.seed, hidden=args.hidden,
                               horizon=args.horizon,
                               train_epochs=args.train_epochs)
    ctrl, history = ct.train_controller(
        task, generations=args.generations, popsize=args.popsize,
        sigma0=args.sigma, seed=args.seed,
        episodes_per_candidate=args.episodes,
    )
    if args.log:
        _write_log(args.log, args,
                   ("generation", "mean_reward", "best_reward"), history)
    first, last = history[0], history[-1]
    print(f"generation {first['generation']} mean_reward="
          f"{first['mean_reward']:.4f}")
    print(f"generation {last['generation']} mean_reward="
          f"{last['mean_reward']:.4f} best_reward={last['best_reward']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="frmdn",
        description="Sequence density estimation with flow-based recurrent "
                    "mixture density networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--kind", required=True, choices=list(ds.GEN_KINDS))
    gen.add_argument("--q", type=int, default=64)
    gen.add_argument("--t", type=int, default=256)
    gen.add_argument("--d", type=int, default=8)
    for kind, spec in ds.GEN_KINDS.items():
        for name, kind_type, default in spec.params:
            gen.add_argument("--" + name.replace("_", "-"), type=kind_type,
                             help=f"--kind {kind} only (default {default})")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--csv", default=None, help="also export CSV here")
    gen.set_defaults(func=cmd_gen)

    train = sub.add_parser("train", help="train a model on an FSEQ dataset")
    train.add_argument("--data", required=True)
    train.add_argument("--test-data", dest="test_data", default=None)
    train.add_argument("--out", required=True, help="checkpoint path")
    train.add_argument("--log", default=None, help="metrics CSV path")
    train.add_argument("--config", default=None,
                       help="key=value defaults, overridden by flags")
    train.add_argument("--resume", default=None,
                       help="checkpoint to continue from")
    for opt in TRAIN_OPTIONS:
        train.add_argument("--" + opt.name.replace("_", "-"), type=opt.type,
                           choices=opt.choices)
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--window", type=int, default=32)
    ev.set_defaults(func=cmd_eval)

    sample = sub.add_parser("sample", help="write model rollouts as CSV")
    sample.add_argument("--ckpt", required=True)
    sample.add_argument("--steps", type=int, default=256)
    sample.add_argument("--n", type=int, default=1)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", required=True)
    sample.set_defaults(func=cmd_sample)

    gc = sub.add_parser("gradcheck",
                        help="compare loss gradients with finite differences")
    gc.add_argument("--d", type=int, default=3)
    gc.add_argument("--k", type=int, default=2)
    gc.add_argument("--h", type=int, default=8)
    gc.add_argument("--t", type=int, default=4)
    gc.add_argument("--flow-depth", dest="flow_depth", type=int, default=2)
    gc.add_argument("--flow-hidden", dest="flow_hidden", type=int,
                    help=f"coupling net width (default {fl.DEFAULT_HIDDEN})")
    gc.add_argument("--seed", type=int, default=0)
    gc.set_defaults(func=cmd_gradcheck)

    pc = sub.add_parser("paramcount", help="mixture parameter-count table row")
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--structure", choices=["full", "diagonal", "tied"],
                    required=True)
    pc.set_defaults(func=cmd_paramcount)

    dream = sub.add_parser(
        "dream", help="train a linear controller with CMA-ES in dream rollouts"
    )
    dream.add_argument("--popsize", type=int, default=16)
    dream.add_argument("--sigma", type=float, default=0.5)
    dream.add_argument("--generations", type=int, default=60)
    dream.add_argument("--seed", type=int, default=0)
    dream.add_argument("--hidden", type=int, default=16)
    dream.add_argument("--horizon", type=int, default=64)
    dream.add_argument("--episodes", type=int, default=2)
    dream.add_argument("--train-epochs", dest="train_epochs", type=int,
                       default=12)
    dream.add_argument("--log", default=None)
    dream.set_defaults(func=cmd_dream)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (md.NumericsError, OSError, np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
