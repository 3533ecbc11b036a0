"""Command-line entry point.

Subcommands: gen, train, eval, sample, gradcheck, paramcount, dream.
Every command is reproducible from its flags and seed; metrics files echo
the flags that produced them.  Exit codes: 0 success, 2 validation
failure, 1 runtime error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import control as ct
from . import datasets as ds
from . import mixtures as mx
from . import model as md
from .datasets import SequenceBatch


class CliError(Exception):
    """Validation failure surfaced as exit code 2."""


def _echo_header(fh, args, skip=("func",)):
    for key in sorted(vars(args)):
        if key in skip:
            continue
        fh.write(f"# {key}={getattr(args, key)}\n")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args):
    if args.kind == "ar":
        batch = ds.gen_correlated_ar(args.q, args.t, args.d, args.rho,
                                     args.corr, args.seed)
    elif args.kind == "modes":
        batch = ds.gen_switching_modes(args.q, args.t, args.d, args.modes,
                                       args.seed)
    elif args.kind == "control":
        batch = ds.gen_control_task(args.q, args.t, args.d, args.d_action,
                                    args.seed)
    else:
        raise CliError(f"unknown dataset kind {args.kind!r}")
    ds.save_fseq(args.out, batch)
    if args.csv:
        ds.export_csv(batch, args.csv)
    print(f"wrote {args.out}: q={batch.q} t={batch.t} d={batch.dim} "
          f"d_action={batch.action_dim}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

TRAIN_DEFAULTS = {
    "structure": ("diagonal", str),
    "flow": ("on", str),
    "flow_depth": (1, int),
    "k": (5, int),
    "hidden": (128, int),
    "epochs": (30, int),
    "lr": (1e-4, float),
    "optimizer": ("rmsprop", str),
    "batch": (16, int),
    "window": (32, int),
    "seed": (0, int),
    "c_width": (1.0, float),
}


def _resolve_train_options(args):
    """Flag > config file > default, per option.

    Returns the options and the set of keys a flag or the config file set.
    """
    from_file = {}
    if args.config:
        with open(args.config) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                from_file[key.strip()] = value.strip()
        unknown = set(from_file) - set(TRAIN_DEFAULTS)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
    opts = {}
    given = set()
    for key, (default, cast) in TRAIN_DEFAULTS.items():
        flag = getattr(args, key)
        if flag is not None:
            opts[key] = flag
            given.add(key)
        elif key in from_file:
            opts[key] = cast(from_file[key])
            given.add(key)
        else:
            opts[key] = default
    if opts["flow"] not in ("on", "off"):
        raise CliError("--flow must be 'on' or 'off'")
    return opts, given


def _adopt_checkpoint_options(opts, given, config, extra):
    """Take the architecture and optimizer of a resumed checkpoint into
    `opts`, rejecting any value a flag or the config file set otherwise."""
    stored = {
        "structure": config.head_structure,
        "flow": "on" if config.flow_enabled else "off",
        "flow_depth": config.flow_depth,
        "k": config.components,
        "hidden": config.hidden,
        "c_width": config.c_width,
    }
    if "optimizer" in extra:
        stored["optimizer"] = extra["optimizer"]
    for key, value in stored.items():
        if key in given and opts[key] != value:
            raise CliError(f"{key}={opts[key]} conflicts with the resumed "
                           f"checkpoint's {key}={value}")
        opts[key] = value


def _write_metrics(path, args, rows):
    with open(path, "w") as fh:
        _echo_header(fh, args)
        fh.write("epoch,split,nll_total,nll_mixture,nll_logdet\n")
        for row in rows:
            fh.write(f"{row['epoch']},{row['split']},{row['nll_total']!r},"
                     f"{row['nll_mixture']!r},{row['nll_logdet']!r}\n")


def cmd_train(args):
    opts, given = _resolve_train_options(args)
    train = ds.load_fseq(args.data)
    test = ds.load_fseq(args.test_data) if args.test_data else None

    start_epoch = 0
    optimizer = None
    if args.resume:
        model, extra, opt_arrays = md.load_checkpoint(args.resume)
        _adopt_checkpoint_options(opts, given, model.config, extra)
        start_epoch = int(extra.get("epoch", 0))
        optimizer = md.make_optimizer(opts["optimizer"], opts["lr"])
        optimizer.load_state_arrays(opt_arrays)
    else:
        config = md.ModelConfig(
            dim=train.dim, action_dim=train.action_dim,
            components=opts["k"], hidden=opts["hidden"],
            flow_depth=opts["flow_depth"],
            head_structure=opts["structure"],
            flow_enabled=opts["flow"] == "on", c_width=opts["c_width"],
        )
        config.validate()
        model = md.build_model(config, seed=opts["seed"])

    settings = md.TrainSettings(
        epochs=opts["epochs"], lr=opts["lr"], optimizer=opts["optimizer"],
        batch_size=opts["batch"], window=opts["window"], seed=opts["seed"],
    )
    rows, optimizer = md.train_model(model, train, settings, test_batch=test,
                                     optimizer=optimizer,
                                     start_epoch=start_epoch)
    extra = {
        "epoch": str(start_epoch + opts["epochs"]),
        "lr": repr(opts["lr"]),
        "seed": str(opts["seed"]),
        "window": str(opts["window"]),
        "batch": str(opts["batch"]),
    }
    md.save_checkpoint(args.out, model, optimizer=optimizer, extra=extra)
    if args.log:
        _write_metrics(args.log, args, rows)
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
    model, _, _ = md.load_checkpoint(args.ckpt)
    rng = np.random.default_rng(args.seed)
    cfg = model.config
    obs = []
    acts = []
    for _ in range(args.n):
        if cfg.action_dim:
            action_fn = lambda t: rng.uniform(-1.0, 1.0, cfg.action_dim)
        else:
            action_fn = None
        out = md.rollout(model, np.zeros(cfg.dim), action_fn, args.steps,
                         rng=rng)
        obs.append(out.observations[0])
        if out.actions is not None:
            acts.append(out.actions[0])
    batch = SequenceBatch(np.stack(obs), np.stack(acts) if acts else None,
                          "samples")
    ds.export_csv(batch, args.out)
    print(f"wrote {args.out}: {args.n} rollouts of {args.steps} steps")
    return 0


# ---------------------------------------------------------------------------
# gradcheck / paramcount
# ---------------------------------------------------------------------------

def cmd_gradcheck(args):
    config = md.ModelConfig(dim=args.d, components=args.k, hidden=args.h,
                            flow_depth=args.flow_depth,
                            flow_hidden=args.flow_hidden)
    config.validate()
    model = md.build_model(config, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    for layer in model.flow.layers:
        for node in (layer.w2s, layer.b2s, layer.w2t, layer.b2t):
            node.value = rng.normal(size=node.value.shape) * 0.1
    obs = rng.normal(size=(2, args.t, args.d))
    err = float(md.gradient_check_model(model, SequenceBatch(obs)))
    print(f"max_relative_error={err!r}")
    if err > 1e-3:
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

def cmd_dream(args):
    task = ct.build_dream_task(seed=args.seed, hidden=args.hidden,
                               horizon=args.horizon,
                               train_epochs=args.train_epochs)
    ctrl, history = ct.train_controller(
        task, generations=args.generations, popsize=args.popsize,
        sigma0=args.sigma, seed=args.seed,
        episodes_per_candidate=args.episodes,
    )
    if args.log:
        with open(args.log, "w") as fh:
            _echo_header(fh, args)
            fh.write("generation,mean_reward,best_reward\n")
            for row in history:
                fh.write(f"{row['generation']},{row['mean_reward']!r},"
                         f"{row['best_reward']!r}\n")
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
    gen.add_argument("--kind", required=True, choices=["ar", "modes", "control"])
    gen.add_argument("--q", type=int, default=64)
    gen.add_argument("--t", type=int, default=256)
    gen.add_argument("--d", type=int, default=8)
    gen.add_argument("--rho", type=float, default=0.9)
    gen.add_argument("--corr", type=float, default=0.8)
    gen.add_argument("--modes", type=int, default=2)
    gen.add_argument("--d-action", dest="d_action", type=int, default=2)
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
    train.add_argument("--structure",
                       choices=["diagonal", "tied", "logistic"], default=None)
    train.add_argument("--flow", choices=["on", "off"], default=None)
    train.add_argument("--flow-depth", dest="flow_depth", type=int, default=None)
    train.add_argument("--k", type=int, default=None)
    train.add_argument("--hidden", type=int, default=None)
    train.add_argument("--epochs", type=int, default=None)
    train.add_argument("--lr", type=float, default=None)
    train.add_argument("--optimizer", choices=["rmsprop", "adam"], default=None)
    train.add_argument("--batch", type=int, default=None)
    train.add_argument("--window", type=int, default=None)
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--c-width", dest="c_width", type=float, default=None)
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
    gc.add_argument("--flow-hidden", dest="flow_hidden", type=int, default=64)
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
