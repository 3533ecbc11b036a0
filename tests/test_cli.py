import struct
import tracemalloc

import numpy as np
import pytest

from frmdn import datasets as ds
from frmdn import model as md
from frmdn.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_small(tmp_path, name="data.fseq", seed=1, q=8, t=64, d=3):
    path = tmp_path / name
    code = main([
        "gen", "--kind", "ar", "--q", str(q), "--t", str(t), "--d", str(d),
        "--rho", "0.8", "--corr", "0.4", "--seed", str(seed),
        "--out", str(path),
    ])
    assert code == 0
    return path


def test_gen_writes_parseable_file(tmp_path, capsys):
    out = tmp_path / "data.fseq"
    code, stdout, _ = run([
        "gen", "--kind", "ar", "--q", "64", "--t", "256", "--d", "8",
        "--rho", "0.9", "--corr", "0.8", "--seed", "1", "--out", str(out),
    ], capsys)
    assert code == 0
    batch = ds.load_fseq(out)
    assert (batch.q, batch.t, batch.dim, batch.action_dim) == (64, 256, 8, 0)


def test_gen_rejects_non_pd_correlation(tmp_path, capsys):
    code, _, err = run([
        "gen", "--kind", "ar", "--corr", "1.0", "--out",
        str(tmp_path / "x.fseq"),
    ], capsys)
    assert code == 2
    assert "non-PD" in err


@pytest.mark.parametrize("kind, flag, value", [
    ("ar", "--q", "0"), ("ar", "--t", "1"), ("ar", "--t", "0"),
    ("ar", "--d", "0"), ("modes", "--d", "0"), ("modes", "--t", "1"),
    ("control", "--q", "0"), ("control", "--d-action", "0"),
])
def test_gen_rejects_counts_that_give_unusable_data(tmp_path, capsys, kind,
                                                    flag, value):
    out = tmp_path / "x.fseq"
    code, _, err = run(["gen", "--kind", kind, "--q", "2", "--t", "4",
                        "--d", "2", flag, value, "--out", str(out)], capsys)
    assert code == 2
    name = flag[2:].replace("-", "_")
    assert one_error_line(err).startswith(f"error: {name} must be at least")
    assert not out.exists()


def test_gen_is_byte_reproducible(tmp_path, capsys):
    a = gen_small(tmp_path, "a.fseq")
    b = gen_small(tmp_path, "b.fseq")
    assert a.read_bytes() == b.read_bytes()


def test_unknown_flags_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "ar", "--out", "x", "--bogus", "1"])
    assert exc.value.code == 2


def train_args(data, out, log=None, **kw):
    argv = ["train", "--data", str(data), "--out", str(out),
            "--k", "2", "--hidden", "8", "--epochs", str(kw.pop("epochs", 2)),
            "--lr", str(kw.pop("lr", 1e-3)), "--batch", "8",
            "--window", "16", "--seed", "3"]
    if log:
        argv += ["--log", str(log)]
    for key, val in kw.items():
        argv += [f"--{key.replace('_', '-')}", str(val)]
    return argv


def read_metrics(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("epoch,"):
            continue
        epoch, split, total, mixture, logdet = line.split(",")
        rows.append((int(epoch), split, float(total), float(mixture),
                     float(logdet)))
    return rows


def test_train_flow_identity_matches_flow_off_at_epoch_zero(tmp_path, capsys):
    data = gen_small(tmp_path)
    log_on = tmp_path / "on.csv"
    log_off = tmp_path / "off.csv"
    assert main(train_args(data, tmp_path / "on.frmd", log_on,
                           flow="on")) == 0
    assert main(train_args(data, tmp_path / "off.frmd", log_off,
                           flow="off")) == 0
    first_on = read_metrics(log_on)[0]
    first_off = read_metrics(log_off)[0]
    assert first_on[0] == 0 and first_off[0] == 0
    assert abs(first_on[2] - first_off[2]) < 1e-9


def test_train_zero_learning_rate_is_flat(tmp_path, capsys):
    data = gen_small(tmp_path)
    log = tmp_path / "flat.csv"
    assert main(train_args(data, tmp_path / "flat.frmd", log, epochs=3,
                           lr=0.0)) == 0
    totals = [r[2] for r in read_metrics(log) if r[1] == "train"]
    assert len(set(totals)) == 1


def test_train_resume_continues_bit_identically(tmp_path, capsys):
    data = gen_small(tmp_path)
    log_full = tmp_path / "full.csv"
    assert main(train_args(data, tmp_path / "full.frmd", log_full,
                           epochs=4)) == 0

    log_a = tmp_path / "a.csv"
    assert main(train_args(data, tmp_path / "half.frmd", log_a,
                           epochs=2)) == 0
    log_b = tmp_path / "b.csv"
    argv = train_args(data, tmp_path / "resumed.frmd", log_b, epochs=2)
    argv += ["--resume", str(tmp_path / "half.frmd")]
    assert main(argv) == 0

    full = read_metrics(log_full)
    resumed = read_metrics(log_b)
    assert full[-1][0] == 4 and resumed[-1][0] == 4
    assert full[-1][2] == resumed[-1][2]


def test_train_outputs_are_byte_reproducible(tmp_path, capsys):
    # identical flags (including paths) must reproduce identical bytes
    data = gen_small(tmp_path)
    log = tmp_path / "run.csv"
    ckpt = tmp_path / "run.frmd"
    logs, ckpts = [], []
    for _ in range(2):
        assert main(train_args(data, ckpt, log, epochs=2)) == 0
        logs.append(log.read_bytes())
        ckpts.append(ckpt.read_bytes())
    assert logs[0] == logs[1]
    assert ckpts[0] == ckpts[1]


def test_metrics_log_echoes_flags(tmp_path, capsys):
    data = gen_small(tmp_path)
    log = tmp_path / "m.csv"
    assert main(train_args(data, tmp_path / "m.frmd", log, epochs=1)) == 0
    header = [l for l in log.read_text().splitlines() if l.startswith("#")]
    joined = "\n".join(header)
    assert "# epochs=1" in joined
    assert "# seed=3" in joined
    assert "# window=16" in joined


def test_train_config_file_defaults_and_flag_override(tmp_path, capsys):
    data = gen_small(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=1\nhidden=8\nk=2\nlr=0.001\nbatch=8\nwindow=16\nseed=3\n")
    out = tmp_path / "cfg.frmd"
    code = main(["train", "--data", str(data), "--out", str(out),
                 "--config", str(cfg), "--epochs", "2"])
    assert code == 0
    model, extra, _ = md.load_checkpoint(out)
    assert extra["epoch"] == "2"          # flag overrode the config file
    assert model.config.hidden == 8

    cfg.write_text("bogus_key=1\n")
    code = main(["train", "--data", str(data), "--out", str(out),
                 "--config", str(cfg)])
    assert code == 2


def test_eval_prints_both_terms(tmp_path, capsys):
    data = gen_small(tmp_path)
    ckpt = tmp_path / "m.frmd"
    assert main(train_args(data, ckpt, epochs=1)) == 0
    code, out, _ = run(["eval", "--ckpt", str(ckpt), "--data", str(data),
                        "--window", "16"], capsys)
    assert code == 0
    assert "nll_total=" in out and "nll_mixture=" in out
    # reported eval matches a library-side evaluation bit for bit
    model, _, _ = md.load_checkpoint(ckpt)
    rec = md.evaluate(model, ds.load_fseq(data), window=16)
    assert f"nll_total={rec.total!r}" in out


def test_sample_writes_rollout_csv(tmp_path, capsys):
    data = gen_small(tmp_path)
    ckpt = tmp_path / "m.frmd"
    assert main(train_args(data, ckpt, epochs=1)) == 0
    out = tmp_path / "rollouts.csv"
    code, stdout, _ = run(["sample", "--ckpt", str(ckpt), "--steps", "10",
                           "--n", "2", "--seed", "4", "--out", str(out)],
                          capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("seq,step,y_0")
    assert len(lines) == 1 + 2 * 11       # header + two rollouts of 11 rows


def test_gradcheck_small_model_passes(tmp_path, capsys):
    code, out, _ = run(["gradcheck", "--d", "2", "--k", "1", "--h", "4",
                        "--flow-depth", "1", "--flow-hidden", "8",
                        "--seed", "0"], capsys)
    assert code == 0
    err = float(out.split("max_relative_error=")[1].strip())
    assert err < 1e-4


def test_gradcheck_fails_above_1e_4(monkeypatch, capsys):
    monkeypatch.setattr(md, "gradient_check_model", lambda model, batch: 5e-4)
    code, out, err = run(["gradcheck", "--d", "2", "--k", "1", "--h", "4",
                          "--flow-hidden", "8", "--seed", "0"], capsys)
    assert code == 1
    assert "max_relative_error=0.0005" in out
    assert "gradient check FAILED" in err


def test_gradcheck_non_finite_loss_exits_2(monkeypatch, capsys):
    from frmdn import diffcore as dc

    monkeypatch.setattr(md, "_nll_graph",
                        lambda *args: (dc.constant(np.nan),) * 3)
    code, _, err = run(["gradcheck", "--d", "2", "--k", "1", "--h", "4",
                        "--flow-hidden", "8", "--seed", "0"], capsys)
    assert code == 2
    assert "not finite" in one_error_line(err)


def test_gradcheck_rejects_zero_width_coupling_nets(capsys):
    code, out, err = run(["gradcheck", "--d", "2", "--k", "1", "--h", "4",
                          "--flow-hidden", "0"], capsys)
    assert code == 2 and "flow_hidden" in one_error_line(err)
    assert out == ""


def test_paramcount_table_row(capsys):
    code, out, _ = run(["paramcount", "--k", "5", "--d", "32",
                        "--structure", "diagonal"], capsys)
    assert code == 0
    assert "total=325" in out


def test_dream_smoke_writes_log(tmp_path, capsys):
    log = tmp_path / "dream.csv"
    code, out, _ = run(["dream", "--popsize", "4", "--generations", "3",
                        "--sigma", "0.5", "--seed", "0", "--hidden", "4",
                        "--horizon", "16", "--episodes", "1",
                        "--train-epochs", "1", "--log", str(log)], capsys)
    assert code == 0
    rows = [l for l in log.read_text().splitlines()
            if not l.startswith("#") and not l.startswith("generation,")]
    assert len(rows) == 3


def test_truncated_checkpoint_and_data_exit_2(tmp_path, capsys):
    data = gen_small(tmp_path)
    ckpt = tmp_path / "m.frmd"
    assert main(train_args(data, ckpt, epochs=1)) == 0
    capsys.readouterr()
    cut = tmp_path / "cut"
    for flag, good in (("--ckpt", ckpt), ("--data", data)):
        blob = good.read_bytes()
        # inside the header, just past it, mid-body and one byte short
        for size in (6, 23, 30, len(blob) // 2, len(blob) - 1):
            cut.write_bytes(blob[:size])
            argv = ["eval", "--ckpt", str(ckpt), "--data", str(data)]
            argv[argv.index(flag) + 1] = str(cut)
            code, _, err = run(argv, capsys)
            assert code == 2, (flag, size)
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: truncated")


def test_train_resume_rejects_architecture_change(tmp_path, capsys):
    data = gen_small(tmp_path)
    half = tmp_path / "half.frmd"
    assert main(train_args(data, half, epochs=1)) == 0
    capsys.readouterr()
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("structure=tied\n")
    for extra in (["--k", "7"], ["--hidden", "16"], ["--flow", "off"],
                  ["--c-width", "2.0"], ["--config", str(cfg)]):
        argv = train_args(data, tmp_path / "out.frmd", epochs=1)
        argv += ["--resume", str(half)] + extra
        code, _, err = run(argv, capsys)
        assert code == 2, extra
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "resumed checkpoint" in lines[0], extra
    assert not (tmp_path / "out.frmd").exists()


def test_train_resume_keeps_stored_optimizer(tmp_path, capsys):
    data = gen_small(tmp_path)
    log_full = tmp_path / "full.csv"
    assert main(train_args(data, tmp_path / "full.frmd", log_full, epochs=4,
                           optimizer="adam")) == 0
    half = tmp_path / "half.frmd"
    assert main(train_args(data, half, epochs=2, optimizer="adam")) == 0
    capsys.readouterr()

    argv = train_args(data, tmp_path / "bad.frmd", epochs=2)
    code, _, err = run(argv + ["--resume", str(half), "--optimizer",
                               "rmsprop"], capsys)
    assert code == 2
    assert "optimizer=adam" in err

    log_b = tmp_path / "b.csv"
    argv = train_args(data, tmp_path / "resumed.frmd", log_b, epochs=2)
    assert main(argv + ["--resume", str(half)]) == 0
    _, extra, _ = md.load_checkpoint(tmp_path / "resumed.frmd")
    assert extra["optimizer"] == "adam"
    assert read_metrics(log_b)[-1][2] == read_metrics(log_full)[-1][2]


def bare_resume_args(data, out, log, ckpt, epochs=2):
    """`frmdn train --resume` that types no option but --epochs."""
    return ["train", "--data", str(data), "--out", str(out), "--log",
            str(log), "--epochs", str(epochs), "--resume", str(ckpt)]


def test_train_bare_resume_restores_stored_settings(tmp_path, capsys):
    data = gen_small(tmp_path)
    log_full = tmp_path / "full.csv"
    assert main(train_args(data, tmp_path / "full.frmd", log_full,
                           epochs=4)) == 0
    half = tmp_path / "half.frmd"
    assert main(train_args(data, half, epochs=2)) == 0
    resumed = tmp_path / "resumed.frmd"
    log_b = tmp_path / "b.csv"
    assert main(bare_resume_args(data, resumed, log_b, half)) == 0

    assert read_metrics(log_b)[-1] == read_metrics(log_full)[-1]
    _, first, _ = md.load_checkpoint(half)
    _, second, _ = md.load_checkpoint(resumed)
    for key in ("lr", "batch", "window", "seed"):
        assert second[key] == first[key], key


def test_train_resume_flag_overrides_stored_lr(tmp_path, capsys):
    data = gen_small(tmp_path)
    half = tmp_path / "half.frmd"
    assert main(train_args(data, half, epochs=2)) == 0
    resumed = tmp_path / "resumed.frmd"
    log = tmp_path / "flat.csv"
    argv = bare_resume_args(data, resumed, log, half) + ["--lr", "0"]
    assert main(argv) == 0
    # a zero learning rate leaves the model as the resumed checkpoint had it
    totals = [r[2] for r in read_metrics(log) if r[1] == "train"]
    assert len(totals) == 3 and len(set(totals)) == 1
    _, extra, _ = md.load_checkpoint(resumed)
    assert extra["lr"] == "0.0" and extra["epoch"] == "4"


@pytest.mark.parametrize("line, message", [
    ("hidden=8", "key 'hidden' is given twice"),
    ("hidden", "line 'hidden' is not key=value"),
])
def test_key_value_lines_are_strict(tmp_path, capsys, line, message):
    # in an FRMD config block ...
    code, err = eval_untrained_checkpoint(
        tmp_path, capsys,
        lambda blob: with_config_entry(blob, "action_dim", f"0\n{line}"))
    assert code == 2 and message in err
    # ... and in a --config file
    data = tmp_path / "data.fseq"        # written by the call above
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"hidden=8\n{line}\n")
    out = tmp_path / "cfg.frmd"
    code, _, err = run(train_args(data, out, epochs=0)
                       + ["--config", str(cfg)], capsys)
    assert code == 2 and message in one_error_line(err)
    assert not out.exists()


def test_train_rejects_options_the_model_would_ignore(tmp_path, capsys):
    data = gen_small(tmp_path)
    out = tmp_path / "m.frmd"
    for text, extra, name in (
            (None, ["--flow", "off", "--flow-depth", "2"], "flow_depth"),
            ("flow_depth=2", ["--flow", "off"], "flow_depth"),
            (None, ["--c-width", "2.0"], "c_width"),
            ("c_width=0.5", ["--structure", "tied"], "c_width")):
        argv = train_args(data, out, epochs=0) + extra
        if text:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(text + "\n")
            argv += ["--config", str(cfg)]
        code, _, err = run(argv, capsys)
        assert code == 2, (text, extra)
        assert name in one_error_line(err), (text, extra)
        assert not out.exists()

    argv = train_args(data, out, epochs=0, structure="logistic", c_width=0.5)
    assert main(argv) == 0
    model, _, _ = md.load_checkpoint(out)
    assert model.config.c_width == 0.5


def test_non_finite_data_exit_2(tmp_path, capsys):
    data = gen_small(tmp_path)
    ckpt = tmp_path / "m.frmd"
    assert main(train_args(data, ckpt, epochs=1)) == 0
    batch = ds.load_fseq(data)
    for bad in (np.nan, np.inf):
        obs = batch.observations.copy()
        obs[3, 10, 1] = bad
        poisoned = tmp_path / "bad.fseq"
        ds.save_fseq(poisoned, ds.SequenceBatch(obs))
        capsys.readouterr()
        for argv in (train_args(poisoned, tmp_path / "x.frmd", epochs=1),
                     ["eval", "--ckpt", str(ckpt), "--data", str(poisoned)]):
            code, _, err = run(argv, capsys)
            assert code == 2, argv[0]
            lines = err.strip().splitlines()
            assert len(lines) == 1 and "non-finite value in FSEQ file" in lines[0]


def test_non_finite_checkpoint_exit_2(tmp_path, capsys):
    data = gen_small(tmp_path)
    ckpt = tmp_path / "m.frmd"
    assert main(train_args(data, ckpt, epochs=1)) == 0
    for name, bad in (("lstm.w", np.nan), ("head.b", np.inf)):
        model, extra, _ = md.load_checkpoint(ckpt)
        dict(model.parameters())[name].value.ravel()[3] = bad
        poisoned = tmp_path / "bad.frmd"
        md.save_checkpoint(poisoned, model, extra=extra)
        capsys.readouterr()
        code, _, err = run(["eval", "--ckpt", str(poisoned), "--data",
                            str(data)], capsys)
        assert code == 2, name
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert f"non-finite value in FRMD checkpoint: array '{name}'" in lines[0]


def one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def test_train_rejects_settings_that_do_nothing(tmp_path, capsys):
    data = gen_small(tmp_path)
    out = tmp_path / "m.frmd"
    for flag, value, name in (("batch", -4, "batch_size"),
                              ("batch", 0, "batch_size"),
                              ("epochs", -3, "epochs"),
                              ("lr", -0.1, "lr")):
        argv = train_args(data, out, **{flag: value})
        code, _, err = run(argv, capsys)
        assert code == 2, (flag, value)
        assert name in one_error_line(err)
    for value in ("nan", "inf"):
        argv = train_args(data, out, structure="logistic", c_width=value)
        code, _, err = run(argv, capsys)
        assert code == 2, value
        assert "c_width" in one_error_line(err)
    assert not out.exists()


def test_sample_and_dream_reject_empty_runs(tmp_path, capsys):
    data = gen_small(tmp_path)
    ckpt = tmp_path / "m.frmd"
    assert main(train_args(data, ckpt, epochs=0)) == 0
    capsys.readouterr()
    out = tmp_path / "rollouts.csv"
    code, _, err = run(["sample", "--ckpt", str(ckpt), "--n", "0",
                        "--out", str(out)], capsys)
    assert code == 2 and "--n" in one_error_line(err)
    assert not out.exists()

    code, _, err = run(["dream", "--generations", "0", "--hidden", "4",
                        "--horizon", "4", "--train-epochs", "0"], capsys)
    assert code == 2 and "generations" in one_error_line(err)


def eval_untrained_checkpoint(tmp_path, capsys, corrupt):
    """`frmdn eval` of an epoch-0 checkpoint whose bytes went through
    `corrupt`; returns the exit code and the one error line."""
    data = gen_small(tmp_path)
    ckpt = tmp_path / "m.frmd"
    assert main(train_args(data, ckpt, epochs=0)) == 0
    bad = tmp_path / "bad.frmd"
    bad.write_bytes(corrupt(ckpt.read_bytes()))
    code, _, err = run(["eval", "--ckpt", str(bad), "--data", str(data)],
                       capsys)
    return code, one_error_line(err)


def test_checkpoint_config_missing_key_exit_2(tmp_path, capsys):
    code, err = eval_untrained_checkpoint(
        tmp_path, capsys,
        lambda blob: blob.replace(b"action_dim=", b"action_xxx=", 1))
    assert code == 2 and "missing 'action_dim'" in err


@pytest.mark.parametrize("key, value", [
    ("s_clamp", "nan"), ("s_clamp", "0.0"), ("c_width", "nan"),
    ("c_width", "inf"), ("flow_hidden", "0"),
])
def test_checkpoint_config_values_are_checked(tmp_path, capsys, key, value):
    code, err = eval_untrained_checkpoint(
        tmp_path, capsys, lambda blob: with_config_entry(blob, key, value))
    assert code == 2 and key in err


def test_checkpoint_shape_past_end_of_file_exit_2(tmp_path, capsys):
    def huge_first_shape(blob):
        (config_len,) = struct.unpack("<I", blob[8:12])
        at = 12 + config_len + 4
        (name_len,) = struct.unpack("<H", blob[at:at + 2])
        at += 2 + name_len + 1
        return blob[:at] + struct.pack("<Q", 2**62) + blob[at + 8:]

    code, err = eval_untrained_checkpoint(tmp_path, capsys, huge_first_shape)
    assert code == 2 and "truncated FRMD checkpoint" in err


def with_config_entry(blob, key, value):
    """The FRMD bytes `blob` with `key=value` in the config block, whose
    length prefix is rewritten to match."""
    (config_len,) = struct.unpack("<I", blob[8:12])
    lines = blob[12:12 + config_len].decode().splitlines()
    block = "".join(f"{key}={value}\n" if line.startswith(f"{key}=")
                    else f"{line}\n" for line in lines).encode()
    return (blob[:8] + struct.pack("<I", len(block)) + block
            + blob[12 + config_len:])


@pytest.mark.parametrize("hidden", [1000000, 10000])
def test_checkpoint_sizes_are_checked_before_allocating(tmp_path, capsys,
                                                        hidden):
    # the arrays hold a hidden=8 model; a config claiming more must fail on
    # the first array shape, before the model is built at the claimed size
    data = gen_small(tmp_path)
    ckpt = tmp_path / "m.frmd"
    assert main(train_args(data, ckpt, epochs=0)) == 0
    bad = tmp_path / "bad.frmd"
    bad.write_bytes(with_config_entry(ckpt.read_bytes(), "hidden", hidden))
    capsys.readouterr()
    tracemalloc.start()
    try:
        code, _, err = run(["eval", "--ckpt", str(bad), "--data", str(data)],
                           capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    line = one_error_line(err)
    assert "'lstm.w' has shape (11, 32)" in line
    assert f"expected ({hidden + 3}, {4 * hidden})" in line
    assert peak < 8 * 2**20, peak


class StoredOptimizer:
    """Hands `save_checkpoint` a fixed set of optimizer arrays."""

    name = "adam"

    def __init__(self, arrays):
        self.arrays = arrays

    def state_arrays(self):
        return self.arrays


def test_checkpoint_optimizer_arrays_are_checked(tmp_path, capsys):
    data = gen_small(tmp_path)
    ckpt = tmp_path / "m.frmd"
    assert main(train_args(data, ckpt, epochs=1, optimizer="adam")) == 0
    model, extra, opt_arrays = md.load_checkpoint(ckpt)
    assert "opt.m.lstm.w" in opt_arrays and "opt.v.head.b" in opt_arrays
    bad = tmp_path / "bad.frmd"
    for name, arr, msg in (
            ("opt.m.lstm.w", np.zeros((3, 3)), "'opt.m.lstm.w' has shape (3, 3)"),
            ("opt.step", np.zeros(2), "'opt.step' has shape (2,)"),
            ("opt.m.lstm.x", np.zeros(3), "unexpected array 'opt.m.lstm.x'"),
            ("opt.sq.lstm.w", opt_arrays["opt.m.lstm.w"],
             "unexpected array 'opt.sq.lstm.w'"),
            ("stray", np.zeros(3), "unexpected array 'stray'")):
        stored = StoredOptimizer(dict(opt_arrays, **{name: arr}))
        md.save_checkpoint(bad, model, optimizer=stored, extra=extra)
        capsys.readouterr()
        argv = train_args(data, tmp_path / "out.frmd", epochs=1)
        code, _, err = run(argv + ["--resume", str(bad)], capsys)
        assert code == 2, name
        assert msg in one_error_line(err), name
    assert not (tmp_path / "out.frmd").exists()


def test_checkpoint_optimizer_state_must_be_complete(tmp_path, capsys):
    data = gen_small(tmp_path)
    ckpt = tmp_path / "m.frmd"
    assert main(train_args(data, ckpt, epochs=1, optimizer="adam")) == 0
    model, extra, opt_arrays = md.load_checkpoint(ckpt)
    bad = tmp_path / "bad.frmd"
    out = tmp_path / "out.frmd"
    for name in ("opt.step", "opt.m.lstm.w"):
        kept = {n: a for n, a in opt_arrays.items() if n != name}
        md.save_checkpoint(bad, model, optimizer=StoredOptimizer(kept),
                           extra=extra)
        capsys.readouterr()
        argv = train_args(data, out, epochs=1) + ["--resume", str(bad)]
        code, _, err = run(argv, capsys)
        assert code == 2, name
        assert f"missing array {name!r}" in one_error_line(err), name
    assert not out.exists()
    # a fresh optimizer has stored no moments yet, and resumes
    for optimizer in ("rmsprop", "adam"):
        fresh = tmp_path / f"{optimizer}.frmd"
        assert main(train_args(data, fresh, epochs=0, optimizer=optimizer)) == 0
        argv = train_args(data, out, epochs=1) + ["--resume", str(fresh)]
        assert main(argv) == 0, optimizer


def test_checkpoint_unknown_optimizer_exits_2(tmp_path, capsys):
    data = gen_small(tmp_path)
    ckpt = tmp_path / "m.frmd"
    assert main(train_args(data, ckpt, epochs=0)) == 0
    model, _, _ = md.load_checkpoint(ckpt)
    md.save_checkpoint(ckpt, model, extra={"optimizer": "sgd"})
    capsys.readouterr()
    code, _, err = run(["eval", "--ckpt", str(ckpt), "--data", str(data)],
                       capsys)
    assert code == 2
    assert "unknown optimizer 'sgd'" in one_error_line(err)


def test_dream_checks_its_counts_before_training(monkeypatch, capsys):
    from frmdn import control as ct

    def no_training(**kwargs):
        raise AssertionError("build_dream_task called")

    monkeypatch.setattr(ct, "build_dream_task", no_training)
    base = ["dream", "--hidden", "4", "--horizon", "4", "--train-epochs", "0"]
    for flag, value in (("--generations", "0"), ("--popsize", "1"),
                        ("--episodes", "0"), ("--horizon", "0"),
                        ("--hidden", "0"), ("--sigma", "0"),
                        ("--sigma", "-0.5"), ("--sigma", "nan"),
                        ("--sigma", "inf"), ("--train-epochs", "-1")):
        code, _, err = run(base + [flag, value], capsys)
        assert code == 2, (flag, value)
        assert flag in one_error_line(err), (flag, value)


def test_dream_draws_a_seed_per_episode(capsys):
    code, _, _ = run(["dream", "--episodes", "65", "--generations", "1",
                      "--popsize", "2", "--hidden", "4", "--horizon", "4",
                      "--train-epochs", "0"], capsys)
    assert code == 0
