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
