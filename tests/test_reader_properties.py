"""Property tests for the FSEQ and FRMD readers, run through `frmdn eval`
and, for a checkpoint that also carries Adam's optimizer arrays, through
`frmdn train --resume`.

A file cut at any length must fail with exit 2 and exactly one `error:`
line.  Overwriting any header bytes must never escape as a traceback: the
command exits 0, 1 or 2, and a failing exit writes exactly one `error:` or
`runtime error:` line to stderr.
"""

import contextlib
import io
import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frmdn import datasets as ds
from frmdn import model as md
from frmdn.cli import main

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    data = root / "data.fseq"
    ds.save_fseq(data, ds.gen_correlated_ar(4, 32, 3, rho=0.8, corr=0.4,
                                            seed=1))
    ckpt = root / "m.frmd"
    config = md.ModelConfig(dim=3, components=2, hidden=4, flow_depth=1,
                            flow_hidden=4)
    md.save_checkpoint(ckpt, md.build_model(config, seed=2),
                       optimizer=md.make_optimizer("adam", 1e-3),
                       extra={"epoch": "0"})
    # one Adam step, so the checkpoint holds a step count and both moments
    resume = root / "resume.frmd"
    model = md.build_model(config, seed=3)
    opt = md.make_optimizer("adam", 1e-3)
    md.train_step(model, ds.load_fseq(data), opt)
    md.save_checkpoint(resume, model, optimizer=opt, extra={"epoch": "1"})
    return {"data": data, "ckpt": ckpt, "resume": resume, "bad": root / "bad",
            "out": root / "out.frmd"}


def run_cli(files, which, blob):
    """The command that reads the `which` file, with that file replaced by
    `blob`: `frmdn eval` for data and ckpt, one epoch of `frmdn train
    --resume` for resume."""
    files["bad"].write_bytes(blob)
    paths = {"ckpt": files["ckpt"], "data": files["data"],
             "resume": files["resume"], which: files["bad"]}
    if which == "resume":
        argv = ["train", "--data", str(paths["data"]), "--out",
                str(files["out"]), "--resume", str(paths["resume"]),
                "--epochs", "1", "--batch", "4", "--window", "16"]
    else:
        argv = ["eval", "--ckpt", str(paths["ckpt"]),
                "--data", str(paths["data"]), "--window", "16"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def header_offsets(which, blob):
    """Offsets of every byte that is not float64 data.  FSEQ: magic and the
    five u32 fields.  FRMD: the fixed fields, the config block, the array
    count and each array's name, rank and shape."""
    if which == "data":
        return list(range(24))
    (config_len,) = struct.unpack("<I", blob[8:12])
    at = 12 + config_len + 4
    offsets = list(range(at))
    for _ in range(struct.unpack("<I", blob[at - 4:at])[0]):
        (name_len,) = struct.unpack("<H", blob[at:at + 2])
        rank = blob[at + 2 + name_len]
        shape = struct.unpack(f"<{rank}Q", blob[at + 3 + name_len:
                                                 at + 3 + name_len + 8 * rank])
        end = at + 3 + name_len + 8 * rank
        offsets.extend(range(at, end))
        at = end + 8 * math.prod(shape)
    assert at == len(blob)
    return offsets


def test_intact_files_evaluate(files):
    assert run_cli(files, "data", files["data"].read_bytes()) == (0, [])
    assert run_cli(files, "resume", files["resume"].read_bytes()) == (0, [])


@pytest.mark.parametrize("which", ["data", "ckpt", "resume"])
@PROPERTY
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_file_exits_2_with_one_error(files, which, cut):
    blob = files[which].read_bytes()
    code, err = run_cli(files, which, blob[:int(cut * len(blob))])
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("which", ["data", "ckpt", "resume"])
@PROPERTY
@given(edits=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                st.integers(0, 255)),
                      min_size=1, max_size=3))
def test_corrupt_header_never_escapes(files, which, edits):
    blob = bytearray(files[which].read_bytes())
    offsets = header_offsets(which, blob)
    for where, byte in edits:
        blob[offsets[int(where * len(offsets))]] = byte
    code, err = run_cli(files, which, bytes(blob))
    assert code in (0, 1, 2)
    if code:
        assert len(err) == 1, err
        assert err[0].startswith(("error: ", "runtime error: ")), err
    else:
        assert len(err) <= 1, err
