"""The golden run: one fixed script of `frmdn` commands at small sizes,
and the manifest of what it writes, for the byte-reproducibility
guarantee (byte-identical CLI outputs and bit-identical resume).

`record()` runs every command of SCRIPT through `cli.main` in the current
directory and returns each command's exit code and stdout lines, the
SHA-256 of every file the script writes, and the numpy and BLAS versions,
since the digests depend on both.  tests/test_golden_run.py compares it
with golden_run.json.  A change that moves bits on purpose re-records the
manifest from the repository root with

    PYTHONPATH=src python tests/data/golden_run.py

which prints the commands and files that moved against the manifest it
replaces, and says which moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).with_name("golden_run.json")

GEN = ["--q", "6", "--t", "24", "--d", "2"]
TRAIN = ["--k", "2", "--hidden", "8", "--lr", "0.01", "--batch", "4",
         "--window", "8", "--seed", "3"]
AR = ["--data", "ar.fseq", "--test-data", "ar_test.fseq"]

SCRIPT = (
    ["gen", "--kind", "ar", *GEN, "--seed", "1", "--out", "ar.fseq",
     "--csv", "ar.csv"],
    ["gen", "--kind", "ar", "--q", "3", "--t", "24", "--d", "2", "--seed", "2",
     "--out", "ar_test.fseq"],
    ["gen", "--kind", "modes", *GEN, "--seed", "1", "--out", "modes.fseq",
     "--csv", "modes.csv"],
    ["gen", "--kind", "control", *GEN, "--seed", "1", "--out", "control.fseq",
     "--csv", "control_data.csv"],
    # each head, the flow on and off, RMSProp and Adam, an action model
    # and the acceptance config's hidden size, 128
    ["train", *AR, *TRAIN, "--epochs", "2", "--out", "diagonal.frmd",
     "--log", "diagonal.csv"],
    ["train", *AR, *TRAIN, "--epochs", "1", "--flow", "off", "--hidden", "128",
     "--out", "diagonal_noflow.frmd", "--log", "diagonal_noflow.csv"],
    ["train", *AR, *TRAIN, "--epochs", "1", "--structure", "tied",
     "--flow-depth", "2", "--optimizer", "adam", "--out", "tied.frmd",
     "--log", "tied.csv"],
    ["train", "--data", "modes.fseq", *TRAIN, "--epochs", "1",
     "--structure", "logistic", "--flow", "off", "--out", "logistic.frmd",
     "--log", "logistic.csv"],
    ["train", "--data", "control.fseq", *TRAIN, "--epochs", "1",
     "--optimizer", "adam", "--out", "control.frmd", "--log", "control.csv"],
    # 1 + 1 epochs, next to diagonal.frmd's 2
    ["train", *AR, *TRAIN, "--epochs", "1", "--out", "resume_1.frmd"],
    ["train", *AR, "--resume", "resume_1.frmd", "--epochs", "1",
     "--out", "resume_2.frmd", "--log", "resume_2.csv"],
    ["eval", "--ckpt", "diagonal.frmd", "--data", "ar_test.fseq",
     "--window", "8"],
    ["eval", "--ckpt", "diagonal_noflow.frmd", "--data", "ar_test.fseq",
     "--window", "8"],
    ["eval", "--ckpt", "tied.frmd", "--data", "ar_test.fseq", "--window", "8"],
    ["eval", "--ckpt", "control.frmd", "--data", "control.fseq",
     "--window", "12"],
    ["sample", "--ckpt", "diagonal.frmd", "--steps", "12", "--n", "2",
     "--seed", "4", "--out", "diagonal_sample.csv"],
    ["sample", "--ckpt", "tied.frmd", "--steps", "12", "--seed", "4",
     "--out", "tied_sample.csv"],
    ["sample", "--ckpt", "logistic.frmd", "--steps", "12", "--seed", "4",
     "--out", "logistic_sample.csv"],
    ["sample", "--ckpt", "control.frmd", "--steps", "12", "--seed", "4",
     "--out", "control_sample.csv"],
    ["dream", "--popsize", "4", "--generations", "2", "--hidden", "4",
     "--horizon", "8", "--episodes", "1", "--train-epochs", "1",
     "--log", "dream.csv"],
    ["gradcheck", "--d", "2", "--k", "2", "--h", "4", "--t", "3"],
)


def versions():
    """The numpy version and the BLAS build numpy runs on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def record():
    """Run SCRIPT in the current directory, which should be empty, and
    return the manifest: versions, per command its argv, exit code and
    stdout lines, and per written file its SHA-256.  A command that
    rewrites a file an earlier command wrote raises RuntimeError, since
    the manifest would only see the last version."""
    from frmdn.cli import main

    commands, written = [], {}
    for argv in SCRIPT:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        commands.append({"argv": argv, "exit": code,
                         "stdout": out.getvalue().splitlines()})
        for path in Path.cwd().iterdir():
            stat = path.stat()
            mark = (stat.st_ino, stat.st_mtime_ns)
            if written.setdefault(path.name, mark) != mark:
                raise RuntimeError(f"`{' '.join(argv)}` rewrites {path.name}, "
                                   "which an earlier command wrote")
    files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(Path.cwd().iterdir())}
    return dict(versions(), commands=commands, files=files)


def moved(got, want):
    """What differs between two manifests: the commands, as their argv
    lines, whose exit code or stdout moved, and the sorted names of the
    files whose digest moved or that only one manifest has."""
    commands = [" ".join(c["argv"]) for c, w in
                zip(got["commands"], want["commands"]) if c != w]
    if len(got["commands"]) != len(want["commands"]):
        commands.append(f"{len(got['commands'])} commands against "
                        f"{len(want['commands'])}")
    files = sorted(name for name in got["files"].keys() | want["files"].keys()
                   if got["files"].get(name) != want["files"].get(name))
    return commands, files


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        home = os.getcwd()
        os.chdir(work)
        try:
            manifest = record()
        finally:
            os.chdir(home)
    if MANIFEST.exists():
        commands, files = moved(manifest, json.loads(MANIFEST.read_text()))
        print(f"moved commands: {commands}\nmoved files: {files}",
              file=sys.stderr)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {MANIFEST}: {len(manifest['commands'])} commands, "
          f"{len(manifest['files'])} files", file=sys.stderr)
