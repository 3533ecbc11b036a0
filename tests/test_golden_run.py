"""The golden run (tests/data/golden_run.py) against its committed
manifest: every command's exit code and stdout lines and every written
file's SHA-256 must match, so a change that moves bits by accident fails
here.  The digests depend on numpy and the BLAS build, which a failure
names."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent / "data" / "golden_run.py"
_spec = importlib.util.spec_from_file_location("golden_run", SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_golden_run_matches_the_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = golden.record()
    want = json.loads(golden.MANIFEST.read_text())
    where = (f"manifest recorded with numpy {want['numpy']}, {want['blas']}; "
             f"this run has numpy {got['numpy']}, {got['blas']}")
    commands, files = golden.moved(got, want)
    assert not (commands or files), (f"{where}; moved commands: {commands}; "
                                     f"moved files: {files}")
    # a 1 + 1 epoch resume writes the 2-epoch run's checkpoint
    assert got["files"]["resume_2.frmd"] == got["files"]["diagonal.frmd"]


def test_record_rejects_a_command_that_rewrites_an_earlier_output(
        tmp_path, monkeypatch):
    # otherwise the manifest would hold only the later version of the file
    monkeypatch.chdir(tmp_path)
    gen = ["gen", "--kind", "ar", *golden.GEN, "--seed", "1"]
    monkeypatch.setattr(golden, "SCRIPT", (
        [*gen, "--out", "a.fseq", "--csv", "a.csv"],
        [*gen, "--out", "b.fseq", "--csv", "a.csv"],
    ))
    with pytest.raises(RuntimeError, match="rewrites a.csv"):
        golden.record()
