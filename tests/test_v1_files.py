"""Version-1 FSEQ and FRMD files written by an earlier release of this
code: a control dataset (d=2, d_action=1, Q=2, T=8) and a tied-head
checkpoint (K=2, H=4, flow depth 1, flow_hidden 4) trained on it for three
epochs with Adam, with the entries `frmdn train` writes.  Today's readers
must load them, re-save them byte for byte and evaluate the checkpoint to
the value recorded when it was written."""

from pathlib import Path

from frmdn import datasets as ds
from frmdn import model as md

DATA = Path(__file__).parent / "data"
FSEQ = DATA / "control_v1.fseq"
FRMD = DATA / "tied_adam_v1.frmd"


def test_v1_fseq_resaves_byte_identically(tmp_path):
    batch = ds.load_fseq(FSEQ)
    assert (batch.q, batch.t, batch.dim, batch.action_dim) == (2, 8, 2, 1)
    out = tmp_path / "resaved.fseq"
    ds.save_fseq(out, batch)
    assert out.read_bytes() == FSEQ.read_bytes()


def test_v1_frmd_resaves_byte_identically_and_evaluates(tmp_path):
    model, extra, opt_arrays = md.load_checkpoint(FRMD)
    assert model.config == md.ModelConfig(
        dim=2, action_dim=1, components=2, hidden=4, flow_depth=1,
        head_structure="tied", flow_hidden=4)
    assert extra == {"epoch": "3", "lr": "0.01", "seed": "7", "window": "8",
                     "batch": "2", "optimizer": "adam"}
    optimizer = md.make_optimizer(extra["optimizer"], float(extra["lr"]))
    optimizer.load_state_arrays(opt_arrays)
    assert optimizer.step == 3
    out = tmp_path / "resaved.frmd"
    md.save_checkpoint(out, model, optimizer=optimizer, extra=extra)
    assert out.read_bytes() == FRMD.read_bytes()

    rec = md.evaluate(model, ds.load_fseq(FSEQ))
    assert (rec.total, rec.mixture, rec.logdet) == (
        1.5267339754674993, 1.8698188717648372, -0.3430848962973378)
