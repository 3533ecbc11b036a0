"""Version-1 FSEQ and FRMD files written by an earlier release of this
code: a control dataset (d=2, d_action=1, Q=2, T=8) and a tied-head
checkpoint (K=2, H=4, flow depth 1, flow_hidden 4) trained on it for three
epochs with Adam, with the entries `frmdn train` writes.  Today's readers
must load them, re-save them byte for byte and evaluate the checkpoint to
the value recorded when it was written, and generation from the checkpoint
must reproduce the draws recorded for it."""

from pathlib import Path

import numpy as np

from frmdn import control as ct
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


# an 8-step `md.rollout` from zeros under the fixed action 0.5 with
# default_rng(0), and a fixed controller's dreamed reward with
# default_rng(0), recorded from the checkpoint
ROLLOUT = [
    [0.0, 0.0],
    [-0.12441074856328141, 0.47394550010038006],
    [-0.42534154528350554, 0.22152042295361554],
    [0.5010879137071977, -0.6038453278255346],
    [-0.555330038165909, -0.02756067002485309],
    [-0.1869113153288383, -0.9762659162405474],
    [-0.3713012982458668, -0.2601411984429372],
    [0.8619910799738741, -0.07133112864664021],
    [-0.6118463704729212, 0.19923170135174692],
]
DREAM_REWARD = -6.043072558842791


def test_v1_frmd_generation_reproduces_recorded_draws():
    model, _, _ = md.load_checkpoint(FRMD)
    out = md.rollout(model, np.zeros(2), lambda t: np.array([0.5]), 8,
                     np.random.default_rng(0))
    assert out.observations[0].tolist() == ROLLOUT

    env = ct.DreamEnv(model, ct.tracking_reward(np.array([0.3, -0.2])),
                      horizon=8)
    ctrl = ct.LinearController(np.linspace(-0.5, 0.5, 6).reshape(1, 6),
                               np.array([0.1]))
    assert ct.dream_rollout(env, ctrl, np.random.default_rng(0)) == DREAM_REWARD
