import ctypes
import importlib
import math
import platform
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import frmdn
from frmdn import datasets as ds
from frmdn import diffcore as dc
from frmdn import model as md


def tiny_config(**kw):
    base = dict(dim=2, components=2, hidden=6, flow_depth=1,
                flow_hidden=8, head_structure="diagonal", flow_enabled=True)
    base.update(kw)
    return md.ModelConfig(**base)


def randomize_model_flow(model, rng, weight_scale=0.1):
    for layer in model.flow.layers:
        for node in (layer.w2s, layer.b2s, layer.w2t, layer.b2t):
            node.value = rng.normal(size=node.value.shape) * weight_scale
    return model


def script_nll(model, obs):
    """Straight-line recomputation of the loss, sharing no code with the
    graph path: explicit gate algebra, explicit coupling transform, and the
    mixture density summed in linear space."""
    cfg = model.config
    w, b = model.lstm.w.value, model.lstm.b.value
    H = cfg.hidden
    q, t, d = obs.shape
    total = 0.0
    for s in range(q):
        h = np.zeros(H)
        c = np.zeros(H)
        for step in range(t - 1):
            pre = np.concatenate([obs[s, step], h]) @ w + b
            i = 1 / (1 + np.exp(-pre[:H]))
            f = 1 / (1 + np.exp(-pre[H:2 * H]))
            g = np.tanh(pre[2 * H:3 * H])
            o = 1 / (1 + np.exp(-pre[3 * H:]))
            c = f * c + i * g
            h = o * np.tanh(c)

            target = obs[s, step + 1].copy()
            logdet = 0.0
            for layer in model.flow.layers:
                xp = target[layer.pass_idx]
                hs = np.tanh(xp @ layer.w1s.value + layer.b1s.value)
                s_hat = layer.s_clamp * np.tanh(hs @ layer.w2s.value
                                                + layer.b2s.value)
                ht = np.tanh(xp @ layer.w1t.value + layer.b1t.value)
                tt = ht @ layer.w2t.value + layer.b2t.value
                target[layer.trans_idx] = (
                    target[layer.trans_idx] * np.exp(s_hat) + tt
                )
                logdet += s_hat.sum()

            out = h @ model.head.w.value + model.head.b.value
            k = cfg.components
            za = out[:k]
            alpha = np.exp(za - za.max())
            alpha /= alpha.sum()
            mu = out[k:k + k * d].reshape(k, d)
            sig = np.exp(np.clip(out[k + k * d:], -60, 60)).reshape(k, d)
            dens = 0.0
            for ki in range(k):
                quad = (((target - mu[ki]) / sig[ki]) ** 2).sum()
                norm = (2 * math.pi) ** (d / 2) * sig[ki].prod()
                dens += alpha[ki] * math.exp(-0.5 * quad) / norm
            total += -math.log(dens) - logdet
    return total / (q * (t - 1))


def test_perfect_prediction_reaches_analytic_floor():
    # constant data, mean head pinned to the constant, unit scales
    cfg = tiny_config(dim=3, components=1, flow_enabled=False)
    model = md.build_model(cfg, seed=0)
    model.head.w.value[:] = 0.0
    model.head.b.value[:] = 0.0
    model.head.b.value[1:4] = 2.5        # mu block
    obs = np.full((4, 6, 3), 2.5)
    rec = md.sequence_nll(model, ds.SequenceBatch(obs))
    assert rec.total == pytest.approx(1.5 * math.log(2 * math.pi), abs=1e-12)
    assert rec.logdet == 0.0


def test_identity_flow_matches_plain_rmdn():
    rng = np.random.default_rng(0)
    obs = rng.normal(size=(3, 8, 4))
    with_flow = md.build_model(tiny_config(dim=4, flow_enabled=True), seed=7)
    without = md.build_model(tiny_config(dim=4, flow_enabled=False), seed=7)
    a = md.sequence_nll(with_flow, ds.SequenceBatch(obs))
    b = md.sequence_nll(without, ds.SequenceBatch(obs))
    assert a.total == pytest.approx(b.total, abs=1e-12)
    assert a.logdet == 0.0


def test_nll_matches_straight_line_recomputation():
    rng = np.random.default_rng(1)
    model = md.build_model(tiny_config(), seed=3)
    randomize_model_flow(model, rng)
    obs = rng.normal(size=(1, 3, 2))
    rec = md.sequence_nll(model, ds.SequenceBatch(obs))
    assert rec.total == pytest.approx(script_nll(model, obs), abs=1e-10)


def test_nll_matches_recomputation_across_structures():
    rng = np.random.default_rng(2)
    obs = rng.normal(size=(2, 5, 2))
    model = md.build_model(tiny_config(flow_enabled=False), seed=4)
    rec = md.sequence_nll(model, ds.SequenceBatch(obs))
    assert rec.total == pytest.approx(script_nll(model, obs), abs=1e-10)


@pytest.mark.parametrize("structure", ["diagonal", "tied", "logistic"])
def test_nll_agrees_with_numeric_density_route(structure):
    # graph loss vs the sampling-side numeric route: head_project plus the
    # per-point density functions, stepping the backbone one step at a time
    from frmdn import flow as fl
    from frmdn import mixtures as mx
    from frmdn import recurrent as rc

    rng = np.random.default_rng(7)
    model = md.build_model(tiny_config(dim=3, head_structure=structure),
                           seed=8)
    randomize_model_flow(model, rng)
    if model.head.u is not None:
        model.head.u.value = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
    obs = rng.normal(size=(2, 6, 3))
    rec = md.sequence_nll(model, ds.SequenceBatch(obs))

    shared = mx.SharedMatrix(model.head.u.value) if structure == "tied" else None
    total = 0.0
    for s in range(obs.shape[0]):
        state = rc.initial_state(1, model.config.hidden)
        for t in range(obs.shape[1] - 1):
            state = rc.cell_step(obs[s, t][None], state, model.lstm)
            params = mx.MixtureParams(*rc.head_project(state[0][0], model.head),
                                      structure)
            z, logdet = fl.flow_forward(obs[s, t + 1][None], model.flow)
            point = z.value[0]
            if structure == "diagonal":
                log_p = mx.diag_gmm_log_density(point, params)
            elif structure == "tied":
                log_p = mx.tied_gmm_log_density(point, params, shared)
            else:
                log_p = mx.logistic_mixture_log_density(
                    point, params, model.config.c_width)
            total += -log_p - float(logdet.value[0])
    total /= obs.shape[0] * (obs.shape[1] - 1)
    assert rec.total == pytest.approx(total, abs=1e-10)


def test_decomposition_is_exact():
    rng = np.random.default_rng(3)
    model = md.build_model(tiny_config(), seed=5)
    randomize_model_flow(model, rng)
    obs = rng.normal(size=(4, 6, 2))
    rec = md.sequence_nll(model, ds.SequenceBatch(obs))
    assert rec.total == rec.mixture + rec.logdet
    assert rec.logdet != 0.0


def test_sequence_nll_rejects_short_sequences():
    model = md.build_model(tiny_config(), seed=0)
    with pytest.raises(ValueError, match="T >= 2"):
        md.sequence_nll(model, ds.SequenceBatch(np.zeros((2, 1, 2))))


def test_sequence_nll_rejects_non_finite():
    model = md.build_model(tiny_config(flow_enabled=False), seed=0)
    obs = np.zeros((1, 3, 2))
    obs[0, 1, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(md.NumericsError):
            md.sequence_nll(model, ds.SequenceBatch(obs))


def test_sequence_nll_requires_actions_when_configured():
    model = md.build_model(tiny_config(action_dim=2), seed=0)
    with pytest.raises(ValueError, match="action"):
        md.sequence_nll(model, ds.SequenceBatch(np.zeros((1, 4, 2))))


@pytest.mark.parametrize("model_actions, batch_actions", [(0, 2), (2, 3)])
def test_both_loss_paths_reject_an_action_stream_the_model_does_not_take(
        model_actions, batch_actions):
    model = md.build_model(tiny_config(action_dim=model_actions), seed=0)
    batch = ds.SequenceBatch(np.zeros((1, 4, 2)),
                             np.zeros((1, 4, batch_actions)))
    want = f"has {batch_actions} action values per step"
    with pytest.raises(ValueError, match=want):
        md.sequence_nll(model, batch)
    with pytest.raises(ValueError, match=want):
        md._nll_graph(model, batch.observations, batch.actions)


def _same_bits(a, b):
    return np.array(a).tobytes() == np.array(b).tobytes()


@pytest.mark.parametrize("structure", ["diagonal", "tied", "logistic"])
@pytest.mark.parametrize("flow", [False, True], ids=["flow-off", "flow-on"])
@pytest.mark.parametrize("action_dim", [0, 2])
def test_plain_forward_equals_the_graph_bit_for_bit(structure, flow,
                                                    action_dim):
    # sequence_nll runs the forward on plain arrays; each of its terms must
    # equal the loss graph's, sign of zero included
    rng = np.random.default_rng(40)
    for hidden in (1, 4, 16, 128):
        cfg = tiny_config(dim=3, components=3, hidden=hidden,
                          head_structure=structure, flow_enabled=flow,
                          action_dim=action_dim)
        model = md.build_model(cfg, seed=hidden)
        for _, node in model.parameters():
            node.value = node.value + 0.3 * rng.normal(size=node.value.shape)
        for q, t in ((1, 2), (2, 5), (66, 32)):
            obs = rng.normal(size=(q, t, 3))
            acts = rng.normal(size=(q, t, action_dim)) if action_dim else None
            graph = [float(node.value)
                     for node in md._nll_graph(model, obs, acts)]
            rec = md.sequence_nll(model, ds.SequenceBatch(obs, acts))
            assert _same_bits([rec.total, rec.mixture, rec.logdet], graph), \
                (hidden, q, t)


# ---------------------------------------------------------------------------
# blocked evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, window, block_rows, action_dim", [
    (7, 5, 16, 0),       # 21 windows in blocks of 4: a partial last block
    (2, 5, 200, 0),      # 6 windows, fewer than one block of 50
    (5, 6, 10, 2),       # 10 windows with actions joined, blocks of 2
    (5, None, 30, 0),    # 5 whole sequences in blocks of 2
])
def test_evaluate_matches_one_graph_over_all_windows(monkeypatch, q, window,
                                                     block_rows, action_dim):
    rng = np.random.default_rng(30)
    model = md.build_model(tiny_config(action_dim=action_dim), seed=31)
    randomize_model_flow(model, rng)
    obs = rng.normal(size=(q, 16, 2))
    acts = rng.normal(size=(q, 16, action_dim)) if action_dim else None
    batch = ds.SequenceBatch(obs, acts)
    if window is None:
        whole = batch
    else:
        whole = ds.SequenceBatch(*ds.slice_windows(batch, window))
    one = md.sequence_nll(model, whole)

    monkeypatch.setattr(md, "EVAL_ROWS", block_rows)
    blocked = md.evaluate(model, batch, window)
    for a, b in ((blocked.total, one.total), (blocked.mixture, one.mixture),
                 (blocked.logdet, one.logdet)):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
    assert blocked.logdet != 0.0


def test_evaluate_memory_does_not_grow_with_the_split():
    import tracemalloc

    window = 32
    model = md.build_model(tiny_config(dim=4, components=3, hidden=32), seed=32)
    one_block = md.EVAL_ROWS // (window - 1)

    def peak(n_windows):
        batch = ds.gen_correlated_ar(n_windows, window, 4, rho=0.8, corr=0.5,
                                     seed=33)
        tracemalloc.start()
        try:
            md.evaluate(model, batch, window)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(one_block), peak(8 * one_block)
    assert large < 2 * small, (small, large)


def test_evaluate_rejects_an_empty_batch():
    model = md.build_model(tiny_config(), seed=0)
    with pytest.raises(ValueError, match="at least one"):
        md.evaluate(model, ds.SequenceBatch(np.zeros((0, 8, 2))))


@pytest.mark.skipif(platform.system() != "Linux"
                    or platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is set through glibc's mallopt")
def test_evaluate_again_reuses_freed_memory():
    import resource

    # under glibc's dynamic thresholds each block's freed arrays went back
    # to the kernel and the next evaluate faulted them in again
    cfg = md.ModelConfig(dim=16, components=16, hidden=16, flow_depth=2,
                         head_structure="logistic")
    model = md.build_model(cfg, seed=34)
    n = 4 * (md.EVAL_ROWS // 31)
    batch = ds.SequenceBatch(np.random.default_rng(35).normal(size=(n, 32, 16)))
    md.evaluate(model, batch)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    md.evaluate(model, batch)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, faults


class _FakeLibc:
    """A glibc whose `mallopt` refuses every setting."""

    gnu_get_libc_version = None

    def __init__(self):
        self.calls = []
        self.mallopt = lambda param, value: self.calls.append(param) or 0


@pytest.mark.parametrize("libc", [None, object(), _FakeLibc()],
                         ids=["no-libc", "no-mallopt", "mallopt-refuses"])
def test_import_without_glibc_mallopt_does_nothing(monkeypatch, libc):
    def cdll(name):
        if libc is None:
            raise OSError("no C library")
        return libc

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    importlib.reload(frmdn)
    assert frmdn.__version__
    if isinstance(libc, _FakeLibc):
        # a refused mmap threshold is not followed by the trim setting
        assert libc.calls == [frmdn._M_MMAP_THRESHOLD]


# ---------------------------------------------------------------------------
# gradients and training steps
# ---------------------------------------------------------------------------

def flatten_params(model):
    named = model.parameters()
    vec = np.concatenate([node.value.ravel() for _, node in named])
    return named, vec


def set_params(named, vec):
    at = 0
    for _, node in named:
        n = node.value.size
        node.value = vec[at:at + n].reshape(node.value.shape).copy()
        at += n


@pytest.mark.parametrize("structure", ["diagonal", "tied", "logistic"])
def test_full_model_gradient_check(structure):
    rng = np.random.default_rng(4)
    cfg = md.ModelConfig(dim=3, components=2, hidden=8, flow_depth=2,
                         flow_hidden=8, head_structure=structure)
    model = md.build_model(cfg, seed=1)
    randomize_model_flow(model, rng)
    if model.head.u is not None:
        model.head.u.value = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
    obs = rng.normal(size=(2, 4, 3))
    batch = ds.SequenceBatch(obs)
    named, vec0 = flatten_params(model)

    root, _, _ = md._nll_graph(model, obs, None)
    grads = dc.backward(root, params=[node for _, node in named])
    analytic = np.concatenate([grads[node].ravel() for _, node in named])

    step = 1e-5
    rng_idx = np.random.default_rng(5)
    probe = rng_idx.choice(vec0.size, size=160, replace=False)
    worst = 0.0
    for i in probe:
        for sign in (1.0, -1.0):
            vec = vec0.copy()
            vec[i] += sign * step
            set_params(named, vec)
            val = md.sequence_nll(model, batch).total
            if sign > 0:
                hi = val
            else:
                lo = val
        numeric = (hi - lo) / (2 * step)
        worst = max(worst, abs(analytic[i] - numeric) / max(1.0, abs(analytic[i])))
    set_params(named, vec0)
    assert worst < 1e-4


def test_grad_check_against_model_nll():
    # diffcore's grad_check driven by the full loss, with the LSTM bias as
    # the checked parameter vector
    rng = np.random.default_rng(6)
    model = md.build_model(tiny_config(dim=3, hidden=4, flow_hidden=4), seed=11)
    randomize_model_flow(model, rng)
    obs = rng.normal(size=(2, 4, 3))
    err = dc.grad_check(lambda: md._nll_graph(model, obs, None)[0],
                        [model.lstm.b])
    assert err < 1e-4


def make_training_batch(seed=0, q=4, t=33, d=2):
    return ds.gen_correlated_ar(q, t, d, rho=0.8, corr=0.5, seed=seed)


def test_overfit_single_batch():
    batch = make_training_batch(q=2, t=17)
    model = md.build_model(tiny_config(hidden=16), seed=2)
    opt = md.make_optimizer("rmsprop", 1e-3)
    first = md.train_step(model, batch, opt)
    for _ in range(199):
        last = md.train_step(model, batch, opt)
    assert first.total - last.total >= 2.0


def test_zero_learning_rate_leaves_model_identical():
    batch = make_training_batch()
    model = md.build_model(tiny_config(), seed=3)
    before = [node.value.copy() for _, node in model.parameters()]
    md.train_step(model, batch, md.make_optimizer("rmsprop", 0.0))
    for (_, node), old in zip(model.parameters(), before):
        np.testing.assert_array_equal(node.value, old)


def test_same_seed_reproduces_loss_trajectory():
    batch = make_training_batch(q=8, t=65)

    def run():
        model = md.build_model(tiny_config(hidden=8), seed=4)
        settings = md.TrainSettings(epochs=3, lr=1e-3, batch_size=4,
                                    window=16, seed=11)
        rows, _ = md.train_model(model, batch, settings)
        return [r["nll_total"] for r in rows]

    assert run() == run()


def test_train_step_error_leaves_model_unchanged():
    batch = make_training_batch()
    model = md.build_model(tiny_config(), seed=5)
    before = [node.value.copy() for _, node in model.parameters()]
    bad = ds.SequenceBatch(np.full_like(batch.observations, np.nan))
    with pytest.raises(md.NumericsError):
        md.train_step(model, bad, md.make_optimizer("rmsprop", 1e-3))
    for (_, node), old in zip(model.parameters(), before):
        np.testing.assert_array_equal(node.value, old)


def test_non_finite_gradient_names_the_parameter(monkeypatch):
    batch = make_training_batch()
    model = md.build_model(tiny_config(), seed=6)
    before = [node.value.copy() for _, node in model.parameters()]
    real_backward = dc.backward

    def poisoned(root, params):
        grads = real_backward(root, params=params)
        head_w = dict(model.parameters())["head.w"]
        grads[head_w] = grads[head_w].copy()
        grads[head_w].ravel()[1] = np.nan
        return grads

    monkeypatch.setattr(dc, "backward", poisoned)
    with pytest.raises(md.NumericsError,
                       match="non-finite gradient in 'head.w'"):
        md.train_step(model, batch, md.make_optimizer("rmsprop", 1e-3))
    for (_, node), old in zip(model.parameters(), before):
        np.testing.assert_array_equal(node.value, old)


@pytest.mark.parametrize("field, value, match", [
    ("batch_size", 0, "batch_size"),
    ("batch_size", -4, "batch_size"),
    ("epochs", -3, "epochs"),
    ("lr", -1e-3, "lr"),
    ("lr", math.nan, "lr"),
    ("lr", math.inf, "lr"),
    ("clip_norm", 0.0, "clip_norm"),
    ("clip_norm", math.nan, "clip_norm"),
])
def test_train_settings_reject_settings_that_do_nothing(field, value, match):
    settings = md.TrainSettings(epochs=1, batch_size=4, window=16)
    setattr(settings, field, value)
    model = md.build_model(tiny_config(), seed=7)
    with pytest.raises(ValueError, match=match):
        md.train_model(model, make_training_batch(), settings)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generate_step_equals_graph_replay():
    # every family, flow on and off: from the same (h, c) pair, the
    # tape-free step equals the graph route (a one-step lstm_step,
    # head_project, mixture_sample and flow_inverse) bit for bit, draw and
    # hidden state alike
    from frmdn import flow as fl
    from frmdn import mixtures as mx
    from frmdn import recurrent as rc
    rng = np.random.default_rng(5)
    for structure in mx.STRUCTURES:
        for flow in (True, False):
            case = (structure, flow)
            model = md.build_model(tiny_config(dim=3, action_dim=1,
                                               components=3,
                                               head_structure=structure,
                                               flow_enabled=flow), seed=6)
            for _, node in model.parameters():
                node.value = node.value + 0.3 * rng.normal(size=node.value.shape)
            h0, c0 = rng.normal(size=(2, 1, model.config.hidden))
            x = rng.normal(size=4)
            y, (h, _) = md.generate_step(model, x, (h0, c0),
                                         np.random.default_rng(9))

            h_node = rc.lstm_step(dc.constant(x.reshape(1, 1, -1)),
                                  (h0, c0), model.lstm)
            u = model.head.u.value if structure == "tied" else None
            want = mx.mixture_sample(*rc.head_project(h_node.value[0], model.head),
                                     structure, np.random.default_rng(9), u=u)
            if flow:
                want = fl.flow_inverse(want.reshape(1, -1), model.flow)[0]
            assert np.array_equal(y, want), case
            assert np.array_equal(h, h_node.value), case


def test_generate_step_checks_input_and_state_shapes():
    from frmdn import recurrent as rc
    model = md.build_model(tiny_config(), seed=6)
    state = rc.initial_state(1, model.config.hidden)
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="expected input"):
        md.generate_step(model, np.zeros(3), state, rng)
    short = (state[0][:, :-1], state[1])
    with pytest.raises(ValueError, match="state shapes"):
        md.generate_step(model, np.zeros(2), short, rng)
    with pytest.raises(ValueError, match="state shapes"):
        md.generate_step(model, np.zeros(2), (state[0], state[1][0]), rng)


def test_generate_step_degenerate_component_hits_mean():
    model = md.build_model(tiny_config(components=2, flow_enabled=True), seed=7)
    # pin alpha on component 1, its mean at (1.5, -0.5), scales at the floor
    model.head.w.value[:] = 0.0
    model.head.b.value[:] = 0.0
    model.head.b.value[0] = 200.0                  # alpha logit, component 1
    model.head.b.value[2:4] = [1.5, -0.5]          # mu block, component 1
    model.head.b.value[6:8] = -100.0               # scale logits -> clamp floor
    from frmdn import recurrent as rc
    state = rc.initial_state(1, model.config.hidden)
    y, _ = md.generate_step(model, np.zeros(2), state, np.random.default_rng(10))
    np.testing.assert_allclose(y, [1.5, -0.5], atol=1e-4)


def test_rollout_single_step_and_reproducibility():
    model = md.build_model(tiny_config(), seed=8)
    one = md.rollout(model, np.zeros(2), None, steps=1,
                     rng=np.random.default_rng(3))
    assert one.observations.shape == (1, 2, 2)
    again = md.rollout(model, np.zeros(2), None, steps=1,
                       rng=np.random.default_rng(3))
    np.testing.assert_array_equal(one.observations, again.observations)


def test_untrained_model_rollout_stays_finite():
    model = md.build_model(tiny_config(), seed=9)
    out = md.rollout(model, np.zeros(2), None, steps=1000,
                     rng=np.random.default_rng(1))
    assert np.all(np.isfinite(out.observations))


def record_nodes(monkeypatch):
    """Patch the DiffNode constructor to append every node it builds to
    the returned list."""
    created = []
    init = dc.DiffNode.__init__

    def counting_init(node, *args, **kwargs):
        init(node, *args, **kwargs)
        created.append(node)

    monkeypatch.setattr(dc.DiffNode, "__init__", counting_init)
    return created


def test_generation_builds_no_diffnodes(monkeypatch):
    from frmdn import control as ct
    model = md.build_model(tiny_config(action_dim=2, head_structure="tied"),
                           seed=12)
    env = ct.DreamEnv(model, lambda step, y, action: 0.0, horizon=64)
    ctrl = ct.LinearController(np.full((2, 8), 0.1), np.zeros(2))
    created = record_nodes(monkeypatch)
    md.rollout(model, np.zeros(2), lambda t: np.ones(2), 64,
               np.random.default_rng(13))
    ct.dream_rollout(env, ctrl, np.random.default_rng(13))
    assert created == []
    # the patched constructor sees the nodes a loss graph builds
    md._nll_graph(model, np.zeros((1, 3, 2)), np.zeros((1, 3, 2)))
    assert "lstm" in [node.op for node in created]


def test_evaluation_builds_no_diffnodes(monkeypatch):
    model = md.build_model(tiny_config(action_dim=2, head_structure="tied"),
                           seed=14)
    rng = np.random.default_rng(15)
    batch = ds.SequenceBatch(rng.normal(size=(3, 12, 2)),
                             rng.normal(size=(3, 12, 2)))
    monkeypatch.setattr(md, "EVAL_ROWS", 8)     # three blocks
    created = record_nodes(monkeypatch)
    md.evaluate(model, batch, window=5)
    md.sequence_nll(model, batch)
    assert created == []


def test_train_step_tape_shape(monkeypatch):
    # the nodes one train step builds, by op tag: the LSTM op reads the
    # input leaf and its weights, with no state leaves and no output views;
    # flow depth 1 is two coupling layers, each returning two views
    batch = make_training_batch(q=2, t=9)
    created = record_nodes(monkeypatch)
    for flow, want in ((False, {"leaf": 3, "lstm": 1, "matmul": 1, "add": 2,
                                "mixture_log_rows": 1, "mean": 1, "neg": 1}),
                       (True, {"leaf": 2, "lstm": 1, "matmul": 1, "add": 3,
                               "mixture_log_rows": 1, "mean": 2, "neg": 2,
                               "coupling": 2, "view": 4})):
        model = md.build_model(tiny_config(flow_enabled=flow), seed=3)
        created.clear()
        md.train_step(model, batch, md.make_optimizer("rmsprop", 1e-3))
        assert Counter(node.op for node in created) == want, flow
        lstm = next(node for node in created if node.op == "lstm")
        assert lstm.parents[1:] == (model.lstm.w, model.lstm.b)


def test_rollout_with_actions_records_them():
    model = md.build_model(tiny_config(action_dim=2), seed=10)
    rng = np.random.default_rng(11)
    out = md.rollout(model, np.zeros(2), lambda t: rng.uniform(-1, 1, 2),
                     steps=5, rng=np.random.default_rng(2))
    assert out.actions.shape == (1, 6, 2)
    assert np.all(out.actions[0, -1] == 0.0)


# ---------------------------------------------------------------------------
# trained-model statistics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_ar_model():
    data = ds.gen_correlated_ar(24, 600, 2, rho=0.9, corr=0.0, seed=21)
    model = md.build_model(md.ModelConfig(dim=2, components=1, hidden=16,
                                          flow_enabled=False), seed=12)
    settings = md.TrainSettings(epochs=12, lr=1e-2, optimizer="adam",
                                batch_size=32, window=24, seed=5)
    md.train_model(model, data, settings)
    return model


def test_trained_model_rollout_recovers_autocorrelation(trained_ar_model):
    out = md.rollout(trained_ar_model, np.zeros(2), None, steps=6000,
                     rng=np.random.default_rng(6))
    series = out.observations[0, 500:, 0]    # discard warm-up
    lag1 = np.corrcoef(series[:-1], series[1:])[0, 1]
    assert abs(lag1 - 0.9) < 0.1


def test_trained_model_nll_approaches_entropy_floor(trained_ar_model):
    test_data = ds.gen_correlated_ar(25, 2000, 2, rho=0.9, corr=0.0, seed=22)
    rec = md.evaluate(trained_ar_model, test_data, window=24)
    floor = ds.ar_entropy_rate(2, 0.0)
    assert rec.total - floor < 0.2
    assert rec.total >= floor - 0.02   # cannot beat the generator


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(13)
    model = md.build_model(tiny_config(head_structure="tied"), seed=14)
    randomize_model_flow(model, rng)
    obs = rng.normal(size=(3, 9, 2))
    batch = ds.SequenceBatch(obs)
    before = md.sequence_nll(model, batch)

    path = tmp_path / "model.frmd"
    md.save_checkpoint(path, model, extra={"note": "unit"})
    loaded, extra, _ = md.load_checkpoint(path)
    after = md.sequence_nll(loaded, batch)
    assert before.total == after.total
    assert before.mixture == after.mixture
    assert extra["note"] == "unit"


def test_checkpoint_keeps_every_config_field(tmp_path):
    config = md.ModelConfig(dim=3, action_dim=1, components=2, hidden=5,
                            flow_depth=2, head_structure="logistic",
                            flow_enabled=False, c_width=0.25, flow_hidden=6,
                            s_clamp=1.5)
    default = md.ModelConfig(dim=1)
    for f in fields(md.ModelConfig):
        assert getattr(config, f.name) != getattr(default, f.name), f.name
    path = tmp_path / "model.frmd"
    md.save_checkpoint(path, md.build_model(config))
    loaded, _, _ = md.load_checkpoint(path)
    assert loaded.config == config


def test_parameter_shapes_match_build_model():
    for kw in (dict(), dict(dim=5, head_structure="tied", flow_depth=2),
               dict(dim=3, action_dim=2, flow_enabled=False),
               dict(dim=4, flow_depth=0),
               dict(head_structure="logistic", components=4, hidden=3)):
        config = tiny_config(**kw)
        built = [(name, node.value.shape)
                 for name, node in md.build_model(config).parameters()]
        assert list(md.parameter_shapes(config)) == built, kw


def test_checkpoint_carries_adam_state(tmp_path):
    batch = make_training_batch()
    model = md.build_model(tiny_config(hidden=8), seed=16)
    opt = md.make_optimizer("adam", 1e-3)
    for _ in range(3):
        md.train_step(model, batch, opt)
    path = tmp_path / "adam.frmd"
    md.save_checkpoint(path, model, optimizer=opt)
    _, extra, opt_arrays = md.load_checkpoint(path)
    assert extra["optimizer"] == "adam"
    restored = md.make_optimizer("adam", 1e-3)
    restored.load_state_arrays(opt_arrays)
    assert restored.step == 3
    for name, arr in opt.m.items():
        np.testing.assert_array_equal(restored.m[name], arr)
        np.testing.assert_array_equal(restored.v[name], opt.v[name])


def test_generate_step_supports_tied_head():
    from frmdn import recurrent as rc
    model = md.build_model(tiny_config(head_structure="tied"), seed=17)
    state = rc.initial_state(1, model.config.hidden)
    y, _ = md.generate_step(model, np.zeros(2), state,
                            np.random.default_rng(18))
    assert y.shape == (2,) and np.all(np.isfinite(y))


def test_checkpoint_resume_is_bit_identical(tmp_path):
    batch = make_training_batch(q=8, t=65)

    def fresh():
        return md.build_model(tiny_config(hidden=8), seed=15)

    settings = md.TrainSettings(epochs=4, lr=1e-3, batch_size=4, window=16,
                                seed=9)
    model_a = fresh()
    rows_a, _ = md.train_model(model_a, batch, settings)

    # same schedule, split across a save/load boundary
    model_b = fresh()
    first = md.TrainSettings(epochs=2, lr=1e-3, batch_size=4, window=16, seed=9)
    _, opt = md.train_model(model_b, batch, first)
    path = tmp_path / "resume.frmd"
    md.save_checkpoint(path, model_b, optimizer=opt, extra={"epoch": "2"})
    loaded, extra, opt_arrays = md.load_checkpoint(path)
    resumed_opt = md.make_optimizer("rmsprop", 1e-3)
    resumed_opt.load_state_arrays(opt_arrays)
    second = md.TrainSettings(epochs=2, lr=1e-3, batch_size=4, window=16, seed=9)
    rows_b, _ = md.train_model(loaded, batch, second,
                               optimizer=resumed_opt,
                               start_epoch=int(extra["epoch"]))

    for (_, node_a), (_, node_b) in zip(model_a.parameters(),
                                        loaded.parameters()):
        np.testing.assert_array_equal(node_a.value, node_b.value)
    assert rows_a[-1]["nll_total"] == rows_b[-1]["nll_total"]
