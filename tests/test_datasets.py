import math

import numpy as np
import pytest

from frmdn import datasets as ds


def test_ar_noise_independent_when_corr_zero():
    batch = ds.gen_correlated_ar(4, 25_000, 3, rho=0.7, corr=0.0, seed=0)
    obs = batch.observations
    eps = (obs[:, 1:] - 0.7 * obs[:, :-1]).reshape(-1, 3)
    corr = np.corrcoef(eps.T)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 0.02


def test_ar_noise_correlation_matches_request():
    batch = ds.gen_correlated_ar(4, 25_000, 2, rho=0.0, corr=0.8, seed=1)
    eps = batch.observations.reshape(-1, 2)
    corr = np.corrcoef(eps.T)[0, 1]
    assert corr == pytest.approx(0.8, abs=0.02)


def test_ar_rejects_non_pd_and_bad_rho():
    with pytest.raises(ValueError, match="non-PD"):
        ds.gen_correlated_ar(2, 10, 2, rho=0.5, corr=1.0, seed=0)
    with pytest.raises(ValueError, match="rho"):
        ds.gen_correlated_ar(2, 10, 2, rho=1.0, corr=0.5, seed=0)


def test_ar_entropy_rate_closed_form_and_monte_carlo():
    d, corr = 3, 0.6
    want = ds.ar_entropy_rate(d, corr)
    # independent check: 0.5 log((2 pi e)^d |Sigma|) with explicit det
    sigma = ds.equicorrelation(d, corr)
    direct = 0.5 * math.log((2 * math.pi * math.e) ** d * np.linalg.det(sigma))
    assert want == pytest.approx(direct, abs=1e-12)
    # Monte-Carlo oracle: mean negative log density of the noise
    rng = np.random.default_rng(2)
    chol = np.linalg.cholesky(sigma)
    draws = rng.standard_normal(size=(200_000, d)) @ chol.T
    prec = np.linalg.inv(sigma)
    quad = np.einsum("ni,ij,nj->n", draws, prec, draws)
    nll = 0.5 * (d * math.log(2 * math.pi) + math.log(np.linalg.det(sigma)) + quad)
    assert nll.mean() == pytest.approx(want, abs=0.01)


def test_ar_reproducible_per_seed():
    a = ds.gen_correlated_ar(3, 50, 4, rho=0.9, corr=0.3, seed=7)
    b = ds.gen_correlated_ar(3, 50, 4, rho=0.9, corr=0.3, seed=7)
    np.testing.assert_array_equal(a.observations, b.observations)
    c = ds.gen_correlated_ar(3, 50, 4, rho=0.9, corr=0.3, seed=8)
    assert not np.array_equal(a.observations, c.observations)


def test_every_generator_is_bit_reproducible():
    pairs = [
        lambda s: ds.gen_switching_modes(2, 40, 2, modes=3, seed=s),
        lambda s: ds.gen_control_task(2, 40, 2, 2, seed=s),
    ]
    for gen in pairs:
        a, b = gen(9), gen(9)
        np.testing.assert_array_equal(a.observations, b.observations)
        np.testing.assert_array_equal(a.actions, b.actions)


# ---------------------------------------------------------------------------
# switching modes
# ---------------------------------------------------------------------------

def test_single_mode_degenerates_to_iid_gaussian():
    batch = ds.gen_switching_modes(4, 10_000, 2, modes=1, seed=3)
    flat = batch.observations.reshape(-1, 2)
    np.testing.assert_allclose(flat.mean(axis=0), [4.0, 0.0], atol=0.02)
    np.testing.assert_allclose(flat.std(axis=0), [0.5, 0.5], atol=0.02)
    lag1 = np.corrcoef(flat[:-1, 0], flat[1:, 0])[0, 1]
    assert abs(lag1) < 0.05


def test_two_modes_give_bimodal_marginal():
    batch = ds.gen_switching_modes(8, 4000, 1, modes=2, seed=4)
    x = batch.observations.ravel()
    # valley-to-peak oracle on the first-coordinate histogram
    hist, edges = np.histogram(x, bins=60)
    centers = (edges[:-1] + edges[1:]) / 2
    peak_lo = hist[centers < 0].max()
    peak_hi = hist[centers > 0].max()
    mid = hist[np.abs(centers) < 1.0].min()
    assert peak_lo > 5 * mid and peak_hi > 5 * mid


def test_switching_entropy_rate_estimate_is_tight():
    est, se = ds.switching_entropy_rate_mc(1, 2, seed=5, steps=20_000)
    assert se < 0.02
    # one-mode case reduces to the exact Gaussian entropy
    est1, _ = ds.switching_entropy_rate_mc(1, 1, seed=6, steps=20_000)
    exact = 0.5 * math.log(2 * math.pi * math.e * 0.25)
    assert est1 == pytest.approx(exact, abs=0.02)


def test_mixture_capacity_gap_on_switching_data():
    # a one-component head cannot represent the bimodal predictive law
    from frmdn import model as md
    train = ds.gen_switching_modes(24, 200, 1, modes=2, seed=7)
    test = ds.gen_switching_modes(8, 200, 1, modes=2, seed=8)
    results = {}
    for k in (1, 2):
        cfg = md.ModelConfig(dim=1, components=k, hidden=12,
                             flow_enabled=False)
        model = md.build_model(cfg, seed=9)
        settings = md.TrainSettings(epochs=30, lr=1e-2, optimizer="adam",
                                    batch_size=16, window=25, seed=10)
        md.train_model(model, train, settings)
        results[k] = md.evaluate(model, test, window=25).total
    assert results[1] - results[2] >= 0.3


# ---------------------------------------------------------------------------
# control task
# ---------------------------------------------------------------------------

def test_control_task_zero_actions_is_stable_ar():
    quiet = ds.gen_control_task(4, 2000, 3, 2, seed=11, action_scale=0.0)
    assert np.all(quiet.actions == 0.0)
    a_mat, _ = quiet.dynamics
    assert np.abs(np.linalg.eigvals(a_mat)).max() == pytest.approx(0.7, abs=1e-12)
    assert np.abs(quiet.observations).max() < 5.0   # stable, noise-driven


def test_control_task_dynamics_recoverable_by_least_squares():
    batch = ds.gen_control_task(8, 2000, 3, 2, seed=12)
    a_mat, b_mat = batch.dynamics
    y_now = batch.observations[:, :-1].reshape(-1, 3)
    y_next = batch.observations[:, 1:].reshape(-1, 3)
    act = batch.actions[:, :-1].reshape(-1, 2)
    design = np.column_stack([y_now, act])
    coef, *_ = np.linalg.lstsq(design, y_next, rcond=None)
    np.testing.assert_allclose(coef[:3].T, a_mat, atol=0.05)
    np.testing.assert_allclose(coef[3:].T, b_mat, atol=0.05)


def test_control_task_action_columns():
    batch = ds.gen_control_task(2, 16, 2, 3, seed=13)
    assert batch.actions.shape == (2, 16, 3)
    assert batch.action_dim == 3


def test_control_entropy_rate():
    want = 0.5 * 2 * math.log(2 * math.pi * math.e * 0.01)
    assert ds.control_entropy_rate(2, 0.1) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_fseq_round_trip(tmp_path):
    batch = ds.gen_control_task(3, 20, 4, 2, seed=14)
    path = tmp_path / "data.fseq"
    ds.save_fseq(path, batch)
    loaded = ds.load_fseq(path)
    np.testing.assert_array_equal(loaded.observations, batch.observations)
    np.testing.assert_array_equal(loaded.actions, batch.actions)


def test_fseq_headerless_file_rejected(tmp_path):
    path = tmp_path / "bad.fseq"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ValueError, match="magic"):
        ds.load_fseq(path)


def test_fseq_no_actions(tmp_path):
    batch = ds.gen_correlated_ar(2, 12, 3, rho=0.5, corr=0.2, seed=15)
    path = tmp_path / "obs.fseq"
    ds.save_fseq(path, batch)
    loaded = ds.load_fseq(path)
    assert loaded.actions.shape == (2, 12, 0)
    np.testing.assert_array_equal(loaded.observations, batch.observations)
    # the v1 layout: a 24-byte header, the observations, no action bytes
    assert path.stat().st_size == 24 + 8 * 2 * 12 * 3


def test_csv_export(tmp_path):
    batch = ds.gen_control_task(2, 5, 2, 1, seed=16)
    path = tmp_path / "data.csv"
    ds.export_csv(batch, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "seq,step,y_0,y_1,a_0"
    assert len(lines) == 1 + 2 * 5
    first = lines[1].split(",")
    assert float(first[2]) == batch.observations[0, 0, 0]


def test_slice_windows_shapes_and_content():
    batch = ds.gen_control_task(3, 70, 2, 1, seed=17)
    obs, acts = ds.slice_windows(batch, 32)
    assert obs.shape == (6, 32, 2)
    assert acts.shape == (6, 32, 1)
    np.testing.assert_array_equal(obs[1], batch.observations[0, 32:64])
    with pytest.raises(ValueError, match="shorter"):
        ds.slice_windows(batch, 71)


@pytest.mark.parametrize("kind", list(ds.GEN_KINDS))
def test_gen_kind_floor_is_finite_at_its_defaults(kind):
    spec = ds.GEN_KINDS[kind]
    floor, se = spec.floor(2, **{name: default for name, _, default in spec.params})
    assert math.isfinite(floor) and math.isfinite(se) and se >= 0.0
