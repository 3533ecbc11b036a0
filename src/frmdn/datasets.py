"""Synthetic sequence generators with known distributions.

Every generator is bit-reproducible from its seed and ships the exact (or
Monte-Carlo) per-step differential entropy rate of its conditional law,
which lower-bounds any model's achievable test NLL per step.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

FSEQ_MAGIC = b"FSEQ"
FSEQ_VERSION = 1


@dataclass
class SequenceBatch:
    """Q sequences of T observation vectors, plus optional action vectors."""

    observations: np.ndarray           # (Q, T, d)
    actions: np.ndarray | None = None  # (Q, T, d_action)
    descriptor: str = ""

    def __post_init__(self):
        self.observations = np.asarray(self.observations, dtype=np.float64)
        if self.actions is not None:
            self.actions = np.asarray(self.actions, dtype=np.float64)
            if self.actions.shape[:2] != self.observations.shape[:2]:
                raise ValueError("actions must align with observations")

    @property
    def q(self):
        return self.observations.shape[0]

    @property
    def t(self):
        return self.observations.shape[1]

    @property
    def dim(self):
        return self.observations.shape[2]

    @property
    def action_dim(self):
        return 0 if self.actions is None else self.actions.shape[2]


def equicorrelation(d, corr):
    """Unit-diagonal covariance with constant off-diagonal entries."""
    if not 0.0 <= corr < 1.0:
        raise ValueError(f"equicorrelation requires corr in [0, 1), got {corr}"
                         " (the matrix is not positive definite: non-PD)")
    return (1.0 - corr) * np.eye(d) + corr * np.ones((d, d))


def gen_correlated_ar(q, t, d, rho, corr, seed):
    """First-order autoregression with equicorrelated Gaussian noise:
    y_{t+1} = rho * y_t + eps, eps ~ N(0, Sigma)."""
    if not abs(rho) < 1.0:
        raise ValueError("rho must satisfy |rho| < 1")
    if d < 1:
        raise ValueError("d must be positive")
    sigma = equicorrelation(d, corr)
    chol = np.linalg.cholesky(sigma)
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(size=(q, t, d)) @ chol.T
    obs = np.empty((q, t, d))
    obs[:, 0] = eps[:, 0]
    for step in range(1, t):
        obs[:, step] = rho * obs[:, step - 1] + eps[:, step]
    desc = f"ar(q={q},t={t},d={d},rho={rho},corr={corr},seed={seed})"
    return SequenceBatch(obs, None, desc)


def ar_entropy_rate(d, corr):
    """Exact conditional entropy per step of gen_correlated_ar:
    0.5 * log((2 pi e)^d |Sigma|); independent of rho."""
    sign, logdet = np.linalg.slogdet(equicorrelation(d, corr))
    assert sign > 0
    return 0.5 * (d * math.log(2.0 * math.pi * math.e) + logdet)


def gen_switching_modes(q, t, d, modes, seed, stay_prob=0.92,
                        separation=4.0, emission_std=0.5):
    """Hidden Markov regime over `modes` Gaussian modes with distinct means.

    Mode means sit on a deterministic lattice scaled by `separation`; each
    observation is drawn from the active mode, making the next-step
    predictive law multimodal.
    """
    if modes < 1:
        raise ValueError("modes must be at least 1")
    rng = np.random.default_rng(seed)
    means = _mode_means(modes, d, separation)
    trans = np.full((modes, modes), (1.0 - stay_prob) / max(modes - 1, 1))
    np.fill_diagonal(trans, stay_prob if modes > 1 else 1.0)
    obs = np.empty((q, t, d))
    for s in range(q):
        mode = int(rng.integers(modes))
        for step in range(t):
            obs[s, step] = means[mode] + emission_std * rng.standard_normal(d)
            mode = int(rng.choice(modes, p=trans[mode]))
    desc = f"modes(q={q},t={t},d={d},m={modes},seed={seed})"
    return SequenceBatch(obs, None, desc)


def _mode_means(modes, d, separation):
    # symmetric lattice: per coordinate, levels +s, -s, +2s, -2s, ...
    means = np.zeros((modes, d))
    for m in range(modes):
        level = m // d
        means[m, m % d] = separation * (level // 2 + 1) * (1 if level % 2 == 0 else -1)
    return means


def switching_entropy_rate_mc(d, modes, seed, steps=20_000, stay_prob=0.92,
                              separation=4.0, emission_std=0.5):
    """Monte-Carlo estimate of the per-step predictive entropy of the
    switching generator, using the exact forward filter of its own HMM.

    Returns (estimate, standard_error).
    """
    rng = np.random.default_rng(seed)
    means = _mode_means(modes, d, separation)
    trans = np.full((modes, modes), (1.0 - stay_prob) / max(modes - 1, 1))
    np.fill_diagonal(trans, stay_prob if modes > 1 else 1.0)
    log_norm = -0.5 * d * math.log(2 * math.pi) - d * math.log(emission_std)

    belief = np.full(modes, 1.0 / modes)
    mode = int(rng.integers(modes))
    nlls = np.empty(steps)
    for i in range(steps):
        y = means[mode] + emission_std * rng.standard_normal(d)
        pred = belief @ trans if i > 0 else belief
        quad = ((y[None, :] - means) ** 2).sum(axis=1) / (2 * emission_std**2)
        like = np.exp(log_norm - quad)
        p = float(pred @ like)
        nlls[i] = -math.log(max(p, 1e-300))
        belief = pred * like
        belief /= belief.sum()
        mode = int(rng.choice(modes, p=trans[mode]))
    return float(nlls.mean()), float(nlls.std(ddof=1) / math.sqrt(steps))


def gen_control_task(q, t, d, d_action, seed, noise_std=0.1, action_scale=1.0):
    """Linear controllable dynamics y_{t+1} = A y_t + B a_t + noise, driven
    by a random policy; A is rescaled to spectral radius 0.7."""
    if min(q, t, d, d_action) < 1:
        raise ValueError("q, t, d, d_action must all be positive")
    rng = np.random.default_rng(seed)
    a_mat = rng.normal(size=(d, d))
    radius = np.abs(np.linalg.eigvals(a_mat)).max()
    a_mat *= 0.7 / radius
    b_mat = rng.normal(size=(d, d_action)) * 0.5
    actions = action_scale * rng.uniform(-1.0, 1.0, size=(q, t, d_action))
    obs = np.zeros((q, t, d))
    noise = noise_std * rng.standard_normal(size=(q, t, d))
    obs[:, 0] = noise[:, 0]
    for step in range(1, t):
        obs[:, step] = (
            obs[:, step - 1] @ a_mat.T
            + actions[:, step - 1] @ b_mat.T
            + noise[:, step]
        )
    desc = f"control(q={q},t={t},d={d},da={d_action},seed={seed})"
    batch = SequenceBatch(obs, actions, desc)
    batch.dynamics = (a_mat, b_mat)     # exposed for verification
    return batch


def control_entropy_rate(d, noise_std=0.1):
    """Exact conditional entropy per step of gen_control_task."""
    return 0.5 * d * math.log(2.0 * math.pi * math.e * noise_std**2)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def read_exact(fh, size, what):
    """Read exactly `size` bytes; a short read means the file was cut off."""
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"truncated {what}: expected {size} more bytes at "
                         f"offset {fh.tell() - len(data)}, got {len(data)}")
    return data


def save_fseq(path, batch):
    """FSEQ: magic, u32 version, u32 Q, T, d, d_action, then raw
    little-endian float64 observations and actions."""
    da = batch.action_dim
    with open(path, "wb") as fh:
        fh.write(FSEQ_MAGIC)
        fh.write(struct.pack("<IIIII", FSEQ_VERSION, batch.q, batch.t,
                             batch.dim, da))
        fh.write(batch.observations.astype("<f8").tobytes())
        if da:
            fh.write(batch.actions.astype("<f8").tobytes())


def load_fseq(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FSEQ_MAGIC:
            raise ValueError(f"not an FSEQ file: bad magic {magic!r}")
        version, q, t, d, da = struct.unpack(
            "<IIIII", read_exact(fh, 20, "FSEQ file"))
        if version != FSEQ_VERSION:
            raise ValueError(f"unsupported FSEQ version {version}")
        obs = np.frombuffer(read_exact(fh, q * t * d * 8, "FSEQ file"),
                            dtype="<f8").reshape(q, t, d)
        actions = None
        if da:
            actions = np.frombuffer(read_exact(fh, q * t * da * 8, "FSEQ file"),
                                    dtype="<f8")
            actions = actions.reshape(q, t, da)
    for name, arr in (("observations", obs), ("actions", actions)):
        if arr is not None and not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite value in FSEQ file {path}: {name}")
    return SequenceBatch(obs.copy(), None if actions is None else actions.copy())


def export_csv(batch, path_or_handle):
    """One step per line with a header row: seq, step, y_0.., a_0.."""
    own = isinstance(path_or_handle, (str, bytes))
    fh = open(path_or_handle, "w") if own else path_or_handle
    try:
        cols = ["seq", "step"]
        cols += [f"y_{i}" for i in range(batch.dim)]
        cols += [f"a_{i}" for i in range(batch.action_dim)]
        fh.write(",".join(cols) + "\n")
        for s in range(batch.q):
            for step in range(batch.t):
                row = [str(s), str(step)]
                row += [repr(float(v)) for v in batch.observations[s, step]]
                if batch.actions is not None:
                    row += [repr(float(v)) for v in batch.actions[s, step]]
                fh.write(",".join(row) + "\n")
    finally:
        if own:
            fh.close()


def slice_windows(batch, window):
    """Non-overlapping fixed-length windows; a trailing partial window is
    dropped.  Returns (obs  (n, window, d), actions or None)."""
    if window < 2:
        raise ValueError("window must be at least 2")
    n_per_seq = batch.t // window
    if n_per_seq == 0:
        raise ValueError(f"sequences of length {batch.t} are shorter than "
                         f"the window {window}")
    usable = n_per_seq * window
    obs = batch.observations[:, :usable].reshape(
        batch.q * n_per_seq, window, batch.dim
    )
    acts = None
    if batch.actions is not None:
        acts = batch.actions[:, :usable].reshape(
            batch.q * n_per_seq, window, batch.action_dim
        )
    return obs, acts
