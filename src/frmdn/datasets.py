"""Synthetic sequence generators with known distributions.

Every generator is bit-reproducible from its seed and ships the exact (or
Monte-Carlo) per-step differential entropy rate of its conditional law,
which lower-bounds any model's achievable test NLL per step.
"""

from __future__ import annotations

import io
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


def _check_counts(q, t, d, d_action=None):
    """Raise ValueError unless a generator's counts give a usable dataset:
    at least one sequence of at least two steps (a model predicts each step
    from the ones before it) in at least one dimension, and at least one
    action dimension when the task has actions."""
    counts = [("q", q, 1), ("t", t, 2), ("d", d, 1)]
    if d_action is not None:
        counts.append(("d_action", d_action, 1))
    for name, value, least in counts:
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def gen_correlated_ar(q, t, d, rho, corr, seed):
    """First-order autoregression with equicorrelated Gaussian noise:
    y_{t+1} = rho * y_t + eps, eps ~ N(0, Sigma)."""
    _check_counts(q, t, d)
    if not abs(rho) < 1.0:
        raise ValueError("rho must satisfy |rho| < 1")
    sigma = equicorrelation(d, corr)
    chol = np.linalg.cholesky(sigma)
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(size=(q, t, d)) @ chol.T
    obs = np.empty((q, t, d))
    obs[:, 0] = eps[:, 0]
    for step in range(1, t):
        obs[:, step] = rho * obs[:, step - 1] + eps[:, step]
    return SequenceBatch(obs)


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
    _check_counts(q, t, d)
    if modes < 1:
        raise ValueError("modes must be at least 1")
    rng = np.random.default_rng(seed)
    means, trans = _switching_chain(modes, d, stay_prob, separation)
    obs = np.empty((q, t, d))
    for s in range(q):
        mode = int(rng.integers(modes))
        for step in range(t):
            obs[s, step] = means[mode] + emission_std * rng.standard_normal(d)
            mode = int(rng.choice(modes, p=trans[mode]))
    return SequenceBatch(obs)


def _switching_chain(modes, d, stay_prob, separation):
    """The (modes, d) mode means and the (modes, modes) transition matrix
    of the switching generator's hidden Markov chain."""
    # symmetric lattice: per coordinate, levels +s, -s, +2s, -2s, ...
    means = np.zeros((modes, d))
    for m in range(modes):
        level = m // d
        means[m, m % d] = separation * (level // 2 + 1) * (1 if level % 2 == 0 else -1)
    trans = np.full((modes, modes), (1.0 - stay_prob) / max(modes - 1, 1))
    np.fill_diagonal(trans, stay_prob if modes > 1 else 1.0)
    return means, trans


def switching_entropy_rate_mc(d, modes, seed, steps=20_000, stay_prob=0.92,
                              separation=4.0, emission_std=0.5):
    """Monte-Carlo estimate of the per-step predictive entropy of the
    switching generator, using the exact forward filter of its own HMM.

    Returns (estimate, standard_error).
    """
    rng = np.random.default_rng(seed)
    means, trans = _switching_chain(modes, d, stay_prob, separation)
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
    _check_counts(q, t, d, d_action)
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
    batch = SequenceBatch(obs, actions)
    batch.dynamics = (a_mat, b_mat)     # exposed for verification
    return batch


def control_entropy_rate(d, noise_std=0.1):
    """Exact conditional entropy per step of gen_control_task."""
    return 0.5 * d * math.log(2.0 * math.pi * math.e * noise_std**2)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def read_exact(fh, size, what):
    """Read exactly `size` bytes; fewer left in the file means it was cut
    off.  The size is checked against the file before reading, so a
    corrupt length field never asks for a huge buffer."""
    offset = fh.tell()
    left = fh.seek(0, io.SEEK_END) - offset
    fh.seek(offset)
    if size > left:
        raise ValueError(f"truncated {what}: expected {size} more bytes at "
                         f"offset {offset}, got {left}")
    return fh.read(size)


def read_key_values(text, what):
    """The `key=value` lines of `text` as a dict, keys and values
    stripped; blank lines and `#` lines are skipped.  A line with no key
    or no `=`, or a key given twice, raises ValueError naming it."""
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not (sep and key):
            raise ValueError(f"{what}: line {line!r} is not key=value")
        if key in entries:
            raise ValueError(f"{what}: key {key!r} is given twice")
        entries[key] = value.strip()
    return entries


def read_float64(fh, shape, what, name):
    """Read a little-endian float64 array of `shape` from `fh`; a short
    read or a non-finite entry raises ValueError naming `name`."""
    arr = np.frombuffer(read_exact(fh, math.prod(shape) * 8, what), dtype="<f8")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite value in {what}: {name}")
    return arr.reshape(shape).copy()


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
    what = f"FSEQ file {path}"
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FSEQ_MAGIC:
            raise ValueError(f"not an FSEQ file: bad magic {magic!r}")
        version, q, t, d, da = struct.unpack("<IIIII", read_exact(fh, 20, what))
        if version != FSEQ_VERSION:
            raise ValueError(f"unsupported FSEQ version {version}")
        obs = read_float64(fh, (q, t, d), what, "observations")
        actions = read_float64(fh, (q, t, da), what, "actions") if da else None
    return SequenceBatch(obs, actions)


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
