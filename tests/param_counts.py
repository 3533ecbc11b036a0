"""A storage-side count of mixture parameters, the oracle that
`mixtures.param_count`'s formulas are checked against."""

import numpy as np

from frmdn.mixtures import ParamCountReport


def stored_param_count(k, d, structure):
    """Allocate the actual parameter blocks of a head and count their
    entries; cross-checks `param_count` against real storage."""
    alpha = np.zeros(k)
    mu = np.zeros((k, d))
    if structure == "full":
        tril = [np.zeros(d * (d + 1) // 2) for _ in range(k)]
        sigma_count = sum(t.size for t in tril)
    elif structure == "diagonal":
        sigma_count = np.zeros((k, d)).size
    elif structure == "tied":
        sigma_count = np.zeros((k, d)).size + np.zeros((d, d)).size
    else:
        raise ValueError(f"unknown structure {structure!r}")
    return ParamCountReport(alpha.size, mu.size, sigma_count)
