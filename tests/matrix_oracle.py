"""Dense-matrix oracles for the group laws: N points as unit upper-triangular
matrices and A points as their diagonals, in the layer order of
``groups.upper_indices``."""

import numpy as np

from anharm.groups import upper_indices


def coords_to_matrix(m, coords):
    """Unit upper-triangular matrices from coordinates (..., dim_n)."""
    coords = np.asarray(coords, dtype=float)
    mats = np.zeros(coords.shape[:-1] + (m, m))
    mats[..., np.arange(m), np.arange(m)] = 1.0
    for k, (i, j) in enumerate(upper_indices(m)):
        mats[..., i, j] = coords[..., k]
    return mats


def matrix_to_coords(m, mats):
    mats = np.asarray(mats, dtype=float)
    idx = upper_indices(m)
    out = np.empty(mats.shape[:-2] + (len(idx),))
    for k, (i, j) in enumerate(idx):
        out[..., k] = mats[..., i, j]
    return out


def diag_entries(t):
    """Diagonal entries (a_1 .. a_m) from log coordinates (..., m-1)."""
    t = np.asarray(t, dtype=float)
    last = -t.sum(axis=-1, keepdims=True)
    return np.exp(np.concatenate([t, last], axis=-1))
