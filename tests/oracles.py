"""Reference implementations the tests check the library against."""

import numpy as np


def truncate_rank(m, r):
    """Best rank-r approximation of ``m`` in Frobenius norm (Eckart-Young)."""
    m = np.asarray(m, dtype=float)
    if not 0 <= r <= min(m.shape):
        raise ValueError(f"rank {r} out of range for shape {m.shape}")
    if r == 0:
        return np.zeros_like(m)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return (u[:, :r] * s[:r]) @ vh[:r]
