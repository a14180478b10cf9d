"""Dense linear-algebra substrate: SVD and subspace geometry.

Matrices are plain float ndarrays. A "subspace basis" is an (n, r) ndarray with
orthonormal columns; functions that construct one guarantee orthonormality to
roughly 1e-10, and consumers may rely on it.
"""

import ctypes
import functools
import os
from contextlib import contextmanager

import numpy as np
from scipy.linalg.lapack import dgeqp3, dorgqr

# Residual-norm cutoff below which a column is treated as linearly dependent.
# Matches the reconstruction accuracy of double-precision SVD.
ORTHO_DROP_TOL = 1e-10


def as_generator(rng):
    """Pass numpy Generators through; treat anything else as seed material."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def svd(m):
    """Economy SVD of a finite real matrix.

    Returns (u, s, vh) with s nonincreasing and u @ diag(s) @ vh equal to the
    input to working precision. Raises ValueError on NaN/Inf entries and lets
    the backend's LinAlgError propagate if the decomposition fails.
    """
    m = np.asarray_chkfinite(m, dtype=float)
    return np.linalg.svd(m, full_matrices=False)


def principal_angles(b1, b2):
    """Principal angles between two subspaces, in degrees, nondecreasing.

    ``b1`` and ``b2`` are orthonormal bases with the same ambient dimension.
    The angles are arccos of the singular values of b1.T @ b2; the cosines are
    clipped to [0, 1] so rounding noise cannot produce NaN at 0 or 90 degrees.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if b1.shape[0] != b2.shape[0]:
        raise ValueError(f"ambient dimensions differ: {b1.shape[0]} vs {b2.shape[0]}")
    cosines = np.linalg.svd(b1.T @ b2, compute_uv=False)
    return np.degrees(np.arccos(np.clip(cosines, 0.0, 1.0)))


def orthonormalize(m):
    """Rank-revealing orthonormal basis for the column space of ``m``.

    Columns whose residual against the already-accepted basis falls below
    ORTHO_DROP_TOL are dropped (pivoted QR). A zero or empty input yields an
    (n, 0) basis; NaN/Inf entries raise ValueError. The result equals the
    leading columns of ``scipy.linalg.qr(m, mode="economic", pivoting=True)``
    bit for bit: LAPACK geqp3 and orgqr are called directly, which saves that
    wrapper's workspace queries and copies on the small inputs of the loop.
    """
    m = np.asarray_chkfinite(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    if m.shape[1] == 0 or not m.any():
        return np.zeros((m.shape[0], 0))
    qr, _, tau, _, info = dgeqp3(m)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgeqp3")
    kept = int(np.count_nonzero(np.abs(np.diagonal(qr)) > ORTHO_DROP_TOL))
    n_rows = m.shape[0]
    q, _, info = dorgqr(qr[:, :n_rows] if n_rows < m.shape[1] else qr, tau, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dorgqr")
    return q[:, :kept]


@functools.cache
def openblas_thread_controls():
    """(get, set) thread-count functions of every loaded OpenBLAS, found once.

    numpy and scipy wheels each bundle their own OpenBLAS. The shared objects
    mapped into this process (Linux ``/proc/self/maps``) whose file name
    contains "openblas" are opened with ctypes and searched for the plain
    OpenBLAS names and the scipy-openblas ones (with the ILP64 "64_" suffix).
    Empty where nothing is found, e.g. for another BLAS or another system.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # Fields: address, perms, offset, device, inode, then the path.
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])}
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for stem in ("openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads"):
            get = getattr(lib, stem.format("get"), None)
            set_ = getattr(lib, stem.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextmanager
def single_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread.

    OpenBLAS keeps one count for the whole process (in the wheels' pthreads
    build even its ``_local`` setter does), so this pins every thread of the
    process. The previous counts are restored when the block exits, normally
    or by an exception. Without an OpenBLAS whose setter is found it does
    nothing.
    """
    controls = openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def random_orthonormal(n, r, rng):
    """Haar-distributed (n, r) frame with orthonormal columns."""
    if r > n:
        raise ValueError(f"cannot fit {r} orthonormal columns in dimension {n}")
    gen = as_generator(rng)
    q, rr = np.linalg.qr(gen.standard_normal((n, r)))
    d = np.diag(rr)
    # Fixing the signs of R's diagonal makes the distribution rotation invariant.
    return q * np.where(d < 0, -1.0, 1.0)


def perturb_subspace(basis, target_angles_deg, rng):
    """Tilt each basis column into the orthogonal complement by a given angle.

    Column i of the result is cos(t_i) * basis_i + sin(t_i) * q_i with the q_i
    an orthonormal frame inside the complement of ``basis``, so the principal
    angles between the input and output spans are exactly sorted(target_angles).
    Requires ambient_dim >= 2 * rank to host the complement frame.
    """
    basis = np.asarray(basis, dtype=float)
    n, r = basis.shape
    angles = np.asarray(target_angles_deg, dtype=float)
    if angles.shape != (r,):
        raise ValueError(f"need {r} angles, got shape {angles.shape}")
    if np.any(angles < 0.0) or np.any(angles > 90.0):
        raise ValueError("target angles must lie in [0, 90] degrees")
    if n < 2 * r:
        raise ValueError(f"ambient dimension {n} too small to rotate {r} directions")
    frame = _complement_frame(basis, r, as_generator(rng))
    theta = np.radians(angles)
    return basis * np.cos(theta) + frame * np.sin(theta)


def _complement_frame(basis, r, gen):
    """Orthonormal (n, r) frame orthogonal to the span of ``basis``."""
    g = gen.standard_normal((basis.shape[0], r))
    g -= basis @ (basis.T @ g)
    q, rr = np.linalg.qr(g)
    if np.min(np.abs(np.diag(rr))) <= ORTHO_DROP_TOL:
        raise np.linalg.LinAlgError("degenerate draw for complement directions")
    # Second projection pass keeps orthogonality against the basis tight.
    q -= basis @ (basis.T @ q)
    q, _ = np.linalg.qr(q)
    return q
