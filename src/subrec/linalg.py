"""Dense linear-algebra substrate: SVD and subspace geometry.

Matrices are plain float ndarrays. A "subspace basis" is an (n, r) ndarray with
orthonormal columns; functions that construct one guarantee orthonormality to
roughly 1e-10, and functions that take one check it to 1e-8
(``orthonormal_basis``).

Some LAPACK routines are called through scipy's f2py wrappers (see
``_load_flapack``) rather than ``numpy.linalg``: on the loop's small inputs
numpy's wrapper costs more than the routine. The ``gesdd``, ``potrf`` and
``potrs`` wrappers hold the GIL while LAPACK runs; ``geqp3`` and ``orgqr``
release it, as ``numpy.linalg`` does. So a kernel large enough to matter to
the other threads of a trial pool stays on numpy. That is why the solver's
support step takes ``np.linalg.eigh`` of the n x n Gram matrix: on a 2-vCPU
AMD EPYC VM, the 30 x 30 support SVD through f2py cost a two-thread trial
pool about 5 % of its throughput.
"""

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np

# Residual-norm cutoff below which a column is treated as linearly dependent.
# Matches the reconstruction accuracy of double-precision SVD.
ORTHO_DROP_TOL = 1e-10

# A pass that reads more than this many bytes of sensing payload splits into
# slabs on the idle cores. On a 2-core EPYC VM a two-slab adjoint lost at 4.9 MB
# and won at 11.7 MB, so every n = 30 pass (at most 6.5 MB) stays one call.
SLAB_MIN_BYTES = 8 * 2**20

# Slabs a large pass splits into, set by ``single_blas_thread``; 1 outside.
_slabs_per_pass = 1


def _load_flapack():
    """scipy's compiled LAPACK wrappers, loaded without ``scipy.linalg``'s init.

    That init imports ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``,
    which roughly doubles the time and memory of ``import subrec``. The
    extension's own ``sys.modules`` entry is taken back out, so a later
    ``import scipy.linalg`` loads it as usual and gets the same function
    objects.
    """
    name = "scipy.linalg._flapack"
    scipy = importlib.util.find_spec("scipy")
    where = [os.path.join(d, "linalg") for d in (scipy.submodule_search_locations if scipy else [])]
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension {name} not found in {where}", name=name)
    registered = name in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not registered:
        del sys.modules[name]
    return module


_flapack = _load_flapack()
dgeqp3, dgesdd, dorgqr = _flapack.dgeqp3, _flapack.dgesdd, _flapack.dorgqr
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs


def finite_array(a):
    """``a`` as a float array with its sum of squares; ValueError on a NaN or an Inf.

    A NaN or Inf entry makes the sum NaN or Inf, so the array is scanned only
    when the sum is not finite, which finite entries whose squares overflow
    can also cause; those pass. The per-iteration kernels take this one dot
    product in place of ``np.asarray_chkfinite``'s pass of its own on every
    call, and the support step and the QR reuse the sum.
    """
    a = np.asarray(a, dtype=float)
    squares = np.vdot(a, a)
    if not squares < np.inf:
        np.asarray_chkfinite(a)
    return a, squares


def finite_matrix(m):
    """``finite_array`` of a matrix; ValueError also for an input that is not 2-d."""
    m, squares = finite_array(m)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    return m, squares


def orthonormal_basis(basis):
    """``finite_matrix`` of a basis; ValueError unless ||B^T B - I|| <= 1e-8."""
    basis, _ = finite_matrix(basis)
    if np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1])) > 1e-8:
        raise ValueError("basis columns are not orthonormal")
    return basis


def lapack_info(routine, info):
    """``info`` of a LAPACK call; ValueError if negative (an illegal argument)."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    return info


def svd(m):
    """Economy SVD of a finite real matrix.

    Returns (u, s, vh) with s nonincreasing and u @ diag(s) @ vh equal to the
    input to working precision. Raises ValueError on NaN/Inf entries or an
    input that is not 2-d, and np.linalg.LinAlgError if the decomposition
    does not converge. LAPACK gesdd (see ``_load_flapack``) is called
    directly: on the loop's 9 x 9 blocks ``np.linalg.svd``'s wrapper costs
    more than the decomposition.
    """
    m, _ = finite_matrix(m)
    if m.size == 0:
        return np.zeros((m.shape[0], 0)), np.zeros(0), np.zeros((0, m.shape[1]))
    u, s, vh, info = dgesdd(m, compute_uv=1, full_matrices=0)
    if lapack_info("dgesdd", info) > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    return u, s, vh


def principal_angles(b1, b2):
    """Principal angles between two subspaces, in degrees, nondecreasing.

    ``b1`` and ``b2`` are orthonormal bases (``orthonormal_basis``) of one
    space. The cosines are the singular values of b1.T @ b2 (descending),
    the sines those of the part of b2 outside span(b1) (ascending), and each
    angle is arctan2(sine, cosine). arccos alone resolves angles near 0 only to
    about 1e-6 degrees, because 1 - cos(t) ~ t^2 / 2 sinks below rounding there.
    """
    b1 = orthonormal_basis(b1)
    b2 = orthonormal_basis(b2)
    if b1.shape[0] != b2.shape[0]:
        raise ValueError(f"ambient dimensions differ: {b1.shape[0]} vs {b2.shape[0]}")
    overlap = b1.T @ b2
    cosines = np.linalg.svd(overlap, compute_uv=False)
    sines = np.sort(np.linalg.svd(b2 - b1 @ overlap, compute_uv=False))[: cosines.size]
    return np.degrees(np.arctan2(sines, cosines))


def orthonormalize(m):
    """Rank-revealing orthonormal basis for the column space of ``m``.

    Columns whose residual against the already-accepted basis falls below
    ORTHO_DROP_TOL are dropped (pivoted QR). A zero or empty input yields an
    (n, 0) basis; NaN/Inf entries raise ValueError. The result equals the
    leading columns of ``scipy.linalg.qr(m, mode="economic", pivoting=True)``
    bit for bit: LAPACK geqp3 and orgqr (see ``_load_flapack``) are called
    directly, which saves that wrapper's workspace queries and copies on the
    small inputs of the loop.
    """
    m, squares = finite_matrix(m)
    if m.shape[1] == 0 or squares == 0 and not m.any():
        return np.zeros((m.shape[0], 0))
    qr, _, tau, _, info = dgeqp3(m)
    lapack_info("dgeqp3", info)
    kept = int(np.count_nonzero(np.abs(qr.diagonal()) > ORTHO_DROP_TOL))
    n_rows = m.shape[0]
    q, _, info = dorgqr(qr[:, :n_rows] if n_rows < m.shape[1] else qr, tau, overwrite_a=1)
    lapack_info("dorgqr", info)
    return q[:, :kept]


def loaded_openblas():
    """(library, name) for every OpenBLAS loaded into this process.

    numpy and scipy wheels each bundle their own OpenBLAS. The shared objects
    mapped into this process (Linux ``/proc/self/maps``) whose file name
    contains "openblas" are opened with ctypes. ``name`` spells an OpenBLAS
    function in the library's scheme, e.g. ``name.format("get_corename")``:
    plain or with scipy-openblas's "scipy_" prefix, each without a suffix or
    with an ILP64 one, "64_" (numpy 1.x wheels, scipy-openblas64) or "_64".
    Empty where nothing is found, e.g. for another BLAS or another system.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # Fields: address, perms, offset, device, inode, then the path.
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])}
    prefixes, suffixes = ("", "scipy_"), ("", "64_", "_64")
    spellings = [f"{prefix}openblas_{{}}{suffix}" for prefix in prefixes for suffix in suffixes]
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in spellings:
            if hasattr(lib, name.format("get_num_threads")):
                found.append((lib, name))
                break
    return tuple(found)


@functools.cache
def openblas_thread_controls():
    """(get, set) thread-count functions of every loaded OpenBLAS, found once."""
    controls = []
    for lib, name in loaded_openblas():
        get = getattr(lib, name.format("get_num_threads"), None)
        set_ = getattr(lib, name.format("set_num_threads"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


@contextmanager
def single_blas_thread(solves=1):
    """Run the block with every loaded OpenBLAS on one thread.

    OpenBLAS keeps one count for the whole process (in the wheels' pthreads
    build even its ``_local`` setter does), so this pins every thread of the
    process. Inside the block a pass over a large sensing payload splits into
    usable_cpus() // ``solves`` slabs, counted once on entry, on the cores the
    pin leaves idle. The previous counts are restored when the block exits,
    normally or by an exception. Without an OpenBLAS whose setter is found it
    only enables slabs.
    """
    global _slabs_per_pass
    controls = openblas_thread_controls()
    previous = [get() for get, _ in controls]
    previous_slabs, _slabs_per_pass = _slabs_per_pass, usable_cpus() // solves
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        _slabs_per_pass = previous_slabs
        for (_, set_), count in zip(controls, previous):
            set_(count)


def usable_cpus():
    """The number of CPUs this process may run on: its affinity mask where there is one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def slab_bounds(length, payload_bytes, align=1):
    """Slab boundaries [0, ..., length] that split a pass over range(length).

    One slab unless the pass reads more than SLAB_MIN_BYTES inside
    ``single_blas_thread(solves)``; then up to the slab count it set on entry,
    each a near-equal run of whole ``align``-sized units.
    """
    count = _slabs_per_pass if payload_bytes > SLAB_MIN_BYTES else 1
    units = -(-length // align)
    count = max(1, min(count, units))
    return [min(length, align * (units * i // count)) for i in range(count + 1)]


def _new_slab_pool():
    global _slab_pool
    _slab_pool = ThreadPoolExecutor(max(1, usable_cpus() - 1), thread_name_prefix="subrec-slab")


# Threads start on first use. A forked child inherits the pool but none of its
# threads, so tasks submitted to it would never run; it gets a pool of its own.
_new_slab_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_slab_pool)


def run_slabs(work, bounds):
    """Call work(start, stop) for each slab of ``bounds`` and wait for all of them.

    Slab 0 runs on the calling thread, the rest on a process-local thread
    pool; numpy releases the GIL inside its BLAS calls.
    """
    slabs = list(zip(bounds, bounds[1:]))
    futures = [_slab_pool.submit(work, *slab) for slab in slabs[1:]]
    try:
        work(*slabs[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def run_on_spare_core(fn, *args):
    """Start fn(*args) on the slab pool's threads and return its Future.

    ``fn`` must not run slabs itself: with the pool's one thread on a 2-core
    machine it would wait for a slab queued behind itself.
    """
    return _slab_pool.submit(fn, *args)


def require_int(name, value, lo, hi=None):
    """``value`` as an int; ValueError unless an integer, not a bool, in [lo, hi] (or >= lo)."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not is_int or value < lo or hi is not None and value > hi:
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def angle_vector(name, angles, count=None):
    """The prior angles ``name``: a vector of ``count`` (or one or more) in [0, 90] degrees."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1 or count not in (None, angles.size) or not angles.size:
        length = ">= 1" if count is None else count
        raise ValueError(f"{name} must be a vector of length {length}, got shape {angles.shape}")
    if not np.all((angles >= 0.0) & (angles <= 90.0)):
        raise ValueError("prior angles must lie in [0, 90] degrees")
    return angles


def require_prior_room(n, r):
    """ValueError unless dimension ``n`` holds r prior and r complement directions (n >= 2r)."""
    if n < 2 * r:
        raise ValueError(f"priors of rank {r} need dimension at least {2 * r}, got {n}")


def random_orthonormal(n, r, rng):
    """Haar-distributed (n, r) frame with orthonormal columns, for an integer r in [1, n]."""
    r = require_int("rank", r, 1, n)
    q, rr = np.linalg.qr(np.random.default_rng(rng).standard_normal((n, r)))
    d = np.diag(rr)
    # Fixing the signs of R's diagonal makes the distribution rotation invariant.
    return q * np.where(d < 0, -1.0, 1.0)


def perturb_subspace(basis, target_angles_deg, rng):
    """Tilt each basis column into the orthogonal complement by a given angle.

    Column i of the result is cos(t_i) * basis_i + sin(t_i) * q_i with the q_i
    an orthonormal frame inside the complement of ``basis``, so the principal
    angles between the input and output spans are exactly sorted(target_angles).
    Requires an orthonormal basis (``orthonormal_basis``), one angle per
    column (``angle_vector``) and room for the complement frame
    (``require_prior_room``).
    """
    basis = orthonormal_basis(basis)
    n, r = basis.shape
    angles = angle_vector("target_angles_deg", target_angles_deg, r)
    require_prior_room(n, r)
    frame = _complement_frame(basis, r, np.random.default_rng(rng))
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
