"""Greedy low-rank recovery with optional subspace-prior weighting.

Each iteration: form the de-weighted correlation proxy, take its top-2r
singular subspaces (from the eigenpairs of its Gram matrix, see
``identify_support``) as new support candidates, merge them with the previous
support (dimension at most 3r), solve least squares restricted to the merged
span, truncate back to rank r, and de-weight for the estimate. With no
weighting the loop is the plain unweighted baseline (admira).

After the merge the iteration works in support coordinates, on the
k_u x k_v coefficient block M of the estimate U M V^T and the design D, the
linear map vec(M) -> A(Qu^-1 U M V^T Qv^-1) of the merged support:

* Least squares solves the normal equations D^T D m = D^T y by Cholesky when
  the system is tall and the factor is well conditioned, and falls back to
  SVD-based ``np.linalg.lstsq`` (gelsd) on the explicit design otherwise.
  For completion the normal equations come from the sampling mask and the
  explicit design is built only for that fallback; see
  ``least_squares_on_support``.
* Truncation to rank r takes the SVD of the small block M, not of the n x n
  estimate. The merged bases are orthonormal, so with M = a diag(s) b^T the
  factors (U a, s, V b) are an SVD of U M V^T and the rank-r truncation is
  the same one, still in the weighted domain.
* The residual is y - D vec(M_r), which equals y - A(Qu^-1 U M_r V^T Qv^-1)
  by the definition of D, so no pass over the sensing payload is needed after
  the solve. The design is released before the next iteration.

Under ``linalg.single_blas_thread`` the two passes of an iteration over a large
Gaussian sensing tensor, the adjoint and the design assembly, split into slabs
on the idle cores (``linalg.slab_bounds``) with the same bits as one pass.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import dpotrf, dpotrs
from .operators import COMPLETION, WeightedOperator

# A residual decrease below this relative amount counts as a flat iteration;
# three flat iterations in a row stop the loop.
STAGNATION_DECREASE = 1e-10
STAGNATION_RUN = 3

# The least-squares kernel solves the normal equations only when the ratio of
# the Cholesky factor's smallest to largest diagonal entry exceeds this value.
# The ratio is at least 1/cond(D), so every design it rejects has
# cond(D) >= 1e4, where the squared condition number of the normal equations
# would cost about eight of the sixteen digits; those go to gelsd. Over the
# 2,399 calls of three trials per ratio on the close_close, its completion and
# noisy variants, and far_far presets, every design was tall and the ratio
# never fell below 0.0098 (cond(D) <= 301, coefficients within 7.3e-13 of
# gelsd), two orders of magnitude above the cut-off, so all of it stays on
# the fast path.
GRAM_DIAG_RATIO_MIN = 1e-4

# identify_support reads the support off the proxy's Gram matrix P P^T only
# while s_k / s_1 >= GRAM_SIGMA_RATIO_MIN (about 1.5e-3): there its right
# columns, orthogonal to about eps s_1^2 / s_k^2, keep ORTHO_DROP_TOL. Over the
# 4,941 proxies of two trials of every preset (seed 977) the smallest
# s_2r / s_1 was 0.0064. Below a squared Frobenius norm of GRAM_TRACE_MIN the
# Gram's entries lose digits to underflow.
GRAM_SIGMA_RATIO_MIN = float(np.sqrt(np.finfo(float).eps / linalg.ORTHO_DROP_TOL))
GRAM_TRACE_MIN = np.finfo(float).tiny / np.finfo(float).eps

# The Gaussian design is assembled a block of sensing slices at a time, and
# the intermediate g^T A_i (slices x k_u x n doubles) of the blocks in flight,
# one per slab, is kept under this many bytes, so a solve never holds the
# whole p x k_u x n intermediate. It was tuned on a Xeon VM with 4 MiB of L2
# per core, where a block stayed in cache until it was multiplied by h; the
# 2-vCPU AMD EPYC VM of later measurements has 1 MiB of L2 per core. Every
# n = 30 design (at most 1.55 MB at p = 720, k_u = 9) fits in one block;
# cutting one that small into blocks cost about 8 %.
DESIGN_BLOCK_BYTES = 2 * 2**20


@dataclass(eq=False)
class Support:
    """Current support as a pair of orthonormal bases (left n x k_u, right n x k_v).

    The representable set is {left @ M @ right.T : M arbitrary}, which contains
    every atom built from the stored directions.
    """

    left: np.ndarray
    right: np.ndarray

    @classmethod
    def empty(cls, n):
        return cls(np.zeros((n, 0)), np.zeros((n, 0)))

    @property
    def dims(self):
        return (self.left.shape[1], self.right.shape[1])

    def is_empty(self):
        return self.left.shape[1] == 0 or self.right.shape[1] == 0


@dataclass(eq=False)
class SolverConfig:
    """Configuration for one solve.

    ``weighting`` is None for the unweighted baseline or a (Qu, Qv) pair of
    WeightOperator; single-weight specs give the one-weight variant, per
    direction specs the multi-weight variant.
    """

    rank: int
    max_iterations: int = 20
    residual_tolerance: float = 1e-6
    weighting: object = None

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.residual_tolerance <= 0.0:
            raise ValueError("residual_tolerance must be positive")


@dataclass(frozen=True)
class IterationRecord:
    residual_norm: float
    merged_dims: tuple
    support_dims: tuple


@dataclass(eq=False)
class SolverRun:
    """Outcome of a solve: final de-weighted estimate plus the iteration trace.

    ``estimates`` holds the de-weighted estimate of every iteration, so
    ``estimates[-1]`` is ``estimate``; a solve keeps up to
    ``max_iterations`` n x n arrays.
    """

    estimate: np.ndarray
    iterations: int
    trace: list
    stop_reason: str
    estimates: list


def identify_support(proxy, k):
    """Top-k singular subspaces of the proxy.

    This is the size-k support maximizing the Frobenius norm of the projected
    proxy (Eckart-Young). An all-zero proxy yields an empty support, which
    signals stagnation upstream. k is capped at the smaller dimension, and
    NaN/Inf entries raise ValueError.

    The left basis is the top-k eigenvectors of the Gram matrix P P^T
    (``np.linalg.eigh``), the right basis is P^T times it with each column
    scaled to unit norm, and those norms are the singular values s_i. On the
    proxies of close_close solves (one thread, 2-vCPU AMD EPYC VM) the whole
    step took 53 us against 64 us for ``np.linalg.svd`` at n = 30
    (completion) and 286 against 416 us at n = 80 (Gaussian). The Gram squares the spread of the singular values, so the right
    columns are orthogonal only to about eps s_1^2 / (s_i s_j). Where that
    could exceed ORTHO_DROP_TOL (see GRAM_SIGMA_RATIO_MIN), or where the Gram
    would overflow or lose digits to underflow, the support is read off the
    full SVD (``linalg.svd``) instead, as it is for any proxy of rank below k.
    """
    if k < 1:
        raise ValueError("support size must be at least 1")
    proxy = np.asarray_chkfinite(proxy, dtype=float)
    if not proxy.any():
        return Support.empty(proxy.shape[0])
    k = min(k, *proxy.shape)
    # The squared Frobenius norm is the Gram's trace; where it is finite, no
    # entry of the Gram overflows.
    if GRAM_TRACE_MIN <= np.vdot(proxy, proxy) < np.inf:
        left = np.linalg.eigh(proxy @ proxy.T)[1][:, : -k - 1 : -1].copy()
        right = proxy.T @ left
        sigma = np.linalg.norm(right, axis=0)
        if sigma[-1] >= GRAM_SIGMA_RATIO_MIN * sigma[0]:
            return Support(left, right / sigma)
    u, _, vh = linalg.svd(proxy)
    return Support(u[:, :k], vh[:k].T)


def merge_support(new, prev):
    """Union of two supports: orthonormal bases for the concatenated spans."""
    left = linalg.orthonormalize(np.hstack([new.left, prev.left]))
    right = linalg.orthonormalize(np.hstack([new.right, prev.right]))
    return Support(left, right)


def least_squares_on_support(op, y, support):
    """Minimum-norm least squares confined to span{U M V^T} of the support.

    The design D maps vec(M) for a k_u x k_v block M to op.apply(U M V^T).
    Returns ``(coef, measure)``: the block M minimizing ||y - D vec(M)|| (the
    estimate is U M V^T) and a function with measure(M') = D vec(M'), so
    callers can measure any block without touching the operator again. ``y``
    must be a finite vector of shape (p,); anything else raises ValueError.

    A tall system (p >= k_u * k_v) is solved through the normal equations:
    LAPACK potrf factors the Gram matrix D^T D and potrs gives M; both are
    scipy's compiled wrappers, taken from ``linalg``, which loads them without
    importing ``scipy.linalg`` (see ``linalg._load_flapack``). With
    g = Qu^-1 U and h = Qv^-1 V, Gaussian sensing forms the Gram from the
    explicit p x (k_u * k_v) design in about p k^4 flops, and measure(M') is
    D vec(M'). Row i of that design is vec(g^T A_i h) for the sensing matrix
    A_i, formed as (g^T A_i) h. Both orders cost about 2 p k n^2 flops, and
    which is faster depends on the machine and on n. On one thread with
    k = 9, g^T (A_i h) took 30 ms against 23 ms at n = 80, p = 2560 on a Xeon
    VM. On a 2-vCPU AMD EPYC VM it was 3-7 % slower at n = 30 for every p
    from 180 to 720 (0.236 against 0.221 ms at p = 720) but faster at n = 80,
    p = 2560 (5.9 against 6.7 ms; medians of blocked designs). This order is
    kept, which keeps the Gaussian design's bits.

    For completion row i of D is g[r_i] kron h[c_i]. With the rows
    of GG and HH holding g_r kron g_r and h_c kron h_c and S the operator's
    0/1 sampling mask, D^T D is GG^T S HH reordered to the (i, j), (i', j')
    index order, and D^T y = vec(g^T Y h) for the measurements Y scattered
    through the operator's flat index: about n k^4 flops, without building
    D. The mask and the scatter rely on the sampled index pairs being
    distinct, which ``make_completion`` guarantees and the operator's adjoint
    assumes. measure(M') gathers the sampled entries of the n x n product
    (g M') h^T at the flat index.

    The Gram squares the condition number, so the Cholesky solution is kept
    only when the factorization succeeds and the ratio of the factor's
    smallest to largest diagonal entry exceeds GRAM_DIAG_RATIO_MIN. A wide
    system, a failed factorization or a ratio at or below the cut-off builds
    the explicit design and goes to SVD-based ``np.linalg.lstsq`` (gelsd).
    The minimum-norm contract holds on both paths: a Gram matrix with a
    Cholesky factor is positive definite, so the design has full column rank
    and its least-squares solution is unique, hence minimum-norm;
    rank-deficient and wide systems reach gelsd, which returns the
    minimum-norm solution.
    """
    if support.is_empty():
        raise ValueError("support is empty")
    wop = op if isinstance(op, WeightedOperator) else WeightedOperator(op)
    base = wop.base
    y = np.asarray_chkfinite(y, dtype=float)
    if y.shape != (base.p,):
        raise ValueError(f"expected {base.p} measurements, got shape {y.shape}")
    u, v = support.left, support.right
    # The contiguous copies keep the BLAS summation order independent of how
    # the support arrays happen to be strided.
    g = np.ascontiguousarray(u) if wop.qu_inv is None else wop.qu_inv @ u
    h = np.ascontiguousarray(v) if wop.qv_inv is None else wop.qv_inv @ v
    tall = base.p >= g.shape[1] * h.shape[1]
    coef = None
    if base.kind == COMPLETION:

        def measure(m):
            return ((g @ m) @ h.T).take(base.flat)

        if tall:
            coef = _cholesky_solve(*_completion_normal_equations(base, g, h, y))
        if coef is None:
            rows, cols = base.indices[:, 0], base.indices[:, 1]
            design = (g[rows][:, :, None] * h[cols][:, None, :]).reshape(base.p, -1)
    else:
        design = _gaussian_design(base.mats, g, h)

        def measure(m):
            return design @ m.ravel()

        if tall:
            coef = _cholesky_solve(design.T @ design, design.T @ y)
    if coef is None:
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
    return coef.reshape(u.shape[1], v.shape[1]), measure


def _gaussian_design(mats, g, h):
    """The p x (k_u * k_v) design with rows vec(g^T A_i h), streamed in blocks.

    A large ``mats`` splits into slabs of contiguous slices on the idle cores
    (``linalg.slab_bounds``), each streamed in blocks of DESIGN_BLOCK_BYTES /
    slabs, so the g^T A_i alive at once stay under DESIGN_BLOCK_BYTES (or one
    slice per slab). Every block makes the same per-slice products as one
    batched call over all of ``mats``, so the design is the same bit for bit.
    """
    p, n = mats.shape[:2]
    k_u, k_v = g.shape[1], h.shape[1]
    design = np.empty((p, k_u, k_v))
    bounds = linalg.slab_bounds(p, mats.nbytes)
    step = max(1, DESIGN_BLOCK_BYTES // (len(bounds) - 1) // (k_u * n * mats.itemsize))

    def assemble(start, stop):
        for first in range(start, stop, step):
            block = slice(first, min(first + step, stop))
            np.matmul(np.matmul(g.T, mats[block]), h, out=design[block])

    linalg.run_slabs(assemble, bounds)
    return design.reshape(p, k_u * k_v)


def _completion_normal_equations(base, g, h, y):
    """D^T D and D^T y of a completion design, assembled from the sampling mask."""
    k_u, k_v = g.shape[1], h.shape[1]
    gg = (g[:, :, None] * g[:, None, :]).reshape(base.n, k_u * k_u)
    hh = (h[:, :, None] * h[:, None, :]).reshape(base.n, k_v * k_v)
    # Entry (i i', j j') of GG^T S HH is the Gram entry ((i, j), (i', j')).
    gram = (gg.T @ (base.mask @ hh)).reshape(k_u, k_u, k_v, k_v).transpose(0, 2, 1, 3)
    return gram.reshape(k_u * k_v, k_u * k_v), (g.T @ base.scatter(y) @ h).ravel()


def _cholesky_solve(gram, rhs):
    """Solve gram x = rhs by Cholesky; None when the factor fails the ratio test.

    ``gram`` must be symmetric and is overwritten. Its transpose is the
    Fortran-ordered array potrf wants, so the factor is formed in place
    without f2py's copy; where ``gram`` is symmetric only to rounding, as
    the mask-built completion Gram can be, the factor moves at that level.
    """
    factor, info = dpotrf(gram.T, lower=0, clean=0, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    if info > 0:
        return None
    diag = np.diagonal(factor)
    if not diag.min() > GRAM_DIAG_RATIO_MIN * diag.max():
        return None
    coef, info = dpotrs(factor, rhs, lower=0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return coef


def solve(operator, y, config):
    """Run the greedy recovery loop.

    Parameters
    ----------
    operator : MeasurementOperator
        The raw (unweighted) measurement map.
    y : array of shape (p,)
        Measurements of the target matrix.
    config : SolverConfig

    Returns
    -------
    SolverRun with the de-weighted estimate (rank <= config.rank), iteration
    count, per-iteration trace and estimates, and the stop reason:
    'tolerance' when the relative measurement residual falls below
    config.residual_tolerance, 'stagnation' after three flat iterations, else
    'max_iter'.
    """
    y = np.asarray_chkfinite(y, dtype=float)
    if y.shape != (operator.p,):
        raise ValueError(f"expected {operator.p} measurements, got shape {y.shape}")
    n = operator.n
    r = config.rank
    if r > n:
        raise ValueError(f"rank {r} exceeds matrix dimension {n}")

    weighting = config.weighting
    qu_inv, qv_inv = (None, None) if weighting is None else (q.q_inv for q in weighting)
    wop = WeightedOperator(operator, qu_inv, qv_inv)

    support = Support.empty(n)
    y_norm = float(np.linalg.norm(y))
    residual = y.copy()
    trace = []
    estimates = []
    stop_reason = "max_iter"
    prev_norm = None
    flat_run = 0
    iterations = 0

    for _ in range(config.max_iterations):
        iterations += 1
        merged = merge_support(identify_support(wop.adjoint(residual), 2 * r), support)
        if merged.is_empty():
            coef = np.zeros((0, 0))
        else:
            coef, measure = least_squares_on_support(wop, y, merged)
        if coef.any():
            a, s, bh = linalg.svd(coef)
            coef_r = (a[:, :r] * s[:r]) @ bh[:r]
            support = Support(merged.left @ a[:, :r], merged.right @ bh[:r].T)
            x_hat = (support.left * s[:r]) @ support.right.T
            residual = y - measure(coef_r)
        else:
            x_hat = np.zeros((n, n))
            support = Support.empty(n)
            residual = y.copy()
        # Drop the Gaussian design (held by measure) before the next iteration
        # assembles another, so two never coexist (on a large Gaussian operator
        # that raises peak memory).
        measure = None
        x_rec = wop.deweight(x_hat)
        res_norm = float(np.linalg.norm(residual))
        trace.append(IterationRecord(res_norm, merged.dims, support.dims))
        estimates.append(x_rec)
        if res_norm <= config.residual_tolerance * y_norm:
            stop_reason = "tolerance"
            break
        if prev_norm is not None:
            if prev_norm - res_norm < STAGNATION_DECREASE * prev_norm:
                flat_run += 1
            else:
                flat_run = 0
            if flat_run >= STAGNATION_RUN:
                stop_reason = "stagnation"
                break
        prev_norm = res_norm

    return SolverRun(x_rec, iterations, trace, stop_reason, estimates)
