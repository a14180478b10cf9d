"""Greedy low-rank recovery with optional subspace-prior weighting.

Each iteration: form the de-weighted correlation proxy, take its top-2r
singular subspaces (from the eigenpairs of its Gram matrix, see
``identify_support``) as new support candidates, merge them with the previous
support (dimension at most 3r), solve least squares restricted to the merged
span, truncate back to rank r, and form the de-weighted estimate. With no
weighting the loop is the plain unweighted baseline (admira).

After the merge the iteration works in support coordinates, on the
k_u x k_v coefficient block M of the estimate U M V^T and the design D, the
linear map vec(M) -> A(Qu^-1 U M V^T Qv^-1) of the merged support, and
``least_squares_on_support`` solves for M. Truncation to rank r takes the
SVD of M, not of the n x n estimate: the merged bases are orthonormal, so
with M = a diag(s) b^T the factors (U a, s, V b) are an SVD of U M V^T and
the rank-r truncation is the same one, still in the weighted domain. The
estimate is formed once, de-weighted, as (g M_r) h^T with g = Qu^-1 U and
h = Qv^-1 V, and the residual is y - D vec(M_r), which equals
y - A(Qu^-1 U M_r V^T Qv^-1) by the definition of D, so no pass over the
sensing payload follows the solve. The design is released before the next
iteration.

``iterate`` is the only copy of the loop, a generator of each iteration's
record and de-weighted estimate. Its consumers, ``solve`` and the harness's
``bench.solve``, bring the iteration budget, and neither keeps the iterates.

Under ``linalg.single_blas_thread`` the two passes of an iteration over a large
Gaussian sensing tensor, the adjoint and the design assembly, split into slabs
on the idle cores (``linalg.slab_bounds``) with the same bits as one pass.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import dpotrf, dpotrs, require_int
from .operators import COMPLETION, WeightedOperator
from .weighting import WeightOperator

# The stop rule: a residual at most RESIDUAL_TOLERANCE * ||y||, or
# STAGNATION_RUN flat iterations in a row, each decreasing the residual by
# less than STAGNATION_DECREASE relative; ``solve`` and a benchmark trial
# also stop after MAX_ITERATIONS iterations (a trial's budget to succeed in).
MAX_ITERATIONS = 20
RESIDUAL_TOLERANCE = 1e-6
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
    WeightOperator, else ValueError; single-weight specs give the one-weight
    variant, per direction specs the multi-weight variant.
    """

    rank: int
    weighting: object = None

    def __post_init__(self):
        self.rank = require_int("rank", self.rank, 1)
        pair = self.weighting
        if pair is not None and not (
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and all(isinstance(q, WeightOperator) for q in pair)
        ):
            got = type(pair).__name__
            if isinstance(pair, (list, tuple)):
                got = f"({', '.join(type(q).__name__ for q in pair)})"
            raise ValueError(f"weighting must be None or a (Qu, Qv) pair of WeightOperator, got {got}")


@dataclass(frozen=True)
class IterationRecord:
    """One iteration: its residual norm, support dimensions and stop rule met (or None)."""

    residual_norm: float
    merged_dims: tuple
    support_dims: tuple
    stop: str


@dataclass(eq=False)
class SolverRun:
    """Outcome of a solve: final de-weighted estimate plus the iteration trace."""

    estimate: np.ndarray
    iterations: int
    trace: list
    stop_reason: str


def identify_support(proxy, k):
    """Top-k singular subspaces of the proxy.

    This is the size-k support maximizing the Frobenius norm of the projected
    proxy (Eckart-Young). An all-zero proxy yields an empty support, which
    signals stagnation upstream. k is capped at the smaller dimension, and a
    proxy that is not a finite 2-d array raises ValueError
    (``linalg.finite_matrix``).

    The left basis is the top-k eigenvectors of the Gram matrix P P^T
    (``np.linalg.eigh``), the right basis is P^T times it with each column
    scaled to unit norm, and those norms are the singular values s_i. On the
    proxies of close_close solves (one thread, 2-vCPU AMD EPYC VM) the whole
    step took 53 us against 64 us for ``np.linalg.svd`` at n = 30
    (completion) and 286 against 416 us at n = 80 (Gaussian). The Gram
    squares the spread of the singular values, so the right columns are
    orthogonal only to about eps s_1^2 / (s_i s_j). Where that
    could exceed ORTHO_DROP_TOL (see GRAM_SIGMA_RATIO_MIN), or where the Gram
    would overflow or lose digits to underflow, the support is read off the
    full SVD (``linalg.svd``) instead, as it is for any proxy of rank below k.
    """
    if k < 1:
        raise ValueError("support size must be at least 1")
    # The squared Frobenius norm is the Gram's trace; where it is finite, no
    # entry of the Gram overflows.
    proxy, trace = linalg.finite_matrix(proxy)
    if trace == 0 and not proxy.any():
        return Support.empty(proxy.shape[0])
    k = min(k, *proxy.shape)
    if GRAM_TRACE_MIN <= trace < np.inf:
        left = np.linalg.eigh(proxy @ proxy.T)[1][:, : -k - 1 : -1].copy()
        right = proxy.T @ left
        sigma = np.sqrt(np.add.reduce(right * right, axis=0))
        if sigma[-1] >= GRAM_SIGMA_RATIO_MIN * sigma[0]:
            return Support(left, right / sigma)
    u, _, vh = linalg.svd(proxy)
    return Support(u[:, :k], vh[:k].T)


def merge_support(new, prev):
    """Union of two supports: orthonormal bases for the concatenated spans."""
    left = linalg.orthonormalize(np.concatenate([new.left, prev.left], axis=1))
    right = linalg.orthonormalize(np.concatenate([new.right, prev.right], axis=1))
    return Support(left, right)


def least_squares_on_support(wop, y, support):
    """Minimum-norm least squares confined to span{U M V^T} of the support.

    The design D maps vec(M) for a k_u x k_v block M to wop.apply(U M V^T)
    for the WeightedOperator ``wop``. Returns ``(coef, estimate)``: the block
    M minimizing ||y - D vec(M)|| and a function with estimate(M') =
    (Qu^-1 U M' V^T Qv^-1, D vec(M')), any block's de-weighted matrix and its
    measurements, formed without touching the operator again. ``y`` must be a
    finite vector of shape (p,); anything else raises ValueError
    (``MeasurementOperator.measurements``).

    A tall system (p >= k_u * k_v) is solved through the normal equations:
    LAPACK potrf factors the Gram matrix D^T D and potrs gives M; both are
    scipy's compiled wrappers, taken from ``linalg``, which loads them without
    importing ``scipy.linalg`` (see ``linalg._load_flapack``). With
    g = Qu^-1 U and h = Qv^-1 V, Gaussian sensing forms the Gram from the
    explicit p x (k_u * k_v) design in about p k^4 flops, and estimate(M')
    measures through it. Row i of that design is vec(g^T A_i h) for the
    sensing matrix A_i, formed as (g^T A_i) h, which keeps the design's bits:
    g^T (A_i h) costs the same 2 p k n^2 flops, and on one thread of a 2-vCPU
    AMD EPYC VM (k = 9) it was 3-7 % slower at n = 30 and faster at n = 80.

    For completion row i of D is g[r_i] kron h[c_i]. With the rows
    of GG and HH holding g_r kron g_r and h_c kron h_c and S the operator's
    0/1 sampling mask, D^T D is GG^T S HH reordered to the (i, j), (i', j')
    index order, and D^T y = vec(g^T Y h) for the measurements Y scattered
    through the operator's flat index: about n k^4 flops, without building
    D. The mask and the scatter rely on the sampled index pairs being
    distinct, which the operator checks when it is built. estimate(M')
    measures by gathering its matrix (g M') h^T at the flat index.

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
    base = wop.base
    y = base.measurements(y)
    u, v = support.left, support.right
    # The contiguous copies keep the BLAS summation order independent of how
    # the support arrays happen to be strided.
    g = np.ascontiguousarray(u) if wop.qu_inv is None else wop.qu_inv @ u
    h = np.ascontiguousarray(v) if wop.qv_inv is None else wop.qv_inv @ v
    tall = base.p >= g.shape[1] * h.shape[1]
    coef = None
    if base.kind == COMPLETION:
        if tall:
            coef = _cholesky_solve(*_completion_normal_equations(base, g, h, y))
        if coef is None:
            rows, cols = base.indices[:, 0], base.indices[:, 1]
            design = (g[rows][:, :, None] * h[cols][:, None, :]).reshape(base.p, -1)
    else:
        design = _gaussian_design(base.mats, g, h)
        if tall:
            coef = _cholesky_solve(design.T @ design, design.T @ y)
    if coef is None:
        coef = np.linalg.lstsq(design, y, rcond=None)[0]

    def estimate(m):
        x = (g @ m) @ h.T
        return x, (x.take(base.flat) if base.kind == COMPLETION else design @ m.ravel())

    return coef.reshape(u.shape[1], v.shape[1]), estimate


def _gaussian_design(mats, g, h):
    """The p x (k_u * k_v) design with rows vec(g^T A_i h), streamed in blocks.

    A large ``mats`` splits into slabs of contiguous slices on the idle cores
    (``linalg.slab_bounds``), each streamed in blocks of DESIGN_BLOCK_BYTES /
    slabs, so the g^T A_i alive at once stay under DESIGN_BLOCK_BYTES (or one
    slice per slab). Every block makes the same per-slice products as one
    batched call over all of ``mats``, so the design is the same bit for bit.
    A pass of one slab and one block is that call, with no closure or pool.
    """
    p, n = mats.shape[:2]
    k_u, k_v = g.shape[1], h.shape[1]
    bounds = linalg.slab_bounds(p, mats.nbytes)
    step = max(1, DESIGN_BLOCK_BYTES // (len(bounds) - 1) // (k_u * n * mats.itemsize))
    if len(bounds) == 2 and step >= p:
        return np.matmul(np.matmul(g.T, mats), h).reshape(p, k_u * k_v)
    design = np.empty((p, k_u, k_v))

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
    if linalg.lapack_info("dpotrf", info) > 0:
        return None
    diag = factor.diagonal()
    if not diag.min() > GRAM_DIAG_RATIO_MIN * diag.max():
        return None
    coef, info = dpotrs(factor, rhs, lower=0)
    linalg.lapack_info("dpotrs", info)
    return coef


def iterate(operator, y, config):
    """The greedy recovery loop, yielding (IterationRecord, estimate) per iteration.

    ``operator`` is the raw (unweighted) MeasurementOperator and ``y`` its
    measurements of the target, a finite vector of shape (p,), with the
    ValueError of ``MeasurementOperator.measurements`` otherwise, checked when
    the first iteration is taken. Each estimate is de-weighted and of rank at
    most config.rank. A record's ``stop`` is 'tolerance' when the relative
    residual falls to RESIDUAL_TOLERANCE, 'stagnation' after STAGNATION_RUN
    flat iterations, else None; the generator ends after a stop. It has no
    iteration cap: each consumer brings its own budget.
    """
    y = operator.measurements(y)
    n = operator.n
    r = require_int("rank", config.rank, 1, n)

    weighting = config.weighting
    qu_inv, qv_inv = (None, None) if weighting is None else (q.q_inv for q in weighting)
    wop = WeightedOperator(operator, qu_inv, qv_inv)

    support = Support.empty(n)
    tolerance = RESIDUAL_TOLERANCE * math.sqrt(y.dot(y))
    residual = y.copy()
    prev_norm, flat_run, stop = None, 0, None

    while stop is None:
        merged = merge_support(identify_support(wop.adjoint(residual), 2 * r), support)
        if merged.is_empty():
            coef = np.zeros((0, 0))
        else:
            coef, estimate = least_squares_on_support(wop, y, merged)
        if coef.any():
            a, s, bh = linalg.svd(coef)
            support = Support(merged.left @ a[:, :r], merged.right @ bh[:r].T)
            x_rec, fitted = estimate((a[:, :r] * s[:r]) @ bh[:r])
            residual = y - fitted
        else:
            x_rec = np.zeros((n, n))
            support = Support.empty(n)
            residual = y.copy()
        # Drop the Gaussian design (held by estimate) before the next iteration
        # assembles another, so two never coexist (on a large Gaussian operator
        # that raises peak memory).
        estimate = None
        res_norm = math.sqrt(residual.dot(residual))
        if res_norm <= tolerance:
            stop = "tolerance"
        elif prev_norm is not None:
            flat_run = flat_run + 1 if prev_norm - res_norm < STAGNATION_DECREASE * prev_norm else 0
            if flat_run >= STAGNATION_RUN:
                stop = "stagnation"
        prev_norm = res_norm
        yield IterationRecord(res_norm, merged.dims, support.dims, stop), x_rec


def solve(operator, y, config):
    """Run ``iterate`` to its stop or MAX_ITERATIONS iterations.

    The SolverRun holds the last estimate, the records and the stop reason:
    the last record's ``stop``, else 'max_iter'.
    """
    trace = []
    for record, estimate in itertools.islice(iterate(operator, y, config), MAX_ITERATIONS):
        trace.append(record)
    return SolverRun(estimate, len(trace), trace, record.stop or "max_iter")
