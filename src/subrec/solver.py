"""Greedy low-rank recovery with optional subspace-prior weighting.

Each iteration: form the de-weighted correlation proxy, take its top-2r
singular subspaces as new support candidates, merge them with the previous
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
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from . import linalg
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
    signals stagnation upstream.
    """
    if k < 1:
        raise ValueError("support size must be at least 1")
    proxy = np.asarray(proxy, dtype=float)
    if not proxy.any():
        return Support.empty(proxy.shape[0])
    u, s, vh = linalg.svd(proxy)
    k = min(k, s.size)
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
    LAPACK potrf factors the Gram matrix D^T D and potrs gives M. With
    g = Qu^-1 U and h = Qv^-1 V, Gaussian sensing forms the Gram from the
    explicit p x (k_u * k_v) design in about p k^4 flops, and measure(M') is
    D vec(M'). Row i of that design is vec(g^T A_i h) for the sensing matrix
    A_i, formed as (g^T A_i) h. Both orders cost about 2 p k n^2 flops, but
    on one core at n = 80, p = 2560, k = 9, where the design pass dominates a
    solve, this one took 23 ms against 30 ms for g^T (A_i h).

    For completion row i of D is g[r_i] kron h[c_i]. With the rows
    of GG and HH holding g_r kron g_r and h_c kron h_c and S the 0/1 sampling
    mask, D^T D is GG^T S HH reordered to the (i, j), (i', j') index order,
    and D^T y = vec(g^T Y h) for the scattered measurements Y: about n k^4
    flops, without building D. The mask and the scatter rely on the sampled
    index pairs being distinct, which ``make_completion`` guarantees and the
    operator's adjoint assumes. measure(M') gathers the sampled entries of
    g M' h^T.

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
        rows, cols = base.indices[:, 0], base.indices[:, 1]

        def measure(m):
            return ((g @ m)[rows] * h[cols]).sum(axis=1)

        if tall:
            coef = _cholesky_solve(*_completion_normal_equations(base, g, h, y))
        if coef is None:
            design = (g[rows][:, :, None] * h[cols][:, None, :]).reshape(base.p, -1)
    else:
        design = np.matmul(np.matmul(g.T, base.mats), h).reshape(base.p, -1)

        def measure(m):
            return design @ m.ravel()

        if tall:
            coef = _cholesky_solve(design.T @ design, design.T @ y)
    if coef is None:
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
    return coef.reshape(u.shape[1], v.shape[1]), measure


def _completion_normal_equations(base, g, h, y):
    """D^T D and D^T y of a completion design, assembled from the sampling mask."""
    rows, cols = base.indices[:, 0], base.indices[:, 1]
    mask = np.zeros((base.n, base.n))
    mask[rows, cols] = 1.0
    scattered = np.zeros((base.n, base.n))
    scattered[rows, cols] = y
    k_u, k_v = g.shape[1], h.shape[1]
    gg = (g[:, :, None] * g[:, None, :]).reshape(base.n, k_u * k_u)
    hh = (h[:, :, None] * h[:, None, :]).reshape(base.n, k_v * k_v)
    # Entry (i i', j j') of GG^T S HH is the Gram entry ((i, j), (i', j')).
    gram = (gg.T @ (mask @ hh)).reshape(k_u, k_u, k_v, k_v).transpose(0, 2, 1, 3)
    return gram.reshape(k_u * k_v, k_u * k_v), (g.T @ scattered @ h).ravel()


def _cholesky_solve(gram, rhs):
    """Solve gram x = rhs by Cholesky; None when the factor fails the ratio test."""
    factor, info = dpotrf(gram, lower=0, clean=0)
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

    if config.weighting is None:
        wop = WeightedOperator(operator)
    else:
        qu, qv = config.weighting
        if qu.q.shape != (n, n) or qv.q.shape != (n, n):
            raise ValueError("weighting operators do not match the matrix shape")
        wop = WeightedOperator(operator, qu.q_inv, qv.q_inv)

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
