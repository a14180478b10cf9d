"""Reference implementations the tests check the library against."""

from dataclasses import dataclass
from itertools import islice

import numpy as np
import scipy.linalg

from subrec import solver
from subrec.solver import least_squares_on_support


def solve_and_iterates(operator, y, config):
    """``solver.solve``'s run and the de-weighted iterates it went through.

    The iterates come from draining ``solver.iterate`` with solve's budget,
    MAX_ITERATIONS read at call time; that drain's records must be the run's
    trace and its last iterate the run's estimate, bit for bit.
    """
    run = solver.solve(operator, y, config)
    steps = list(islice(solver.iterate(operator, y, config), solver.MAX_ITERATIONS))
    assert [record for record, _ in steps] == run.trace
    assert np.array_equal(steps[-1][1], run.estimate)
    return run, [estimate for _, estimate in steps]


def truncate_rank(m, r):
    """Best rank-r approximation of ``m`` in Frobenius norm (Eckart-Young)."""
    m = np.asarray(m, dtype=float)
    if not 0 <= r <= min(m.shape):
        raise ValueError(f"rank {r} out of range for shape {m.shape}")
    if r == 0:
        return np.zeros_like(m)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return (u[:, :r] * s[:r]) @ vh[:r]


def sensing_matrix(op):
    """The explicit p x n^2 matrix of a measurement operator, column k = op.apply(e_k)."""
    eye = np.eye(op.n * op.n)
    return np.column_stack([op.apply(e.reshape(op.n, op.n)) for e in eye])


def dense_design(wop, sup):
    """Least-squares design on a support, row by row: row i is vec(U^T Qu^-1 A_i Qv^-1 V).

    ``wop`` is a weighted operator (a None factor is the identity) and ``sup``
    a support with orthonormal ``left`` (U) and ``right`` (V) bases.
    """
    base = wop.base
    qu = np.eye(base.n) if wop.qu_inv is None else wop.qu_inv
    qv = np.eye(base.n) if wop.qv_inv is None else wop.qv_inv
    rows = []
    for i in range(base.p):
        if base.kind == "completion":
            a_i = np.zeros((base.n, base.n))
            a_i[base.indices[i, 0], base.indices[i, 1]] = 1.0
        else:
            a_i = base.mats[i]
        rows.append((sup.left.T @ qu @ a_i @ qv @ sup.right).ravel())
    return np.vstack(rows)


def pinv_least_squares(wop, y, sup):
    """The matrix U M V^T of the minimum-norm least-squares block M on ``sup``.

    M comes from ``dense_design`` and an explicit SVD pseudo-inverse that
    keeps singular values above 1e-12 of the largest.
    """
    design = dense_design(wop, sup)
    u, s, vh = np.linalg.svd(design, full_matrices=False)
    keep = s > s[0] * 1e-12 if s.size else np.zeros(0, bool)
    coef = vh[keep].T @ ((u[:, keep].T @ y) / s[keep])
    return sup.left @ coef.reshape(sup.dims) @ sup.right.T


def ls_estimate(wop, y, sup):
    """The matrix U M V^T of the library's least-squares block M, to compare with the oracle."""
    coef, _ = least_squares_on_support(wop, y, sup)
    return sup.left @ coef @ sup.right.T


@dataclass
class ReferenceRun:
    """Every de-weighted iterate and residual norm of ``reference_solve``.

    ``support_gaps`` holds, per iteration, the gap between the proxy's 2r-th
    and (2r+1)-th singular values, and ``rank_gaps`` the gap between the r-th
    and (r+1)-th singular values of the weighted least-squares estimate and
    of the weighted iterate the step started from; each is taken over the
    largest singular value of its matrix. ``design_conds`` holds the
    condition number of each iteration's design.
    """

    estimates: list
    residual_norms: list
    stop_reason: str
    support_gaps: list
    rank_gaps: list
    design_conds: list


def reference_solve(op, y, rank, weighting=None, follow=None, max_iterations=20,
                    tolerance=1e-6, stagnation_decrease=1e-10, stagnation_run=3):
    """The greedy loop written out densely, as a textbook would.

    ``weighting`` is None or a (Qu, Qv) pair of weight operators, and the
    weighted operator is Z -> A vec(Qu^-1 Z Qv^-1) for the explicit sensing
    matrix A. Each iteration takes the top-2r singular vectors of the
    de-weighted proxy by full SVD, merges them with the previous support by
    pivoted QR, solves least squares on the merged span by ``pinv`` of the
    design, truncates the weighted estimate with ``truncate_rank``, de-weights
    it and measures the residual through A.

    With ``follow``, a list of de-weighted iterates of another solve, every
    iteration after the first starts from the previous iterate of ``follow``
    (its residual, and the top-r singular subspaces of its weighted form as
    the previous support) instead of from its own, so each of its iterates
    is one textbook step from the other solve's previous one.
    """
    n = op.n
    a = sensing_matrix(op)
    qu, qv = weighting or (None, None)
    qu_inv, qv_inv = (np.eye(n), np.eye(n)) if weighting is None else (qu.q_inv, qv.q_inv)
    y = np.asarray(y, dtype=float)
    y_norm = np.linalg.norm(y)
    left, right = np.zeros((n, 0)), np.zeros((n, 0))
    residual = y
    run = ReferenceRun([], [], "max_iter", [], [], [])
    flat_run = 0
    steps = max_iterations if follow is None else min(max_iterations, len(follow))
    for t in range(steps):
        if follow is not None and t > 0:
            previous = follow[t - 1] if weighting is None else qu.q @ follow[t - 1] @ qv.q
            left, right, gap = _top_subspaces(previous, rank)
            run.rank_gaps.append(gap)
            residual = y - a @ follow[t - 1].ravel()
        proxy = qu_inv @ (a.T @ residual).reshape(n, n) @ qv_inv
        new_left, new_right, gap = _top_subspaces(proxy, 2 * rank)
        run.support_gaps.append(gap)
        left = _span(np.hstack([new_left, left]))
        right = _span(np.hstack([new_right, right]))
        design = np.column_stack([
            a @ (qu_inv @ np.outer(left[:, i], right[:, j]) @ qv_inv).ravel()
            for i in range(left.shape[1]) for j in range(right.shape[1])
        ])
        run.design_conds.append(np.linalg.cond(design))
        coef = (np.linalg.pinv(design) @ y).reshape(left.shape[1], right.shape[1])
        weighted = left @ coef @ right.T
        weighted_r = truncate_rank(weighted, rank)
        left, right, gap = _top_subspaces(weighted, rank)
        run.rank_gaps.append(gap)
        estimate = qu_inv @ weighted_r @ qv_inv
        residual = y - a @ estimate.ravel()
        res_norm = np.linalg.norm(residual)
        run.estimates.append(estimate)
        run.residual_norms.append(res_norm)
        if res_norm <= tolerance * y_norm:
            run.stop_reason = "tolerance"
            break
        if len(run.residual_norms) > 1:
            prev = run.residual_norms[-2]
            flat_run = flat_run + 1 if prev - res_norm < stagnation_decrease * prev else 0
            if flat_run >= stagnation_run:
                run.stop_reason = "stagnation"
                break
    return run


def _top_subspaces(m, k):
    """Top-k left and right singular vectors of ``m``, and (s_k - s_{k+1}) / s_1."""
    u, s, vh = np.linalg.svd(m)
    gap = (s[k - 1] - s[k]) / s[0] if k < s.size else 1.0
    return u[:, :k], vh[:k].T, gap


def _span(m, tol=1e-10):
    """Orthonormal basis of the column space of ``m`` by pivoted QR."""
    q, r, _ = scipy.linalg.qr(m, mode="economic", pivoting=True)
    return q[:, : int(np.count_nonzero(np.abs(np.diagonal(r)) > tol))]
