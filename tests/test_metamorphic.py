"""How a whole solve must transform when its input does.

Each property takes a cell of a built-in preset, runs one solver on it, runs
the same solver on a transformed copy of the problem and compares the two
solves: their estimates, iteration counts and stop reasons.
"""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import solve_and_iterates

from subrec.bench import (
    SOLVER_IDS,
    SUCCESS_ERROR,
    builtin_presets,
    generate_instance,
    prior_weighting,
    solver_config,
)
from subrec.linalg import random_orthonormal
from subrec.operators import COMPLETION, GAUSSIAN, MeasurementOperator
from subrec.solver import SolverConfig, solve

PRESETS = builtin_presets()
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
# Every solver fails every preset at ratio 0.2, so the properties that take
# contracting solves only draw from the other ratios.
CONTRACTING_RATIOS = st.sampled_from([0.4, 0.6, 0.8])

# Solves that agree up to rounding are compared to this relative tolerance,
# and only noiseless solves whose error against the truth falls at every
# iteration, to SUCCESS_ERROR or below, are compared: on those the loop damps
# the rounding each step adds. Elsewhere it grows along the run. Transposing
# 1,728 preset solves (close_close, far_far and close_far, both kinds, noise 0
# and 1e-3, ratios 0.2-0.8, 3 solvers, master seeds 0-11) kept every
# iteration count and stop. The estimates of the 340 noiseless contracting
# solves stayed within 2.1e-10 of the transpose; a noiseless successful solve
# whose error rose at one step was 1.8e-9 off, failing solves up to 5e-4
# noiseless and 1.3e-2 noisy, and successful noisy solves up to 2e-8,
# contracting or not.
# The reference-loop test's gap and condition bounds would have skipped only
# one of the first 15 drifting solves.
EQUIVARIANCE_TOL = 1e-9


def _solve_cell(family, kind, solver, noise, ratio, seed):
    """A preset cell's scenario and instance, the solver's config, its solve and iterates."""
    scenario = replace(PRESETS[family], operator_kind=kind, noise_level=noise, master_seed=seed)
    instance = generate_instance(scenario, ratio, 0)
    config = solver_config(scenario, instance, solver)
    return scenario, instance, config, *solve_and_iterates(instance.operator, instance.y, config)


def _assume_contracting(instance, iterates):
    """Skip a solve unless its error falls at every iteration to at most SUCCESS_ERROR."""
    truth = instance.truth
    errors = [np.linalg.norm(est - truth) for est in iterates]
    assume(all(b < a for a, b in zip(errors, errors[1:])))
    assume(errors[-1] <= SUCCESS_ERROR * np.linalg.norm(truth))


def _assert_same_course(run, other):
    assert other.iterations == run.iterations
    assert other.stop_reason == run.stop_reason


def _assert_close(estimate, want):
    assert np.linalg.norm(estimate - want) <= EQUIVARIANCE_TOL * np.linalg.norm(want)


@PROPERTY
@given(
    family=st.sampled_from(["close_close", "far_far"]),
    kind=st.sampled_from([GAUSSIAN, COMPLETION]),
    solver=st.sampled_from(SOLVER_IDS),
    noise=st.sampled_from([0.0, 1e-3]),
    ratio=st.sampled_from([0.2, 0.4, 0.6, 0.8]),
    seed=st.integers(0, 2**16),
    k=st.integers(-8, 8),
)
def test_power_of_two_scaling_keeps_every_bit(family, kind, solver, noise, ratio, seed, k):
    # Scaling by a power of two commutes with every rounding of the loop, short
    # of overflow and underflow, and its stop and selection rules are relative.
    # So y -> 2^k y scales every iterate by exactly 2^k and, for Gaussian
    # sensing, A_i -> 2^k A_i with it leaves every iterate's bits as they were.
    _, instance, config, run, iterates = _solve_cell(family, kind, solver, noise, ratio, seed)
    op, y, c = instance.operator, instance.y, 2.0**k
    scaled_y, scaled_iterates = solve_and_iterates(op, c * y, config)
    _assert_same_course(run, scaled_y)
    for est, scaled in zip(iterates, scaled_iterates, strict=True):
        assert np.array_equal(scaled, c * est)
    if kind == GAUSSIAN:
        scaled_op = MeasurementOperator(GAUSSIAN, op.n, op.p, mats=c * op.mats)
        both, both_iterates = solve_and_iterates(scaled_op, c * y, config)
        _assert_same_course(run, both)
        for est, scaled in zip(iterates, both_iterates, strict=True):
            assert np.array_equal(scaled, est)


@PROPERTY
@given(
    family=st.sampled_from(["close_close", "far_far"]),
    kind=st.sampled_from([GAUSSIAN, COMPLETION]),
    solver=st.sampled_from(SOLVER_IDS),
    ratio=CONTRACTING_RATIOS,
    seed=st.integers(0, 2**16),
)
def test_transposed_problem_gives_the_transposed_estimate(family, kind, solver, ratio, seed):
    # <X^T, A_i^T> = <X, A_i>, and swapping a completion cell's row and column
    # samples X^T where it sampled X, so with the weighting sides swapped the
    # problem's solution is the transpose.
    _, instance, config, run, iterates = _solve_cell(family, kind, solver, 0.0, ratio, seed)
    _assume_contracting(instance, iterates)
    op = instance.operator
    if kind == GAUSSIAN:
        mats_t = np.ascontiguousarray(op.mats.transpose(0, 2, 1))
        op_t = MeasurementOperator(GAUSSIAN, op.n, op.p, mats=mats_t)
    else:
        op_t = MeasurementOperator(COMPLETION, op.n, op.p, indices=op.indices[:, ::-1])
    weighting_t = None if config.weighting is None else config.weighting[::-1]
    transposed = solve(op_t, instance.y, SolverConfig(config.rank, weighting_t))
    _assert_same_course(run, transposed)
    _assert_close(transposed.estimate, run.estimate.T)


@PROPERTY
@given(
    family=st.sampled_from(["close_close", "far_far", "close_far"]),
    solver=st.sampled_from(SOLVER_IDS),
    ratio=CONTRACTING_RATIOS,
    seed=st.integers(0, 2**16),
)
def test_orthogonal_change_of_basis_rotates_the_estimate(family, solver, ratio, seed):
    # <P X Q^T, P A_i Q^T> = <X, A_i> for orthogonal P and Q, and priors and
    # complement references rotated with them give the rotated weighting
    # P Qu P^T, Q Qv Q^T, so the rotated problem's solution is P X Q^T.
    scenario, instance, _, run, iterates = _solve_cell(family, GAUSSIAN, solver, 0.0, ratio, seed)
    _assume_contracting(instance, iterates)
    op = instance.operator
    rng = np.random.default_rng(seed)
    p, q = random_orthonormal(op.n, op.n, rng), random_orthonormal(op.n, op.n, rng)
    rotated_op = MeasurementOperator(GAUSSIAN, op.n, op.p, mats=p @ op.mats @ q.T)
    weighting = prior_weighting(
        scenario, solver, p @ instance.prior_u, q @ instance.prior_v,
        p @ instance.truth_u, q @ instance.truth_v,
    )
    rotated = solve(rotated_op, instance.y, SolverConfig(scenario.rank, weighting))
    _assert_same_course(run, rotated)
    _assert_close(rotated.estimate, p @ run.estimate @ q.T)
