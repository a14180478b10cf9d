import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrec.linalg import random_orthonormal, svd
from subrec.operators import (
    COMPLETION,
    GAUSSIAN,
    MeasurementOperator,
    WeightedOperator,
    estimate_rip,
    make_completion,
    make_gaussian,
    make_identity_sensing,
    random_low_rank,
)
from subrec.solver import (
    GRAM_DIAG_RATIO_MIN,
    SolverConfig,
    Support,
    _completion_normal_equations,
    identify_support,
    least_squares_on_support,
    merge_support,
    solve,
)
from subrec.weighting import WeightSpec, build_weight_operator


def _ls_estimate(op, y, sup):
    """The matrix U M V^T of least_squares_on_support's coefficient block M."""
    coef, _ = least_squares_on_support(op, y, sup)
    return sup.left @ coef @ sup.right.T


def test_identify_support_diagonal():
    proxy = np.diag([3.0, 2.0, 1.0, 0.0])
    sup = identify_support(proxy, 2)
    span = sup.left @ sup.left.T
    expected = np.diag([1.0, 1.0, 0.0, 0.0])
    assert np.allclose(span, expected, atol=1e-10)
    assert np.allclose(sup.right @ sup.right.T, expected, atol=1e-10)


def test_identify_support_exact_rank():
    rng = np.random.default_rng(0)
    u = random_orthonormal(8, 2, rng)
    v = random_orthonormal(8, 2, rng)
    proxy = (u * [3.0, 1.5]) @ v.T
    sup = identify_support(proxy, 2)
    assert np.allclose(sup.left @ sup.left.T @ proxy, proxy, atol=1e-10)
    assert np.allclose(proxy @ sup.right @ sup.right.T, proxy, atol=1e-10)


def test_identify_support_projection_norm():
    rng = np.random.default_rng(1)
    proxy = rng.standard_normal((7, 7))
    _, s, _ = svd(proxy)
    sup = identify_support(proxy, 2)
    projected = sup.left @ (sup.left.T @ proxy @ sup.right) @ sup.right.T
    assert abs(np.linalg.norm(projected) - np.sqrt(s[0] ** 2 + s[1] ** 2)) <= 1e-8


def test_identify_support_zero_proxy_and_bad_k():
    sup = identify_support(np.zeros((5, 5)), 2)
    assert sup.is_empty()
    with pytest.raises(ValueError):
        identify_support(np.eye(3), 0)


def test_merge_support_idempotent():
    rng = np.random.default_rng(2)
    sup = Support(random_orthonormal(9, 3, rng), random_orthonormal(9, 3, rng))
    merged = merge_support(sup, sup)
    assert merged.dims == (3, 3)
    assert np.allclose(merged.left @ merged.left.T, sup.left @ sup.left.T, atol=1e-10)


def test_merge_support_with_empty():
    rng = np.random.default_rng(3)
    sup = Support(random_orthonormal(6, 2, rng), random_orthonormal(6, 2, rng))
    merged = merge_support(sup, Support.empty(6))
    assert merged.dims == (2, 2)
    assert np.allclose(merged.left @ merged.left.T, sup.left @ sup.left.T, atol=1e-10)


def test_merge_support_disjoint():
    e = np.eye(8)
    a = Support(e[:, :2], e[:, :2])
    b = Support(e[:, 2:3], e[:, 2:3])
    merged = merge_support(a, b)
    assert merged.dims == (3, 3)


def test_least_squares_zero_measurements():
    rng = np.random.default_rng(4)
    op = make_gaussian(6, 12, 5)
    sup = Support(random_orthonormal(6, 2, rng), random_orthonormal(6, 2, rng))
    out = _ls_estimate(op, np.zeros(12), sup)
    assert np.allclose(out, 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        least_squares_on_support(op, np.zeros(12), Support.empty(6))


def test_least_squares_recovers_truth_in_span():
    rng = np.random.default_rng(5)
    op = make_gaussian(8, 40, 6)
    prior = random_orthonormal(8, 2, rng)
    q = build_weight_operator(prior, WeightSpec.single(0.4, 0.9))
    wop = WeightedOperator(op, q.q_inv, q.q_inv)
    sup = Support(random_orthonormal(8, 2, rng), random_orthonormal(8, 2, rng))
    m = rng.standard_normal((2, 2))
    truth = sup.left @ m @ sup.right.T
    y = wop.apply(truth)
    out = _ls_estimate(wop, y, sup)
    assert np.linalg.norm(out - truth) <= 1e-8


def _oracle_design(wop, sup):
    """Row-by-row dense design: row i is vec(U^T Qu^-1 A_i Qv^-1 V)."""
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


def _pinv_oracle(wop, y, sup):
    """Row-by-row dense design plus explicit SVD pseudo-inverse."""
    design = _oracle_design(wop, sup)
    u, s, vh = np.linalg.svd(design, full_matrices=False)
    keep = s > s[0] * 1e-12 if s.size else np.zeros(0, bool)
    coef = vh[keep].T @ ((u[:, keep].T @ y) / s[keep])
    return sup.left @ coef.reshape(sup.dims) @ sup.right.T


def test_least_squares_matches_pinv_oracle_small():
    rng = np.random.default_rng(6)
    for trial in range(10):
        p = int(rng.integers(4, 17))
        op = make_gaussian(4, p, (7, trial))
        prior = random_orthonormal(4, 1, rng)
        q = build_weight_operator(prior, WeightSpec.single(0.5, 0.95))
        wop = WeightedOperator(op, q.q_inv, q.q_inv)
        ku, kv = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        sup = Support(random_orthonormal(4, ku, rng), random_orthonormal(4, kv, rng))
        y = rng.standard_normal(p)
        assert np.linalg.norm(
            _ls_estimate(wop, y, sup) - _pinv_oracle(wop, y, sup)
        ) <= 1e-10


def test_solve_zero_measurements():
    op = make_gaussian(6, 12, 8)
    run = solve(op, np.zeros(12), SolverConfig(rank=2))
    assert run.iterations == 1
    assert run.stop_reason == "tolerance"
    assert np.allclose(run.estimate, 0.0)


def test_solve_identity_weights_match_admira():
    rng = np.random.default_rng(9)
    n, r = 12, 2
    truth = (random_orthonormal(n, r, rng) * [2.0, 1.0]) @ random_orthonormal(n, r, rng).T
    op = make_gaussian(n, 100, 10)
    y = op.apply(truth)
    prior = random_orthonormal(n, r, rng)
    ones = (
        build_weight_operator(prior, WeightSpec.single(1.0, 1.0)),
        build_weight_operator(prior, WeightSpec.single(1.0, 1.0)),
    )
    run_w = solve(op, y, SolverConfig(rank=r, weighting=ones))
    run_0 = solve(op, y, SolverConfig(rank=r))
    assert run_w.iterations == run_0.iterations
    for a, b in zip(run_w.estimates, run_0.estimates):
        assert np.linalg.norm(a - b) <= 1e-12


def test_exact_recovery_with_identity_sensing():
    rng = np.random.default_rng(11)
    n = 8
    truth = np.outer(rng.standard_normal(n), rng.standard_normal(n))
    op = make_identity_sensing(n)
    run = solve(op, op.apply(truth), SolverConfig(rank=1))
    assert run.iterations == 1
    assert run.stop_reason == "tolerance"
    assert len(run.estimates) == 1 and np.array_equal(run.estimates[-1], run.estimate)
    assert np.linalg.norm(run.estimate - truth) / np.linalg.norm(truth) <= 1e-10


def test_support_dimension_bounds_and_deweighting_consistency():
    rng = np.random.default_rng(12)
    n, r = 14, 2
    truth = (random_orthonormal(n, r, rng) * [2.0, 1.0]) @ random_orthonormal(n, r, rng).T
    op = make_gaussian(n, 80, 13)
    y = op.apply(truth)
    prior = random_orthonormal(n, r, rng)
    weighting = (
        build_weight_operator(prior, WeightSpec.single(0.3, 0.95)),
        build_weight_operator(prior, WeightSpec.single(0.3, 0.95)),
    )
    cfg = SolverConfig(rank=r, weighting=weighting)
    run = solve(op, y, cfg)
    qu, qv = weighting
    for rec in run.trace:
        assert max(rec.merged_dims) <= 3 * r
        assert max(rec.support_dims) <= r
    # rank bound and de-weighting consistency of the final iterate
    s = np.linalg.svd(run.estimate, compute_uv=False)
    assert s[r] / s[0] <= 1e-8
    x_hat = qu.q @ run.estimate @ qv.q
    wop = WeightedOperator(op, qu.q_inv, qv.q_inv)
    assert np.linalg.norm(op.apply(run.estimate) - wop.apply(x_hat)) <= 1e-10


def test_least_squares_residual_optimality_and_orthogonality():
    rng = np.random.default_rng(14)
    n, p = 10, 50
    op = make_gaussian(n, p, 15)
    prior = random_orthonormal(n, 2, rng)
    q = build_weight_operator(prior, WeightSpec.single(0.4, 0.9))
    wop = WeightedOperator(op, q.q_inv, q.q_inv)
    sup = Support(random_orthonormal(n, 3, rng), random_orthonormal(n, 3, rng))
    y = rng.standard_normal(p)
    x_tilde = _ls_estimate(wop, y, sup)
    residual = y - wop.apply(x_tilde)
    base = np.linalg.norm(residual)
    for _ in range(20):
        z = sup.left @ rng.standard_normal((3, 3)) @ sup.right.T
        z /= np.linalg.norm(z)
        assert base <= np.linalg.norm(y - wop.apply(z)) + 1e-9
        assert abs(residual @ wop.apply(z)) <= 1e-8 * max(1.0, base)


def test_monotone_residual_under_identity_sensing():
    rng = np.random.default_rng(16)
    n, r = 10, 3
    truth = (random_orthonormal(n, r, rng) * [3.0, 2.0, 1.0]) @ random_orthonormal(n, r, rng).T
    op = make_identity_sensing(n)
    y = op.apply(truth) + 1e-3 * rng.standard_normal(n * n)
    run = solve(op, y, SolverConfig(rank=r, max_iterations=10))
    norms = [rec.residual_norm for rec in run.trace]
    for a, b in zip(norms, norms[1:]):
        assert b <= a * (1.0 + 1e-12)


def test_contraction_when_isometry_constant_small():
    # Geometric error decay on well-conditioned instances: successive error
    # ratios below one in at least 95% of recorded iterations.
    rng = np.random.default_rng(17)
    n, r = 20, 2
    op = make_gaussian(n, 320, 18)
    if estimate_rip(op, 4 * r, 100, rng=19).delta_hat > 0.4:
        pytest.skip("operator draw failed the isometry precondition")
    ratios = []
    for t in range(6):
        u = random_orthonormal(n, r, np.random.default_rng((20, t)))
        v = random_orthonormal(n, r, np.random.default_rng((21, t)))
        truth = (u * [2.0, 1.0]) @ v.T
        run = solve(op, op.apply(truth), SolverConfig(rank=r))
        errs = [np.linalg.norm(truth - est) for est in run.estimates]
        ratios.extend(b / a for a, b in zip(errs, errs[1:]) if a > 1e-13)
    assert np.mean([ratio <= 1.0 for ratio in ratios]) >= 0.95


@pytest.mark.parametrize("kind", [GAUSSIAN, COMPLETION])
@pytest.mark.parametrize("weighted", [False, True])
def test_least_squares_rejects_bad_measurements(kind, weighted):
    # A wrong shape must not broadcast (the completion scatter would spread a
    # length-1 y over every sampled entry), and a NaN or Inf must not turn
    # into NaN coefficients on either the Cholesky or the gelsd path.
    rng = np.random.default_rng(23)
    n, p = 6, 20
    op = make_completion(n, p, rng) if kind == COMPLETION else make_gaussian(n, p, rng)
    wop = _weighted(op, n, rng, 0.4 if weighted else None)
    for k in (2, 5):  # tall (Cholesky) and wide (gelsd) systems
        sup = Support(random_orthonormal(n, k, rng), random_orthonormal(n, k, rng))
        for shape in ((p - 1,), (1,), (p + 1,), (p, 1), ()):
            with pytest.raises(ValueError):
                least_squares_on_support(wop, np.ones(shape), sup)
        for value in (np.nan, np.inf, -np.inf):
            y = rng.standard_normal(p)
            y[3] = value
            with pytest.raises(ValueError):
                least_squares_on_support(wop, y, sup)


def test_solve_input_validation():
    op = make_gaussian(6, 12, 22)
    with pytest.raises(ValueError):
        solve(op, np.zeros(11), SolverConfig(rank=2))
    with pytest.raises(ValueError):
        solve(op, np.zeros(12), SolverConfig(rank=7))
    with pytest.raises(ValueError):
        SolverConfig(rank=0)
    with pytest.raises(ValueError):
        SolverConfig(rank=2, residual_tolerance=0.0)


# Property tests over random shapes. Derandomized so that the suite runs the
# same examples every time.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
ORACLE_TOL = 1e-10


def _check_against_oracle(wop, y, sup, lstsq_calls):
    """Kernel output against the pinv oracle, and the number of gelsd calls."""
    calls = []
    real = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "lstsq", counting)
        coef, measure = least_squares_on_support(wop, y, sup)
    assert coef.shape == sup.dims
    assert len(calls) == lstsq_calls
    design = _oracle_design(wop, sup)
    assert np.linalg.norm(measure(coef) - design @ coef.ravel()) <= (
        ORACLE_TOL * np.linalg.norm(design) * np.linalg.norm(coef))
    oracle = _pinv_oracle(wop, y, sup)
    assert np.linalg.norm(sup.left @ coef @ sup.right.T - oracle) <= ORACLE_TOL


def _weighted(op, n, rng, span_weight):
    """Single-weight operator on a random rank-1 prior, or the raw operator."""
    if span_weight is None:
        return WeightedOperator(op)
    q = build_weight_operator(random_orthonormal(n, 1, rng), WeightSpec.single(span_weight, 1.0))
    return WeightedOperator(op, q.q_inv, q.q_inv)


@PROPERTY
@given(
    n=st.integers(3, 6),
    k_u=st.integers(1, 6),
    k_v=st.integers(1, 6),
    completion=st.booleans(),
    span_weight=st.sampled_from([None, 1.0, 0.3, 0.7]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_least_squares_wide_designs_take_gelsd(n, k_u, k_v, completion, span_weight, seed, data):
    # p < k_u * k_v: the system is underdetermined and only gelsd gives the
    # minimum-norm solution. p stays at most half of k_u * k_v: the condition
    # number of a nearly square random design has a heavy tail, and there two
    # SVD-based solvers agree only to about cond * eps * ||coef||.
    k_u, k_v = min(k_u, n), min(k_v, n)
    if k_u * k_v < 2:
        k_u = k_v = 2
    p = data.draw(st.integers(1, k_u * k_v // 2), label="p")
    rng = np.random.default_rng(seed)
    op = make_completion(n, p, rng) if completion else make_gaussian(n, p, rng)
    sup = Support(random_orthonormal(n, k_u, rng), random_orthonormal(n, k_v, rng))
    _check_against_oracle(_weighted(op, n, rng, span_weight), rng.standard_normal(p), sup, 1)


@PROPERTY
@given(
    n=st.integers(3, 6),
    k_u=st.integers(1, 6),
    k_v=st.integers(1, 6),
    span_weight=st.sampled_from([None, 1.0, 0.3, 0.7]),
    oversampling=st.floats(2.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_least_squares_tall_gaussian_designs_take_cholesky(
    n, k_u, k_v, span_weight, oversampling, seed
):
    # At least twice as many measurements as unknowns keeps a random design
    # well conditioned, far above the Cholesky cut-off.
    k_u, k_v = min(k_u, n), min(k_v, n)
    p = int(np.ceil(oversampling * k_u * k_v))
    rng = np.random.default_rng(seed)
    op = make_gaussian(n, p, rng)
    sup = Support(random_orthonormal(n, k_u, rng), random_orthonormal(n, k_v, rng))
    _check_against_oracle(_weighted(op, n, rng, span_weight), rng.standard_normal(p), sup, 0)


@PROPERTY
@given(
    n=st.integers(3, 6),
    k_u=st.integers(1, 6),
    k_v=st.integers(1, 6),
    span_weight=st.sampled_from([None, 1.0, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_least_squares_fully_sampled_completion_takes_cholesky(n, k_u, k_v, span_weight, seed):
    # Sampling every entry makes the Gram matrix (G^T G) kron (H^T H).
    k_u, k_v = min(k_u, n), min(k_v, n)
    rng = np.random.default_rng(seed)
    op = make_completion(n, n * n, rng)
    sup = Support(random_orthonormal(n, k_u, rng), random_orthonormal(n, k_v, rng))
    _check_against_oracle(_weighted(op, n, rng, span_weight), rng.standard_normal(n * n), sup, 0)


def _with_e0(n, k, rng):
    """Orthonormal (n, k) basis whose first column is e_0."""
    rest = random_orthonormal(n - 1, k - 1, rng)
    return np.vstack([np.eye(k)[:1], np.hstack([np.zeros((n - 1, 1)), rest])])


@PROPERTY
@given(
    n=st.integers(3, 6),
    k_u=st.integers(2, 6),
    k_v=st.integers(1, 6),
    oversampling=st.floats(1.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_least_squares_rank_deficient_tall_designs_take_gelsd(n, k_u, k_v, oversampling, seed):
    # Every sensing matrix has a zero first row and the left basis contains
    # e_0, so k_v design columns are exactly zero: the Gram matrix is
    # singular, its Cholesky factorization fails, and the minimum-norm
    # solution leaves those coefficients at zero.
    k_u, k_v = min(k_u, n), min(k_v, n)
    p = int(np.ceil(oversampling * k_u * k_v))
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((p, n, n)) / np.sqrt(p)
    mats[:, 0, :] = 0.0
    op = MeasurementOperator(GAUSSIAN, n, p, mats=mats)
    sup = Support(_with_e0(n, k_u, rng), random_orthonormal(n, k_v, rng))
    _check_against_oracle(WeightedOperator(op), rng.standard_normal(p), sup, 1)


@PROPERTY
@given(
    n=st.integers(3, 6),
    k_u=st.integers(2, 6),
    k_v=st.integers(1, 6),
    span_weight=st.floats(1e-6, 1e-5),
    oversampling=st.floats(2.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_least_squares_ill_conditioned_tall_designs_take_gelsd(
    n, k_u, k_v, span_weight, oversampling, seed
):
    # A near-zero weight on the first direction of the left basis scales k_v
    # design columns by 1 / span_weight, so cond(D) is about 1e5 to 1e6 and
    # the Cholesky diagonal ratio about span_weight, below GRAM_DIAG_RATIO_MIN.
    assert span_weight < GRAM_DIAG_RATIO_MIN
    k_u, k_v = min(k_u, n), min(k_v, n)
    p = int(np.ceil(oversampling * k_u * k_v))
    rng = np.random.default_rng(seed)
    op = make_gaussian(n, p, rng)
    left = random_orthonormal(n, k_u, rng)
    q = build_weight_operator(left[:, :1], WeightSpec.single(span_weight, 1.0))
    sup = Support(left, random_orthonormal(n, k_v, rng))
    _check_against_oracle(WeightedOperator(op, q.q_inv, None), rng.standard_normal(p), sup, 1)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from([GAUSSIAN, COMPLETION]),
    weighted=st.booleans(),
    n=st.integers(6, 12),
    rank=st.integers(1, 3),
    ratio=st.floats(0.3, 0.9),
    noise=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_residual_equals_measured_residual(kind, weighted, n, rank, ratio, noise, seed):
    # The loop takes its residual from the design; it must equal the residual
    # of the de-weighted estimate measured through the raw operator. Every
    # solve keeps one estimate per iteration, the last being the final one.
    rank = min(rank, n // 2)
    rng = np.random.default_rng(seed)
    p = max(1, int(ratio * n * n))
    op = make_completion(n, p, rng) if kind == COMPLETION else make_gaussian(n, p, rng)
    truth = random_low_rank(n, n, rank, rng)
    y = op.apply(truth)
    y += noise * np.linalg.norm(y) / np.sqrt(p) * rng.standard_normal(p)
    weighting = None
    if weighted:
        spec = WeightSpec.per_direction([0.2] * rank, [0.95] * rank)
        weighting = tuple(
            build_weight_operator(random_orthonormal(n, rank, rng), spec, rng=rng) for _ in range(2)
        )
    run = solve(op, y, SolverConfig(rank=rank, max_iterations=8, weighting=weighting))
    assert len(run.estimates) == len(run.trace) == run.iterations
    assert np.array_equal(run.estimates[-1], run.estimate)
    y_norm = np.linalg.norm(y)
    for rec, est in zip(run.trace, run.estimates):
        measured = np.linalg.norm(y - op.apply(est))
        assert abs(rec.residual_norm - measured) <= 1e-10 * y_norm


@PROPERTY
@given(
    n=st.integers(3, 7),
    k_u=st.integers(1, 7),
    k_v=st.integers(1, 7),
    span_weight=st.sampled_from([None, 1.0, 0.3, 0.7]),
    full=st.booleans(),
    empty_row=st.booleans(),
    empty_col=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_completion_normal_equations_match_explicit_design(
    n, k_u, k_v, span_weight, full, empty_row, empty_col, seed, data
):
    # The mask-built Gram and right-hand side equal D^T D and D^T y of the
    # explicit design, and measure(M) equals D vec(M), for any sampling:
    # every entry (p = n^2), or a subset that may leave the first row or the
    # first column without a sample.
    k_u, k_v = min(k_u, n), min(k_v, n)
    rng = np.random.default_rng(seed)
    if full:
        op = make_completion(n, n * n, rng)
    else:
        cells = [
            (r, c) for r in range(n) for c in range(n)
            if not (empty_row and r == 0) and not (empty_col and c == 0)
        ]
        p = data.draw(st.integers(1, len(cells)), label="p")
        chosen = rng.choice(len(cells), size=p, replace=False)
        indices = np.array([cells[i] for i in chosen], dtype=np.intp)
        op = MeasurementOperator(COMPLETION, n, p, indices=indices)
    wop = _weighted(op, n, rng, span_weight)
    sup = Support(random_orthonormal(n, k_u, rng), random_orthonormal(n, k_v, rng))
    y = rng.standard_normal(op.p)
    design = _oracle_design(wop, sup)

    g = sup.left if wop.qu_inv is None else wop.qu_inv @ sup.left
    h = sup.right if wop.qv_inv is None else wop.qv_inv @ sup.right
    gram, rhs = _completion_normal_equations(op, g, h, y)
    scale = np.linalg.norm(design) * np.linalg.norm(y)
    assert np.linalg.norm(gram - design.T @ design) <= 1e-12 * np.linalg.norm(design) ** 2
    assert np.linalg.norm(rhs - design.T @ y) <= 1e-12 * scale

    _, measure = least_squares_on_support(wop, y, sup)
    m = rng.standard_normal((k_u, k_v))
    expected = design @ m.ravel()
    assert np.linalg.norm(measure(m) - expected) <= 1e-12 * np.linalg.norm(design) * np.linalg.norm(m)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from([GAUSSIAN, COMPLETION]),
    n=st.integers(6, 12),
    rank=st.integers(1, 3),
    ratio=st.floats(0.3, 0.9),
    noise=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_unit_rmspi_weights_reproduce_unweighted_solve_bit_for_bit(kind, n, rank, ratio, noise, seed):
    # Single-mode (rmspi) weights of exactly 1.0 give Q^-1 = I exactly, and
    # multiplying by an exact identity changes no bit, so the weighted solve
    # must repeat the unweighted one: every estimate, the trace and the stop.
    rank = min(rank, n // 2)
    rng = np.random.default_rng(seed)
    p = max(1, int(ratio * n * n))
    op = make_completion(n, p, rng) if kind == COMPLETION else make_gaussian(n, p, rng)
    y = op.apply(random_low_rank(n, n, rank, rng))
    y += noise * np.linalg.norm(y) / np.sqrt(p) * rng.standard_normal(p)
    ones = WeightSpec.single(1.0, 1.0)
    weighting = tuple(build_weight_operator(random_orthonormal(n, rank, rng), ones) for _ in range(2))
    run_w = solve(op, y, SolverConfig(rank=rank, weighting=weighting))
    run_0 = solve(op, y, SolverConfig(rank=rank))
    assert run_w.stop_reason == run_0.stop_reason
    assert run_w.trace == run_0.trace
    assert len(run_w.estimates) == len(run_0.estimates) == run_0.iterations
    for a, b in zip(run_w.estimates, run_0.estimates):
        assert np.array_equal(a, b)
    assert np.array_equal(run_w.estimate, run_0.estimate)
