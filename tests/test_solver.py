import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    dense_design,
    ls_estimate,
    pinv_least_squares,
    reference_solve,
    sensing_matrix,
    solve_and_iterates,
)
from subrec import solver
from subrec.linalg import dpotrf, dpotrs, random_orthonormal, svd
from subrec.operators import (
    COMPLETION,
    GAUSSIAN,
    MeasurementOperator,
    WeightedOperator,
    estimate_rip,
    make_completion,
    make_gaussian,
    random_low_rank,
)
from subrec.solver import (
    DESIGN_BLOCK_BYTES,
    GRAM_DIAG_RATIO_MIN,
    SolverConfig,
    Support,
    _cholesky_solve,
    _completion_normal_equations,
    _gaussian_design,
    identify_support,
    least_squares_on_support,
    merge_support,
    solve,
)
from subrec.weighting import WeightSpec, build_weight_operator


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


def test_identify_support_caps_k_and_rejects_non_finite_proxies():
    sup = identify_support(np.diag([3.0, 2.0, 1.0]), 5)
    assert sup.dims == (3, 3)
    for bad in (np.nan, np.inf):
        proxy = np.eye(3)
        proxy[1, 2] = bad
        with pytest.raises(ValueError):
            identify_support(proxy, 2)


def _projector(basis):
    return basis @ basis.T


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 40),
    kind=st.sampled_from(["gaussian", "sparse", "weighted", "rank_deficient"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_identify_support_matches_the_full_svd_projectors(n, kind, seed, data):
    # The Gram's eigenvectors carry an error of about eps s_1^2 / (s_k^2 - s_(k+1)^2),
    # and so do the right vectors P^T u / s; near-ties are skipped as in the
    # reference-loop test. In 24,000 probe draws the worst error was 7.5 n
    # times that bound, hence the factor 32 n.
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(seed)
    proxy = rng.standard_normal((n, n))
    if kind == "sparse":
        # A completion proxy: the sampled entries of a residual, the rest zero.
        proxy *= rng.random((n, n)) < rng.uniform(0.05, 0.9)
    elif kind == "weighted":
        r = max(1, n // 4)
        weights = [WeightSpec.single(*10.0 ** rng.uniform(-4, 0, 2)) for _ in range(2)]
        qu, qv = (build_weight_operator(random_orthonormal(n, r, rng), w) for w in weights)
        proxy = qu.q_inv @ proxy @ qv.q_inv
    elif kind == "rank_deficient":
        rank = data.draw(st.integers(1, n), label="rank")
        proxy = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
    assume(proxy.any())
    sup = identify_support(proxy, k)
    assert sup.dims == (k, k)
    for basis in (sup.left, sup.right):
        assert np.abs(basis.T @ basis - np.eye(k)).max() <= 1e-10
    u, s, vh = np.linalg.svd(proxy)
    s_next = s[k] if k < n else 0.0
    assume(s[k - 1] - s_next > REFERENCE_GAP_MIN * s[0])
    bound = 32 * n * np.finfo(float).eps * s[0] ** 2 / ((s[k - 1] + s_next) * (s[k - 1] - s_next))
    assert np.linalg.norm(_projector(sup.left) - _projector(u[:, :k]), 2) <= bound
    assert np.linalg.norm(_projector(sup.right) - _projector(vh[:k].T), 2) <= bound


@pytest.mark.parametrize(
    "case", ["small_tail", "rank_deficient", "underflow", "overflow", "squares_underflow_to_zero"]
)
def test_identify_support_falls_back_to_the_full_svd_bit_for_bit(case):
    # Where the Gram would cost the right basis its orthonormality or its
    # digits, the support is the full SVD's, exactly as linalg.svd gives it.
    rng = np.random.default_rng(3)
    n, k = 12, 4
    u, v = random_orthonormal(n, n, rng), random_orthonormal(n, n, rng)
    s = np.linspace(1.0, 0.5, n)
    if case == "small_tail":
        s[k - 1 :] = 0.5 * solver.GRAM_SIGMA_RATIO_MIN
    elif case == "rank_deficient":
        s[k - 1 :] = 0.0
    proxy = (u * s) @ v.T
    if case == "underflow":
        proxy *= 1e-160
    elif case == "overflow":
        proxy *= 1e160
    elif case == "squares_underflow_to_zero":
        # Every square is 0, yet the proxy is not: it must not read as empty.
        proxy *= 1e-200
        assert np.vdot(proxy, proxy) == 0.0
    sup = identify_support(proxy, k)
    full_u, _, full_vh = svd(proxy)
    assert np.array_equal(sup.left, full_u[:, :k])
    assert np.array_equal(sup.right, full_vh[:k].T)


def test_identify_support_just_above_the_guard_keeps_the_gram_path(monkeypatch):
    rng = np.random.default_rng(4)
    n, k = 12, 4
    u, v = random_orthonormal(n, n, rng), random_orthonormal(n, n, rng)
    s = np.linspace(1.0, 0.5, n)
    s[k - 1 :] = 1.01 * solver.GRAM_SIGMA_RATIO_MIN
    s[k - 1] *= 2.0
    proxy = (u * s) @ v.T

    def no_svd(m):
        raise AssertionError("the full SVD ran above the guard")

    monkeypatch.setattr(solver.linalg, "svd", no_svd)
    sup = identify_support(proxy, k)
    for basis in (sup.left, sup.right):
        assert np.abs(basis.T @ basis - np.eye(k)).max() <= 1e-10
    assert np.linalg.norm(_projector(sup.left) - _projector(u[:, :k]), 2) <= 1e-8
    assert np.linalg.norm(_projector(sup.right) - _projector(v[:, :k]), 2) <= 1e-8


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
    out = ls_estimate(WeightedOperator(op), np.zeros(12), sup)
    assert np.allclose(out, 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        least_squares_on_support(WeightedOperator(op), np.zeros(12), Support.empty(6))


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
    out = ls_estimate(wop, y, sup)
    assert np.linalg.norm(out - truth) <= 1e-8


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
            ls_estimate(wop, y, sup) - pinv_least_squares(wop, y, sup)
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
    run_w, iterates_w = solve_and_iterates(op, y, SolverConfig(rank=r, weighting=ones))
    run_0, iterates_0 = solve_and_iterates(op, y, SolverConfig(rank=r))
    assert run_w.iterations == run_0.iterations
    for a, b in zip(iterates_w, iterates_0):
        assert np.linalg.norm(a - b) <= 1e-12


def test_exact_recovery_with_identity_sensing():
    rng = np.random.default_rng(11)
    n = 8
    truth = np.outer(rng.standard_normal(n), rng.standard_normal(n))
    op = MeasurementOperator(GAUSSIAN, n, n * n, mats=np.eye(n * n).reshape(n * n, n, n))
    run, iterates = solve_and_iterates(op, op.apply(truth), SolverConfig(rank=1))
    assert run.iterations == 1
    assert run.stop_reason == "tolerance"
    assert len(iterates) == 1 and np.array_equal(iterates[-1], run.estimate)
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
    x_tilde = ls_estimate(wop, y, sup)
    residual = y - wop.apply(x_tilde)
    base = np.linalg.norm(residual)
    for _ in range(20):
        z = sup.left @ rng.standard_normal((3, 3)) @ sup.right.T
        z /= np.linalg.norm(z)
        assert base <= np.linalg.norm(y - wop.apply(z)) + 1e-9
        assert abs(residual @ wop.apply(z)) <= 1e-8 * max(1.0, base)


def test_monotone_residual_under_identity_sensing(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 10)
    rng = np.random.default_rng(16)
    n, r = 10, 3
    truth = (random_orthonormal(n, r, rng) * [3.0, 2.0, 1.0]) @ random_orthonormal(n, r, rng).T
    op = MeasurementOperator(GAUSSIAN, n, n * n, mats=np.eye(n * n).reshape(n * n, n, n))
    y = op.apply(truth) + 1e-3 * rng.standard_normal(n * n)
    run = solve(op, y, SolverConfig(rank=r))
    norms = [rec.residual_norm for rec in run.trace]
    for a, b in zip(norms, norms[1:]):
        assert b <= a * (1.0 + 1e-12)


def test_contraction_when_isometry_constant_small():
    # Geometric error decay on well-conditioned instances: successive error
    # ratios below one in at least 95% of recorded iterations.
    rng = np.random.default_rng(17)
    n, r = 20, 2
    op = make_gaussian(n, 320, 18)
    gen = np.random.default_rng(19)
    if estimate_rip(op, [random_low_rank(n, 4 * r, gen) for _ in range(100)]).delta_hat > 0.4:
        pytest.skip("operator draw failed the isometry precondition")
    ratios = []
    for t in range(6):
        u = random_orthonormal(n, r, np.random.default_rng((20, t)))
        v = random_orthonormal(n, r, np.random.default_rng((21, t)))
        truth = (u * [2.0, 1.0]) @ v.T
        _, iterates = solve_and_iterates(op, op.apply(truth), SolverConfig(rank=r))
        errs = [np.linalg.norm(truth - est) for est in iterates]
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


@pytest.mark.parametrize("kind", [GAUSSIAN, COMPLETION])
def test_least_squares_accepts_measurements_whose_squares_overflow(kind):
    # y is scanned for NaN and Inf only when y @ y is not finite; finite
    # measurements that overflow it scale the solution on both paths.
    rng = np.random.default_rng(24)
    n, p = 6, 20
    op = make_completion(n, p, rng) if kind == COMPLETION else make_gaussian(n, p, rng)
    wop = WeightedOperator(op)
    y = rng.standard_normal(p)
    for k in (2, 5):  # tall (Cholesky) and wide (gelsd) systems
        sup = Support(random_orthonormal(n, k, rng), random_orthonormal(n, k, rng))
        coef, _ = least_squares_on_support(wop, 1e200 * y, sup)
        want, _ = least_squares_on_support(wop, y, sup)
        assert np.allclose(coef / 1e200, want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("kind", [GAUSSIAN, COMPLETION])
def test_solve_and_least_squares_share_one_measurement_check(kind):
    rng = np.random.default_rng(25)
    n, p = 6, 20
    op = make_completion(n, p, rng) if kind == COMPLETION else make_gaussian(n, p, rng)
    sup = Support(random_orthonormal(n, 2, rng), random_orthonormal(n, 2, rng))
    with_nan = rng.standard_normal(p)
    with_nan[3] = np.nan
    for y, message in (
        (with_nan, "array must not contain infs or NaNs"),
        (np.ones(p - 1), r"expected 20 measurements, got shape \(19,\)"),
    ):
        for call in (
            lambda: solve(op, y, SolverConfig(rank=2)),
            lambda: least_squares_on_support(WeightedOperator(op), y, sup),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()


def test_solve_input_validation():
    op = make_gaussian(6, 12, 22)
    with pytest.raises(ValueError):
        solve(op, np.zeros(11), SolverConfig(rank=2))
    with pytest.raises(ValueError):
        solve(op, np.zeros(12), SolverConfig(rank=7))
    with pytest.raises(ValueError):
        SolverConfig(rank=0)
    # A weighting built for another n is rejected before any iteration.
    rng = np.random.default_rng(22)
    q = build_weight_operator(random_orthonormal(7, 2, rng), WeightSpec.single(0.5, 0.9))
    with pytest.raises(ValueError, match="does not match the 6 x 6 operator"):
        solve(op, np.ones(12), SolverConfig(rank=2, weighting=(q, q)))


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
        coef, estimate = least_squares_on_support(wop, y, sup)
    assert coef.shape == sup.dims
    assert len(calls) == lstsq_calls
    design = dense_design(wop, sup)
    x, fitted = estimate(coef)
    assert np.linalg.norm(fitted - design @ coef.ravel()) <= (
        ORACLE_TOL * np.linalg.norm(design) * np.linalg.norm(coef))
    x_oracle = wop.deweight(sup.left @ coef @ sup.right.T)
    assert np.linalg.norm(x - x_oracle) <= ORACLE_TOL * max(1.0, np.linalg.norm(x_oracle))
    oracle = pinv_least_squares(wop, y, sup)
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
    per_direction=st.booleans(),
    oversampling=st.floats(2.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_least_squares_ill_conditioned_tall_designs_take_gelsd(
    n, k_u, k_v, span_weight, per_direction, oversampling, seed
):
    # A near-zero weight on the first direction of the left basis scales k_v
    # design columns by 1 / span_weight, so cond(D) is about 1e5 to 1e6 and
    # the Cholesky diagonal ratio about span_weight, below GRAM_DIAG_RATIO_MIN.
    # Both weight modes must give a Q^-1 that is symmetric bit for bit: an
    # asymmetry at rounding level, amplified by 1 / span_weight, moved
    # per-direction solves past ORACLE_TOL.
    assert span_weight < GRAM_DIAG_RATIO_MIN
    k_u, k_v = min(k_u, n), min(k_v, n)
    p = int(np.ceil(oversampling * k_u * k_v))
    rng = np.random.default_rng(seed)
    op = make_gaussian(n, p, rng)
    left = random_orthonormal(n, k_u, rng)
    if per_direction:
        spec = WeightSpec.per_direction((span_weight,), (1.0,))
    else:
        spec = WeightSpec.single(span_weight, 1.0)
    q = build_weight_operator(left[:, :1], spec, rng=rng)
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
    # of the de-weighted estimate measured through the raw operator. For
    # completion the loop measures the estimate itself, by the gather the
    # operator applies, so the two agree bit for bit. Every solve keeps one
    # estimate per iteration, the last being the final one.
    rank = min(rank, n // 2)
    rng = np.random.default_rng(seed)
    p = max(1, int(ratio * n * n))
    op = make_completion(n, p, rng) if kind == COMPLETION else make_gaussian(n, p, rng)
    truth = random_low_rank(n, rank, rng)
    y = op.apply(truth)
    y += noise * np.linalg.norm(y) / np.sqrt(p) * rng.standard_normal(p)
    weighting = None
    if weighted:
        spec = WeightSpec.per_direction([0.2] * rank, [0.95] * rank)
        weighting = tuple(
            build_weight_operator(random_orthonormal(n, rank, rng), spec, rng=rng) for _ in range(2)
        )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "MAX_ITERATIONS", 8)
        run, iterates = solve_and_iterates(op, y, SolverConfig(rank=rank, weighting=weighting))
    assert len(iterates) == len(run.trace) == run.iterations
    assert np.array_equal(iterates[-1], run.estimate)
    y_norm = np.linalg.norm(y)
    for rec, est in zip(run.trace, iterates):
        measured = np.linalg.norm(y - op.apply(est))
        if kind == COMPLETION:
            assert rec.residual_norm == measured
        else:
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
    # explicit design, and estimate(M) measures D vec(M), for any sampling:
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
    design = dense_design(wop, sup)

    g = sup.left if wop.qu_inv is None else wop.qu_inv @ sup.left
    h = sup.right if wop.qv_inv is None else wop.qv_inv @ sup.right
    gram, rhs = _completion_normal_equations(op, g, h, y)
    scale = np.linalg.norm(design) * np.linalg.norm(y)
    assert np.linalg.norm(gram - design.T @ design) <= 1e-12 * np.linalg.norm(design) ** 2
    assert np.linalg.norm(rhs - design.T @ y) <= 1e-12 * scale

    _, estimate = least_squares_on_support(wop, y, sup)
    m = rng.standard_normal((k_u, k_v))
    expected = design @ m.ravel()
    assert np.linalg.norm(estimate(m)[1] - expected) <= 1e-12 * np.linalg.norm(design) * np.linalg.norm(m)


@PROPERTY
@given(
    n=st.integers(2, 7),
    k_u=st.integers(1, 7),
    k_v=st.integers(1, 7),
    span_weight=st.sampled_from([None, 1.0, 0.3, 0.7]),
    block=st.integers(0, 5),
    layout=st.sampled_from(["below", "equal", "multiple", "short_last"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_streamed_gaussian_design_equals_one_batched_product(
    n, k_u, k_v, span_weight, block, layout, seed, data
):
    # A budget of `block` slices plus less than one more gives blocks of
    # `block` slices, or of one slice when block is 0. p lies below one
    # block, equals it, is a multiple of it or leaves a short last block.
    # Every layout gives the design of one batched product over all slices,
    # bit for bit, and least squares measures with that same design.
    k_u, k_v = min(k_u, n), min(k_v, n)
    slice_bytes = k_u * n * 8
    budget = block * slice_bytes + data.draw(st.integers(0, slice_bytes - 1), label="spare")
    step = max(1, block)
    p = {"below": max(1, step - 1), "equal": step, "multiple": 3 * step,
         "short_last": 2 * step + max(1, step // 2)}[layout]
    rng = np.random.default_rng(seed)
    wop = _weighted(make_gaussian(n, p, rng), n, rng, span_weight)
    sup = Support(random_orthonormal(n, k_u, rng), random_orthonormal(n, k_v, rng))
    g = sup.left if wop.qu_inv is None else wop.qu_inv @ sup.left
    h = sup.right if wop.qv_inv is None else wop.qv_inv @ sup.right
    g, h = np.ascontiguousarray(g), np.ascontiguousarray(h)
    batched = np.matmul(np.matmul(g.T, wop.base.mats), h).reshape(p, -1)
    m = rng.standard_normal((k_u, k_v))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "DESIGN_BLOCK_BYTES", budget)
        streamed = _gaussian_design(wop.base.mats, g, h)
        _, estimate = least_squares_on_support(wop, rng.standard_normal(p), sup)
    assert streamed.shape == batched.shape
    assert streamed.tobytes() == batched.tobytes()
    assert np.array_equal(estimate(m)[1], batched @ m.ravel())


@PROPERTY
@given(
    n=st.integers(3, 8),
    k_u=st.integers(1, 7),
    span_weight=st.sampled_from([None, 0.3]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_completion_measure_equals_explicit_sensing_matrix(n, k_u, span_weight, seed, data):
    # estimate(M) is one n x n product g M h^T, the de-weighted U M V^T, and
    # its sampled entries; they must equal the explicit p x n^2 sensing matrix
    # times that matrix, with k_u != k_v so that a transposed factor cannot pass.
    k_u = min(k_u, n - 1)
    k_v = data.draw(st.integers(1, n).filter(lambda k: k != k_u), label="k_v")
    rng = np.random.default_rng(seed)
    op = make_completion(n, data.draw(st.integers(1, n * n), label="p"), rng)
    wop = _weighted(op, n, rng, span_weight)
    sup = Support(random_orthonormal(n, k_u, rng), random_orthonormal(n, k_v, rng))
    _, estimate = least_squares_on_support(wop, rng.standard_normal(op.p), sup)
    m = rng.standard_normal((k_u, k_v))
    x, fitted = estimate(m)
    x_dense = wop.deweight(sup.left @ m @ sup.right.T)
    assert np.linalg.norm(x - x_dense) <= 1e-12 * np.linalg.norm(x_dense)
    expected = sensing_matrix(op) @ x_dense.ravel()
    assert np.linalg.norm(fitted - expected) <= 1e-12 * np.linalg.norm(expected)


@PROPERTY
@given(
    n=st.integers(3, 8),
    k_u=st.integers(1, 6),
    k_v=st.integers(1, 6),
    oversampling=st.floats(2.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gaussian_gram_is_symmetric_and_factored_in_place_bit_for_bit(n, k_u, k_v, oversampling, seed):
    # D^T D of the Gaussian design is exactly symmetric, so factoring its
    # transpose in place gives the bits of potrf's copying call, and the
    # factor really lands in the caller's array.
    k_u, k_v = min(k_u, n), min(k_v, n)
    p = int(np.ceil(oversampling * k_u * k_v))
    rng = np.random.default_rng(seed)
    op = make_gaussian(n, p, rng)
    design = _gaussian_design(op.mats, random_orthonormal(n, k_u, rng), random_orthonormal(n, k_v, rng))
    gram, rhs = design.T @ design, design.T @ rng.standard_normal(p)
    assert np.array_equal(gram, gram.T)
    factor, info = dpotrf(gram, lower=0, clean=0)
    assert info == 0
    expected, _ = dpotrs(factor, rhs, lower=0)
    scratch = gram.copy()
    assert _cholesky_solve(scratch, rhs).tobytes() == expected.tobytes()
    assert np.array_equal(np.triu(scratch.T), np.triu(factor))


def test_gaussian_least_squares_holds_one_design_block_at_a_time():
    # Here the intermediate g^T A_i of all p slices would be four budgets.
    # Streaming holds the design and one block of g^T A_i at a time, plus
    # the small Gram matrix and vectors covered by the slack.
    n, k_u, k_v = 30, 9, 3
    p = 4 * DESIGN_BLOCK_BYTES // (k_u * n * 8)
    rng = np.random.default_rng(11)
    op = MeasurementOperator(GAUSSIAN, n, p, mats=rng.standard_normal((p, n, n)) / np.sqrt(p))
    sup = Support(random_orthonormal(n, k_u, rng), random_orthonormal(n, k_v, rng))
    y = rng.standard_normal(p)
    tracemalloc.start()
    try:
        least_squares_on_support(WeightedOperator(op), y, sup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    design_bytes = p * k_u * k_v * 8
    assert peak <= design_bytes + DESIGN_BLOCK_BYTES + 2**18


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
    y = op.apply(random_low_rank(n, rank, rng))
    y += noise * np.linalg.norm(y) / np.sqrt(p) * rng.standard_normal(p)
    ones = WeightSpec.single(1.0, 1.0)
    weighting = tuple(build_weight_operator(random_orthonormal(n, rank, rng), ones) for _ in range(2))
    run_w, iterates_w = solve_and_iterates(op, y, SolverConfig(rank=rank, weighting=weighting))
    run_0, iterates_0 = solve_and_iterates(op, y, SolverConfig(rank=rank))
    assert run_w.stop_reason == run_0.stop_reason
    assert run_w.trace == run_0.trace
    assert len(iterates_w) == len(iterates_0) == run_0.iterations
    for a, b in zip(iterates_w, iterates_0):
        assert np.array_equal(a, b)
    assert np.array_equal(run_w.estimate, run_0.estimate)


# A step of the loop is fixed only up to rounding when its choice of subspace
# nearly ties or its least-squares problem is nearly singular; such draws are
# skipped below, and every other step must match the reference within
# REFERENCE_TOL. The library's normal equations lose about cond(D)^2 * eps, so
# at REFERENCE_COND_MAX that is 1e-10.
REFERENCE_GAP_MIN = 1e-4
REFERENCE_COND_MAX = 1e3
REFERENCE_TOL = 1e-9


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from([GAUSSIAN, COMPLETION]),
    mode=st.sampled_from([None, "single", "per_direction"]),
    n=st.integers(6, 12),
    rank=st.integers(1, 3),
    ratio=st.floats(0.3, 0.9),
    noise=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_iterate_is_one_reference_step_from_the_last(kind, mode, n, rank, ratio, noise, seed):
    # tests/oracles.reference_solve, started from each previous iterate of
    # the solve, must give that solve's next iterate, residual norm and stop.
    # It starts from the solve's iterates rather than running free because on
    # a run that does not contract the loop amplifies rounding: run free, it
    # drifted from the solve by O(1) on about a tenth of these draws, gaps and
    # conditioning notwithstanding.
    rng = np.random.default_rng(seed)
    p = max(1, int(ratio * n * n))
    op = make_completion(n, p, rng) if kind == COMPLETION else make_gaussian(n, p, rng)
    y = op.apply(random_low_rank(n, rank, rng))
    y += noise * np.linalg.norm(y) / np.sqrt(p) * rng.standard_normal(p)
    weighting = None
    if mode == "single":
        spec = WeightSpec.single(0.4, 0.9)
    else:
        spec = WeightSpec.per_direction([0.2] * rank, [0.95] * rank)
    if mode is not None:
        weighting = tuple(
            build_weight_operator(random_orthonormal(n, rank, rng), spec, rng=rng) for _ in range(2)
        )
    run, iterates = solve_and_iterates(op, y, SolverConfig(rank=rank, weighting=weighting))
    ref = reference_solve(op, y, rank, weighting, follow=iterates)
    # Near-ties: the proxy's 2r-th and (2r+1)-th singular values (support
    # selection), and the r-th and (r+1)-th ones of an estimate (truncation
    # and the support carried over). Near-singular designs: two correct
    # minimum-norm solvers may cut their rank at different singular values.
    assume(min(ref.support_gaps) > REFERENCE_GAP_MIN)
    assume(min(ref.rank_gaps) > REFERENCE_GAP_MIN)
    assume(max(ref.design_conds) < REFERENCE_COND_MAX)
    assert len(ref.estimates) == run.iterations
    assert ref.stop_reason == run.stop_reason
    y_norm = np.linalg.norm(y)
    for est, ref_est, rec, ref_norm in zip(iterates, ref.estimates, run.trace, ref.residual_norms):
        assert np.linalg.norm(est - ref_est) <= REFERENCE_TOL * np.linalg.norm(ref_est)
        assert abs(rec.residual_norm - ref_norm) <= REFERENCE_TOL * y_norm


@pytest.mark.parametrize("kind", [GAUSSIAN, COMPLETION])
@pytest.mark.parametrize("weighted", [False, True])
def test_solve_matches_the_free_running_reference_loop(kind, weighted):
    # With the truth's own subspaces as the prior and 80 % sampling the loop
    # contracts, so the reference loop run on its own stays with the solve
    # for the whole run; rounding accumulates over up to 20 steps, hence the
    # looser bound than one step's REFERENCE_TOL.
    rng = np.random.default_rng(0)
    n, rank = 10, 2
    u, v = random_orthonormal(n, rank, rng), random_orthonormal(n, rank, rng)
    p = int(0.8 * n * n)
    op = make_completion(n, p, rng) if kind == COMPLETION else make_gaussian(n, p, rng)
    y = op.apply((u * [2.0, 1.0]) @ v.T)
    spec = WeightSpec.single(0.4, 0.9)
    weighting = (build_weight_operator(u, spec), build_weight_operator(v, spec)) if weighted else None
    run, iterates = solve_and_iterates(op, y, SolverConfig(rank=rank, weighting=weighting))
    ref = reference_solve(op, y, rank, weighting)
    assert len(ref.estimates) == run.iterations
    assert ref.stop_reason == run.stop_reason
    for est, ref_est in zip(iterates, ref.estimates):
        assert np.linalg.norm(est - ref_est) <= 1e-8 * np.linalg.norm(ref_est)
