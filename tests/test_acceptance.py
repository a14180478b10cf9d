"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The statistical criteria
use the same seeded instance streams as the benchmark harness, so their
outcomes are reproducible bit for bit.
"""

import mpmath
import numpy as np
from oracles import truncate_rank

from subrec import analysis, bench
from subrec.linalg import (
    orthonormalize,
    perturb_subspace,
    random_orthonormal,
    svd,
)
from subrec.operators import (
    WeightedOperator,
    estimate_rip,
    make_completion,
    make_gaussian,
    random_low_rank,
)
from subrec.solver import SolverConfig, Support, least_squares_on_support, solve
from subrec.weighting import WeightSpec, build_weight_operator


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"acceptance criterion {num} ({name}) failed {detail}"


def _ls_estimate(op, y, sup):
    """The matrix U M V^T of least_squares_on_support's coefficient block M."""
    coef, _ = least_squares_on_support(op, y, sup)
    return sup.left @ coef @ sup.right.T


def _success_rate(scenario, ratio, solver, trials=50):
    hits = 0
    for t in range(trials):
        instance = bench.generate_instance(scenario, ratio, t)
        hits += bench.run_trial(instance, solver, scenario).success
    return hits / trials


def test_criterion_1_convergence_constants():
    mpmath.mp.dps = 50
    d = mpmath.mpf("0.04")
    rho_oracle = mpmath.sqrt(2 * d**2 * (1 + 3 * d**2) / (1 - d**2))
    thr = analysis.delta_threshold()
    ok = (
        abs(thr - 0.47824) <= 1e-4
        and abs(analysis.convergence_factor(thr) - 1.0) <= 1e-3
        and abs(analysis.convergence_factor(0.04) - float(rho_oracle)) <= 1e-12
        and abs(float(rho_oracle) - 0.0567) <= 1e-4
    )
    _report(1, "convergence constants", ok, f"threshold={thr:.6f} rho(0.04)={float(rho_oracle):.6f}")


def test_criterion_2_admira_reduction():
    scenario = bench.builtin_presets()["close_close"]
    ones = WeightSpec.single(1.0, 1.0)
    worst = 0.0
    for t in range(20):
        instance = bench.generate_instance(scenario, 0.6, t)
        weighting = (
            build_weight_operator(instance.prior_u, ones),
            build_weight_operator(instance.prior_v, ones),
        )
        run_w = solve(
            instance.operator,
            instance.y,
            SolverConfig(rank=3, max_iterations=20, weighting=weighting),
        )
        run_0 = solve(
            instance.operator,
            instance.y,
            SolverConfig(rank=3, max_iterations=20),
        )
        assert run_w.iterations == run_0.iterations
        for a, b in zip(run_w.estimates, run_0.estimates):
            worst = max(worst, float(np.linalg.norm(a - b)))
    _report(2, "unit-weight reduction", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_3_weighted_isometry_identities():
    scenario = bench.builtin_presets()["close_close"]
    rng = np.random.default_rng(99)
    truth_u = random_orthonormal(30, 3, rng)
    truth_v = random_orthonormal(30, 3, rng)
    prior_u = perturb_subspace(truth_u, scenario.theta_u, rng)
    prior_v = perturb_subspace(truth_v, scenario.theta_v, rng)
    qu = build_weight_operator(prior_u, scenario.grmspi_weights_u, complement_reference=truth_u)
    qv = build_weight_operator(prior_v, scenario.grmspi_weights_v, complement_reference=truth_v)
    base = make_gaussian(30, 360, 101)
    weighted = WeightedOperator(base, qu.q_inv, qv.q_inv)
    mats = [random_low_rank(30, 30, 3, rng) for _ in range(200)]
    worst = 0.0
    shrink_ok = True
    for z in mats:
        zw = qu.q @ z @ qv.q
        worst = max(worst, float(np.max(np.abs(weighted.apply(zw) - base.apply(z)))))
        shrink_ok &= np.linalg.norm(zw) <= np.linalg.norm(z) + 1e-12
    est_a = estimate_rip(base, 3, len(mats), sample_mats=mats)
    est_b = estimate_rip(weighted, 3, len(mats), sample_mats=[qu.q @ z @ qv.q for z in mats])
    ok = worst <= 1e-12 and shrink_ok and est_a.delta_hat <= est_b.delta_hat + 1e-10
    _report(
        3,
        "weighted operator identities",
        ok,
        f"max component diff {worst:.2e}, delta A {est_a.delta_hat:.3f} <= delta B {est_b.delta_hat:.3f}",
    )


def _dense_pinv_oracle(wop, y, support):
    """Independent least-squares route: looped rows, explicit SVD pseudo-inverse."""
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
        rows.append((support.left.T @ qu @ a_i @ qv @ support.right).ravel())
    design = np.vstack(rows)
    u, s, vh = np.linalg.svd(design, full_matrices=False)
    keep = s > s[0] * 1e-12
    coef = vh[keep].T @ ((u[:, keep].T @ y) / s[keep])
    return support.left @ coef.reshape(support.dims) @ support.right.T


def test_criterion_4_least_squares_oracle():
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(50):
        p = int(rng.integers(4, 17))
        op = make_gaussian(4, p, (500, trial))
        prior = random_orthonormal(4, 1, rng)
        q = build_weight_operator(prior, WeightSpec.single(float(rng.uniform(0.2, 1.0)), 0.95))
        wop = WeightedOperator(op, q.q_inv, q.q_inv)
        support = Support(
            random_orthonormal(4, int(rng.integers(1, 3)), rng),
            random_orthonormal(4, int(rng.integers(1, 3)), rng),
        )
        y = rng.standard_normal(p)
        diff = np.linalg.norm(
            _ls_estimate(wop, y, support) - _dense_pinv_oracle(wop, y, support)
        )
        worst = max(worst, float(diff))
    _report(4, "least-squares oracle equivalence", worst <= 1e-10, f"max diff {worst:.2e}")


def test_criterion_5_exact_recovery_well_sampled():
    scenario = bench.builtin_presets()["close_close"]
    rates = {s: _success_rate(scenario, 0.8, s) for s in ("admira", "rmspi", "grmspi")}
    ok = all(rate >= 0.95 for rate in rates.values())
    _report(5, "exact recovery at ratio 0.8", ok, str(rates))


def test_criterion_6_prior_advantage_low_sampling():
    # The margin is asserted at ratio 0.4, the lowest preset ratio at which
    # the weighted loop succeeds while the baseline still fails; the sampled
    # isometry constants exceed the convergence threshold there too, so the
    # choice rests on measurement. At ratio 0.2 (p = 180 against 171 degrees
    # of freedom) no solver reaches the success threshold, so those rates are
    # only reported, to keep the limitation visible.
    scenario = bench.builtin_presets()["close_close"]
    rates = {
        ratio: (_success_rate(scenario, ratio, "grmspi"), _success_rate(scenario, ratio, "admira"))
        for ratio in (0.4, 0.2)
    }
    grmspi, admira = rates[0.4]
    _report(
        6,
        "prior advantage at ratio 0.4",
        grmspi - admira >= 0.2,
        "; ".join(f"ratio {r}: grmspi {g:.2f} vs admira {a:.2f}" for r, (g, a) in rates.items()),
    )


def test_criterion_7_multi_weight_advantage():
    scenario = bench.builtin_presets()["far_far"]
    grmspi = _success_rate(scenario, 0.4, "grmspi")
    rmspi = _success_rate(scenario, 0.4, "rmspi")
    _report(7, "multi-weight advantage (far priors)", grmspi >= rmspi,
            f"grmspi {grmspi:.2f} vs rmspi {rmspi:.2f}")


def test_criterion_8_completion_recovery():
    scenario = bench.builtin_presets()["close_close_completion"]
    grmspi = _success_rate(scenario, 0.6, "grmspi")
    admira = _success_rate(scenario, 0.6, "admira")
    ok = grmspi >= 0.5 and grmspi >= admira
    _report(8, "completion without isometry guarantees", ok,
            f"grmspi {grmspi:.2f}, admira {admira:.2f}")


def test_criterion_9_noise_robustness():
    # Regression anchor from the first seeded run: fraction 1.00 of 50 trials
    # at or above 40 dB, median recovered SNR ~= 55.9 dB.
    scenario = bench.builtin_presets()["close_close_noisy"]
    snrs = []
    for t in range(50):
        instance = bench.generate_instance(scenario, 0.6, t)
        snrs.append(bench.run_trial(instance, "grmspi", scenario).snr_db)
    fraction = float(np.mean([s >= 40.0 for s in snrs]))
    _report(9, "noise robustness", fraction >= 0.8,
            f"fraction >= 40 dB: {fraction:.2f}, median {np.median(snrs):.1f} dB")


def test_criterion_10_property_bundle():
    rng = np.random.default_rng(1000)
    checks = []

    # orthonormality of every basis constructor
    b = random_orthonormal(30, 3, rng)
    tilted = perturb_subspace(b, (2.3307, 3.1302, 3.8852), rng)
    merged = orthonormalize(np.hstack([b, tilted]))
    for basis in (b, tilted, merged):
        checks.append(np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1])) <= 1e-10)

    # adjoint identity for both operator kinds
    for op in (make_gaussian(8, 24, 1), make_completion(8, 20, 2)):
        for _ in range(100):
            x = rng.standard_normal((8, 8))
            y = rng.standard_normal(op.p)
            lhs = float(op.apply(x) @ y)
            rhs = float(np.sum(x * op.adjoint(y)))
            checks.append(abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)))

    # Eckart-Young tail identity
    m = rng.standard_normal((6, 6))
    _, s, _ = svd(m)
    checks.append(
        abs(np.linalg.norm(truncate_rank(m, 2) - m) - np.sqrt(np.sum(s[2:] ** 2))) <= 1e-8
    )

    # weighting inverse
    prior = random_orthonormal(20, 3, rng)
    spec = WeightSpec.per_direction((0.17, 0.19, 0.21), (0.99, 0.98, 0.97))
    q = build_weight_operator(prior, spec, rng=rng)
    checks.append(np.linalg.norm(q.q @ q.q_inv - np.eye(20)) <= 1e-10)

    # support bounds plus residual orthogonality inside a real solve
    scenario = bench.builtin_presets()["close_close"]
    instance = bench.generate_instance(scenario, 0.6, 0)
    config = bench.solver_config(scenario, instance, "grmspi")
    run = solve(instance.operator, instance.y, config)
    checks.extend(max(rec.merged_dims) <= 9 for rec in run.trace)
    checks.extend(max(rec.support_dims) <= 3 for rec in run.trace)
    qu, qv = config.weighting
    wop = WeightedOperator(instance.operator, qu.q_inv, qv.q_inv)
    support = Support(random_orthonormal(30, 3, rng), random_orthonormal(30, 3, rng))
    x_tilde = _ls_estimate(wop, instance.y, support)
    residual = instance.y - wop.apply(x_tilde)
    for _ in range(20):
        z = support.left @ rng.standard_normal((3, 3)) @ support.right.T
        z /= np.linalg.norm(z)
        checks.append(abs(residual @ wop.apply(z)) <= 1e-8 * max(1.0, np.linalg.norm(residual)))

    # determinism of the seeded pipeline
    a = bench.run_trial(bench.generate_instance(scenario, 0.6, 1), "rmspi", scenario)
    b2 = bench.run_trial(bench.generate_instance(scenario, 0.6, 1), "rmspi", scenario)
    checks.append((a.success, a.normalized_error, a.snr_db) == (b2.success, b2.normalized_error, b2.snr_db))

    failed = len(checks) - int(np.sum(checks))
    _report(10, "module property bundle", failed == 0, f"{len(checks)} checks, {failed} failed")
