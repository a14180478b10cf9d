import numpy as np
import pytest

from subrec.linalg import perturb_subspace, random_orthonormal
from subrec.operators import (
    WeightedOperator,
    estimate_rip,
    make_completion,
    make_gaussian,
    make_identity_sensing,
    random_low_rank,
)
from subrec.weighting import WeightSpec, build_weight_operator


def test_gaussian_deterministic_under_seed():
    a = make_gaussian(8, 20, 42)
    b = make_gaussian(8, 20, 42)
    assert np.array_equal(a.mats, b.mats)
    assert a.seed == 42


def test_gaussian_isometric_in_expectation():
    # For a fixed unit-norm matrix, the mean squared measurement norm over
    # fresh operators concentrates near 1.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 6))
    x /= np.linalg.norm(x)
    values = []
    for seed in range(200):
        op = make_gaussian(6, 30, (1000, seed))
        y = op.apply(x)
        values.append(float(y @ y))
    assert abs(np.mean(values) - 1.0) <= 0.1


def test_completion_full_sampling_is_permutation():
    op = make_completion(4, 16, 3)
    x = np.arange(16.0).reshape(4, 4)
    assert sorted(op.apply(x)) == sorted(x.ravel())


def test_completion_single_entry():
    op = make_completion(5, 25, 1)  # full sampling so (0, 0) is present
    x = np.zeros((5, 5))
    x[0, 0] = 1.0
    y = op.apply(x)
    hits = [i for i, (j, k) in enumerate(op.indices) if (j, k) == (0, 0)]
    assert len(hits) == 1
    assert y[hits[0]] == 1.0
    assert np.sum(np.abs(y)) == 1.0


def test_completion_adjoint_zeroes_unobserved():
    rng = np.random.default_rng(1)
    op = make_completion(6, 12, 4)
    x = rng.standard_normal((6, 6))
    back = op.adjoint(op.apply(x))
    observed = np.zeros((6, 6), dtype=bool)
    observed[op.indices[:, 0], op.indices[:, 1]] = True
    assert np.allclose(back[observed], x[observed])
    assert np.all(back[~observed] == 0.0)


def test_completion_bounds():
    with pytest.raises(ValueError):
        make_completion(3, 10, 0)
    with pytest.raises(ValueError):
        make_gaussian(3, 0, 0)


def test_apply_trivial_cases():
    op = make_gaussian(5, 7, 11)
    assert np.allclose(op.apply(np.zeros((5, 5))), 0.0)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 5))
    single = make_gaussian(5, 1, 0)
    single.mats = (x / np.linalg.norm(x))[None]
    assert np.allclose(single.apply(x), [np.linalg.norm(x)], atol=1e-12)
    with pytest.raises(ValueError):
        op.apply(np.zeros((4, 4)))


def test_weighted_identity_reduces_to_base():
    rng = np.random.default_rng(3)
    op = make_gaussian(6, 10, 5)
    x = rng.standard_normal((6, 6))
    wop = WeightedOperator(op, np.eye(6), np.eye(6))
    assert np.array_equal(wop.apply(x), op.apply(x))
    y = rng.standard_normal(10)
    assert np.array_equal(wop.adjoint(y), op.adjoint(y))


def test_adjoint_identity_both_kinds():
    rng = np.random.default_rng(4)
    ops = [make_gaussian(7, 15, 6), make_completion(7, 20, 7)]
    prior = random_orthonormal(7, 2, rng)
    q = build_weight_operator(prior, WeightSpec.single(0.3, 0.9))
    ops.append(WeightedOperator(ops[0], q.q_inv, q.q_inv))
    for op in ops:
        for _ in range(100):
            x = rng.standard_normal((7, 7))
            y = rng.standard_normal(op.p if hasattr(op, "p") else op.base.p)
            lhs = float(op.apply(x) @ y)
            rhs = float(np.sum(x * op.adjoint(y)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_adjoint_trivial_cases():
    op = make_completion(4, 5, 9)
    assert np.all(op.adjoint(np.zeros(5)) == 0.0)
    y = np.arange(1.0, 6.0)
    back = op.adjoint(y)
    for value, (j, k) in zip(y, op.indices):
        assert back[j, k] == value
    with pytest.raises(ValueError):
        op.adjoint(np.zeros(6))


def test_estimate_rip_exact_isometry():
    op = make_identity_sensing(5)
    est = estimate_rip(op, 2, 50, rng=10)
    assert est.delta_hat <= 1e-10
    assert est.ratio_min >= 1.0 - 1e-12 and est.ratio_max <= 1.0 + 1e-12


def test_estimate_rip_scaling():
    op = make_identity_sensing(5)
    scaled = make_identity_sensing(5)
    scaled.mats = 2.0 * scaled.mats
    est = estimate_rip(scaled, 2, 50, rng=11)
    assert est.delta_hat >= 3.0 - 1e-9


def test_estimate_rip_regression_anchor():
    # Frozen Monte-Carlo anchor: gaussian n=10, rank 1, p=80, 500 samples.
    op = make_gaussian(10, 80, 7)
    est = estimate_rip(op, 1, 500, rng=123)
    assert 0.0 < est.delta_hat < 1.0
    assert abs(est.delta_hat - 0.633243136618) <= 1e-9


def test_estimate_rip_deterministic():
    op = make_gaussian(9, 40, 8)
    a = estimate_rip(op, 2, 100, rng=21)
    b = estimate_rip(op, 2, 100, rng=21)
    assert a == b
    with pytest.raises(ValueError, match="need at least one sample"):
        estimate_rip(op, 2, 0, rng=1)
    with pytest.raises(ValueError, match="need at least one sample"):
        estimate_rip(op, 2, 0, sample_mats=[])


def _fig1_weighting(rng):
    truth_u = random_orthonormal(30, 3, rng)
    truth_v = random_orthonormal(30, 3, rng)
    prior_u = perturb_subspace(truth_u, (2.3307, 3.1302, 3.8852), rng)
    prior_v = perturb_subspace(truth_v, (2.4493, 2.9559, 4.1325), rng)
    qu = build_weight_operator(
        prior_u,
        WeightSpec.per_direction((0.17, 0.19, 0.21), (0.99, 0.98, 0.97)),
        complement_reference=truth_u,
    )
    qv = build_weight_operator(
        prior_v,
        WeightSpec.per_direction((0.17, 0.19, 0.21), (0.99, 0.98, 0.97)),
        complement_reference=truth_v,
    )
    return qu, qv


def test_weighted_isometry_identity_and_delta_ordering():
    rng = np.random.default_rng(5)
    qu, qv = _fig1_weighting(rng)
    base = make_gaussian(30, 180, 31)
    weighted = WeightedOperator(base, qu.q_inv, qv.q_inv)
    mats = [random_low_rank(30, 30, 3, rng) for _ in range(50)]
    for z in mats:
        z_weighted = qu.q @ z @ qv.q
        assert np.max(np.abs(weighted.apply(z_weighted) - base.apply(z))) <= 1e-12
        assert np.linalg.norm(z_weighted) <= np.linalg.norm(z) + 1e-12
    est_a = estimate_rip(base, 3, len(mats), sample_mats=mats)
    est_b = estimate_rip(weighted, 3, len(mats), sample_mats=[qu.q @ z @ qv.q for z in mats])
    assert est_a.delta_hat <= est_b.delta_hat + 1e-10
