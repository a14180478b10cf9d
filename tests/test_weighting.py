import json
from dataclasses import asdict

import numpy as np
import pytest

from subrec.linalg import perturb_subspace, random_orthonormal
from subrec.weighting import (
    PER_DIRECTION,
    SINGLE,
    WeightSpec,
    angle_weight,
    angles_to_weights,
    build_weight_operator,
)


def test_unit_weights_give_exact_identity():
    rng = np.random.default_rng(0)
    prior = random_orthonormal(12, 3, rng)
    op = build_weight_operator(prior, WeightSpec.single(1.0, 1.0))
    assert np.array_equal(op.q, np.eye(12))
    assert np.array_equal(op.q_inv, np.eye(12))
    op_pd = build_weight_operator(
        prior, WeightSpec.per_direction((1.0,) * 3, (1.0,) * 3), rng=rng
    )
    assert np.allclose(op_pd.q, np.eye(12), atol=1e-15)


def test_single_mode_eigenvalues():
    rng = np.random.default_rng(1)
    prior = random_orthonormal(30, 3, rng)
    op = build_weight_operator(prior, WeightSpec.single(0.18, 0.999))
    eig = np.sort(np.linalg.eigvalsh(op.q))
    expected = np.sort([0.18] * 3 + [0.999] * 27)
    assert np.allclose(eig, expected, atol=1e-10)


def test_per_direction_eigenvalue_multiset():
    rng = np.random.default_rng(2)
    prior = random_orthonormal(30, 3, rng)
    spec = WeightSpec.per_direction((0.17, 0.19, 0.21), (0.99, 0.98, 0.97))
    op = build_weight_operator(prior, spec, rng=rng)
    eig = np.sort(np.linalg.eigvalsh(op.q))
    expected = np.sort([0.17, 0.19, 0.21, 0.99, 0.98, 0.97] + [1.0] * 24)
    assert np.allclose(eig, expected, atol=1e-10)


def test_complement_directions_pair_with_ascending_angles():
    # With a reference, complement weight i must land on the complement
    # direction paired with the i-th ascending principal angle.
    rng = np.random.default_rng(3)
    angles = (10.0, 35.0, 70.0)
    truth = random_orthonormal(12, 3, rng)
    prior = perturb_subspace(truth, angles, rng)
    spec = WeightSpec.per_direction((0.2, 0.3, 0.4), (0.5, 0.6, 0.7))
    op = build_weight_operator(prior, spec, complement_reference=truth)
    dirs = op.weighted_complement
    assert np.allclose(dirs.T @ dirs, np.eye(3), atol=1e-10)
    assert np.max(np.abs(prior.T @ dirs)) <= 1e-10
    # the direction paired with angle theta_i carries alignment sin(theta_i)
    align = np.linalg.norm(truth.T @ dirs, axis=0)
    assert np.allclose(align, np.sin(np.radians(angles)), atol=1e-8)
    for i in range(3):
        assert abs(dirs[:, i] @ op.q @ dirs[:, i] - spec.complement_weights[i]) <= 1e-10


def test_invert_identity_and_reciprocal():
    rng = np.random.default_rng(4)
    prior = random_orthonormal(10, 2, rng)
    op = build_weight_operator(prior, WeightSpec.single(1.0, 1.0))
    assert np.array_equal(op.q_inv, np.eye(10))
    op2 = build_weight_operator(prior, WeightSpec.single(0.5, 1.0))
    eig = np.sort(np.linalg.eigvalsh(op2.q_inv))
    assert np.allclose(eig, np.sort([2.0] * 2 + [1.0] * 8), atol=1e-10)


def test_q_times_q_inv_is_identity():
    rng = np.random.default_rng(5)
    for _ in range(5):
        prior = random_orthonormal(20, 4, rng)
        spec = WeightSpec.per_direction(
            tuple(rng.uniform(0.1, 1.0, 4)), tuple(rng.uniform(0.1, 1.0, 4))
        )
        op = build_weight_operator(prior, spec, rng=rng)
        assert np.linalg.norm(op.q @ op.q_inv - np.eye(20)) <= 1e-10


def test_operator_norm_at_most_one_and_contractive():
    rng = np.random.default_rng(6)
    prior = random_orthonormal(15, 3, rng)
    qu = build_weight_operator(prior, WeightSpec.single(0.18, 0.999))
    qv = build_weight_operator(random_orthonormal(15, 3, rng), WeightSpec.single(0.3, 0.9))
    assert np.max(np.linalg.eigvalsh(qu.q)) <= 1.0 + 1e-12
    for _ in range(20):
        z = rng.standard_normal((15, 15))
        assert np.linalg.norm(qu.q @ z @ qv.q) <= np.linalg.norm(z) + 1e-12


def test_q_commutes_with_prior_projector():
    rng = np.random.default_rng(7)
    prior = random_orthonormal(12, 3, rng)
    spec = WeightSpec.per_direction((0.2, 0.4, 0.6), (0.7, 0.8, 0.9))
    op = build_weight_operator(prior, spec, rng=rng)
    p = prior @ prior.T
    assert np.linalg.norm(op.q @ p - p @ op.q) <= 1e-10


def test_build_invert_round_trip_reciprocal_spectrum():
    rng = np.random.default_rng(8)
    prior = random_orthonormal(14, 3, rng)
    spec = WeightSpec.per_direction((0.25, 0.5, 0.75), (0.4, 0.8, 1.0))
    op = build_weight_operator(prior, spec, rng=rng)
    eig_inv = np.sort(np.linalg.eigvalsh(op.q_inv))
    expected = np.sort([1 / w for w in (0.25, 0.5, 0.75, 0.4, 0.8, 1.0)] + [1.0] * 8)
    assert np.allclose(eig_inv, expected, atol=1e-8)


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec.single(0.0, 0.5)
    with pytest.raises(ValueError):
        WeightSpec.single(0.5, 1.2)
    with pytest.raises(ValueError):
        WeightSpec.per_direction((0.5, 0.5), (0.5,))
    with pytest.raises(ValueError):
        WeightSpec("diagonal", 0.5, 0.5)


def test_build_rejects_bad_inputs():
    rng = np.random.default_rng(9)
    prior = random_orthonormal(10, 3, rng)
    with pytest.raises(ValueError):
        build_weight_operator(prior, WeightSpec.per_direction((0.5, 0.5), (0.5, 0.5)))
    with pytest.raises(ValueError):
        # per-direction weighting with neither reference nor rng
        build_weight_operator(prior, WeightSpec.per_direction((0.5,) * 3, (0.5,) * 3))
    with pytest.raises(ValueError):
        build_weight_operator(rng.standard_normal((10, 3)), WeightSpec.single(0.5, 0.5))
    small = random_orthonormal(5, 3, rng)
    with pytest.raises(ValueError):
        build_weight_operator(small, WeightSpec.per_direction((0.5,) * 3, (0.5,) * 3), rng=rng)


def test_angle_weight_map_endpoints():
    spec0 = angles_to_weights([0.0, 0.0], SINGLE)
    assert abs(spec0.span_weights - 0.1) <= 1e-12
    assert abs(spec0.complement_weights - 0.9) <= 1e-12
    spec90 = angles_to_weights([90.0, 90.0], SINGLE)
    assert abs(spec90.span_weights - 0.9) <= 1e-12
    assert abs(spec90.complement_weights - 0.1) <= 1e-12


def test_angle_weight_map_values():
    spec = angles_to_weights([2.33, 3.13, 3.89], PER_DIRECTION)
    assert np.allclose(
        spec.span_weights,
        [0.12071111111111111, 0.12782222222222222, 0.13457777777777778],
        atol=1e-9,
    )
    assert np.allclose(
        spec.complement_weights,
        [angle_weight(90 - 2.33), angle_weight(90 - 3.13), angle_weight(90 - 3.89)],
        atol=1e-12,
    )
    with pytest.raises(ValueError):
        angles_to_weights([-1.0], SINGLE)
    with pytest.raises(ValueError):
        angles_to_weights([95.0], PER_DIRECTION)


def test_weight_spec_config_round_trip():
    for spec in (
        WeightSpec.single(0.18, 0.999),
        WeightSpec.per_direction((0.17, 0.19, 0.21), (0.99, 0.98, 0.97)),
    ):
        assert WeightSpec.from_config(json.loads(json.dumps(asdict(spec)))) == spec
    with pytest.raises(ValueError):
        WeightSpec.from_config({"mode": "single", "span_weights": 0.5})
    with pytest.raises(ValueError):
        WeightSpec.from_config(
            {"mode": "single", "span_weights": 0.5, "complement_weights": 0.5, "extra": 1}
        )
