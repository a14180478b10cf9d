import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert np.array_equal(op_pd.q, np.eye(12))
    assert np.array_equal(op_pd.q_inv, np.eye(12))


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from([SINGLE, PER_DIRECTION]),
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_q_times_q_inv_is_identity(mode, n, seed, data):
    # Q^-1 scales by up to 1/w_min, so Q Q^-1 carries rounding of about
    # n eps / w_min; 12,000 probe draws reached 1.9 times that. Both factors
    # must also equal their transposes bit for bit, which the adjoint of a
    # weighted operator and the least-squares design rely on.
    r = data.draw(st.integers(1, n // 2), label="r")
    count = 1 if mode == SINGLE else r
    exponents = st.lists(st.floats(-8.0, 0.0), min_size=count, max_size=count)
    span, comp = (10.0 ** np.array(data.draw(exponents)) for _ in range(2))
    if mode == SINGLE:
        spec = WeightSpec.single(span[0], comp[0])
    else:
        spec = WeightSpec.per_direction(tuple(span), tuple(comp))
    rng = np.random.default_rng(seed)
    op = build_weight_operator(random_orthonormal(n, r, rng), spec, rng=rng)
    w_min = min(span.min(), comp.min())
    bound = 4 * n * np.finfo(float).eps / w_min
    assert np.linalg.norm(op.q @ op.q_inv - np.eye(n)) <= bound
    assert np.array_equal(op.q, op.q.T)
    assert np.array_equal(op.q_inv, op.q_inv.T)


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
    # A scalar in per-direction mode gets the constructor's ValueError naming the field.
    with pytest.raises(ValueError, match=r"^span_weights must be a list of numbers .* got 0\.2$"):
        WeightSpec.per_direction(0.2, 0.9)


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


def test_build_rejects_prior_and_reference_that_are_not_2d():
    rng = np.random.default_rng(11)
    prior = random_orthonormal(10, 3, rng)
    spec = WeightSpec.per_direction((0.5,) * 3, (0.5,) * 3)
    with pytest.raises(ValueError, match=r"^expected a 2-d array, got shape \(10,\)$"):
        build_weight_operator(prior[:, 0], WeightSpec.single(0.5, 0.9))
    with pytest.raises(ValueError, match=r"^expected a 2-d array, got shape \(10,\)$"):
        build_weight_operator(prior, spec, complement_reference=prior[:, 0])


@pytest.mark.parametrize(
    "reference, match",
    [
        ("junk", "could not convert string to float: 'junk'"),
        (np.full((10, 2), np.nan), "infs or NaNs"),
        (np.ones(10), r"^expected a 2-d array, got shape \(10,\)$"),
        (np.ones((5, 3)), "^complement reference has incompatible shape$"),
    ],
    ids=["string", "all-nan", "1d", "wrong-shape"],
)
def test_build_checks_the_reference_in_both_modes(reference, match):
    # Single mode does not use the reference, but it used to accept these
    # silently while per-direction mode rejected them.
    prior = random_orthonormal(10, 3, np.random.default_rng(12))
    for spec in (WeightSpec.single(0.5, 0.9), WeightSpec.per_direction((0.5,) * 3, (0.5,) * 3)):
        with pytest.raises(ValueError, match=match):
            build_weight_operator(prior, spec, complement_reference=reference)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_build_rejects_non_finite_prior_and_reference(value):
    # A NaN prior slipped past the orthonormality check (nan > 1e-8 is False)
    # and gave a NaN Q; a NaN reference failed inside LAPACK.
    rng = np.random.default_rng(10)
    prior = random_orthonormal(10, 3, rng)
    bad = prior.copy()
    bad[4, 1] = value
    spec = WeightSpec.per_direction((0.5,) * 3, (0.5,) * 3)
    for mode_spec in (WeightSpec.single(0.5, 0.9), spec):
        with pytest.raises(ValueError, match="infs or NaNs"):
            build_weight_operator(bad, mode_spec, rng=rng)
    with pytest.raises(ValueError, match="infs or NaNs"):
        build_weight_operator(prior, spec, complement_reference=bad)


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
    with pytest.raises(ValueError, match="angles must lie in"):
        angles_to_weights([10.0, np.nan], PER_DIRECTION)


@pytest.mark.parametrize("mode", [SINGLE, PER_DIRECTION])
def test_angles_to_weights_needs_an_angle(mode):
    # Single mode took the mean of no angles: two RuntimeWarnings, then a NaN weight.
    for empty in ([], (), np.zeros(0)):
        want = r"^angles_deg must be a vector of length >= 1, got shape \(0,\)$"
        with pytest.raises(ValueError, match=want):
            angles_to_weights(empty, mode)


@pytest.mark.parametrize(
    "cfg, type_name",
    [([], "list"), ([["mode", "single"]], "list"), ("x", "str"), (3, "int"), (None, "NoneType")],
)
def test_weight_spec_from_config_needs_a_mapping(cfg, type_name):
    with pytest.raises(ValueError, match=f"a weight spec must be a JSON object of fields, got {type_name}$"):
        WeightSpec.from_config(cfg)


def test_weight_spec_config_round_trip():
    for spec in (
        WeightSpec.single(0.18, 0.999),
        WeightSpec.per_direction((0.17, 0.19, 0.21), (0.99, 0.98, 0.97)),
    ):
        assert WeightSpec.from_config(json.loads(json.dumps(asdict(spec)))) == spec
    with pytest.raises(ValueError, match="^weight spec missing key 'complement_weights'$"):
        WeightSpec.from_config({"mode": "single", "span_weights": 0.5})
    with pytest.raises(ValueError, match=r"^unknown weight spec keys: \['extra'\]$"):
        WeightSpec.from_config(
            {"mode": "single", "span_weights": 0.5, "complement_weights": 0.5, "extra": 1}
        )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    angles=st.lists(st.sampled_from([0.0, 90.0]), min_size=1, max_size=6),
    mode=st.sampled_from([SINGLE, PER_DIRECTION]),
)
def test_angles_to_weights_at_zero_and_right_angles_stay_in_range(angles, mode):
    spec = angles_to_weights(angles, mode)
    weights = np.concatenate([np.atleast_1d(spec.span_weights),
                              np.atleast_1d(spec.complement_weights)])
    assert np.all((weights > 0.0) & (weights <= 1.0))
    assert spec.rank == (None if mode == SINGLE else len(angles))
