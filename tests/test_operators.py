import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subrec.linalg import perturb_subspace, random_orthonormal
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
from subrec.weighting import WeightSpec, build_weight_operator

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def test_gaussian_deterministic_under_seed():
    a = make_gaussian(8, 20, 42)
    b = make_gaussian(8, 20, 42)
    assert np.array_equal(a.mats, b.mats)
    assert a.seed == 42


@pytest.mark.parametrize("seed, n, p", [(0, 1, 1), (7, 5, 20), ((4, 2, 1), 12, 100), (31, 30, 720)])
def test_gaussian_equals_scaled_normal_draw_bit_for_bit(seed, n, p):
    # make_gaussian scales standard normals in place; that must repeat
    # gen.normal(0, 1/sqrt(p)) exactly, signs of zeros included.
    expected = np.random.default_rng(seed).normal(0.0, 1.0 / np.sqrt(p), size=(p, n, n))
    mats = make_gaussian(n, p, seed).mats
    assert np.array_equal(mats.view(np.int64), expected.view(np.int64))


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


@PROPERTY
@given(
    kind=st.sampled_from([GAUSSIAN, COMPLETION]),
    weighted=st.booleans(),
    n=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_adjoint_identity_both_kinds(kind, weighted, n, seed, data):
    # <A(X), y> = <X, A*(y)> for random n and p. Completion draws reach both
    # ends, a single sampled entry (p = 1) and every entry (p = n^2); the
    # weighted operator has a different weighting on each side.
    if kind == COMPLETION:
        p = data.draw(st.one_of(st.just(1), st.just(n * n), st.integers(1, n * n)), label="p")
    else:
        p = data.draw(st.integers(1, 3 * n * n), label="p")
    rng = np.random.default_rng(seed)
    op = make_completion(n, p, rng) if kind == COMPLETION else make_gaussian(n, p, rng)
    if weighted:
        qu, qv = (
            build_weight_operator(random_orthonormal(n, 1, rng), WeightSpec.single(w, 0.9))
            for w in rng.uniform(0.05, 1.0, size=2)
        )
        op = WeightedOperator(op, qu.q_inv, qv.q_inv)
    x = rng.standard_normal((n, n))
    y = rng.standard_normal(p)
    ax, aty = op.apply(x), op.adjoint(y)
    scale = np.linalg.norm(ax) * np.linalg.norm(y) + np.linalg.norm(x) * np.linalg.norm(aty)
    assert abs(ax @ y - np.sum(x * aty)) <= 1e-12 * scale


@PROPERTY
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_completion_flat_index_and_mask_follow_the_index_pairs(n, seed, data):
    # An operator built directly from index pairs gets the flat index and the
    # mask that make_completion's gets, and measuring and scattering through
    # the flat index give the bits of the (row, col) forms.
    p = data.draw(st.integers(1, n * n), label="p")
    rng = np.random.default_rng(seed)
    made = make_completion(n, p, rng)
    direct = MeasurementOperator(COMPLETION, n, p, indices=made.indices.copy())
    rows, cols = made.indices[:, 0], made.indices[:, 1]
    mask = np.zeros((n, n))
    mask[rows, cols] = 1.0
    for op in (made, direct):
        assert np.array_equal(op.flat, np.ravel_multi_index((rows, cols), (n, n)))
        assert np.array_equal(op.mask, mask)
    x = rng.standard_normal((n, n))
    for view in (x, x.T, x[::-1]):
        assert direct.apply(view).tobytes() == view[rows, cols].tobytes()
    y = rng.standard_normal(p)
    scattered = np.zeros((n, n))
    scattered[rows, cols] = y
    assert direct.adjoint(y).tobytes() == scattered.tobytes()


def _pairs(*pairs):
    return np.array(pairs, dtype=np.intp)


@pytest.mark.parametrize(
    "kind, n, p, payload, message",
    [
        (COMPLETION, 3, 2, {"indices": _pairs([-1, 0], [0, 0])}, "outside"),
        (COMPLETION, 3, 1, {"indices": _pairs([3, 0])}, "outside"),
        (COMPLETION, 3, 1, {"indices": _pairs([0, 3])}, "outside"),
        (COMPLETION, 3, 2, {"indices": _pairs([1, 1], [1, 1])}, "distinct"),
        (COMPLETION, 3, 3, {"indices": _pairs([0, 1], [1, 0])}, "3 integer index pairs"),
        (COMPLETION, 3, 1, {"indices": np.array([[0.0, 1.0]])}, "1 integer index pairs"),
        (COMPLETION, 3, 1, {}, "1 integer index pairs"),
        (GAUSSIAN, 3, 2, {"mats": np.zeros((2, 9))}, "shape"),
        (GAUSSIAN, 3, 2, {"mats": np.zeros((3, 3, 3))}, "shape"),
        (GAUSSIAN, 3, 2, {}, "shape"),
        ("identity", 3, 9, {"mats": np.zeros((9, 3, 3))}, "unknown operator kind"),
    ],
    ids=[
        "negative_row", "row_past_n", "col_past_n", "repeated_pair", "too_few_pairs",
        "float_pairs", "no_pairs", "flat_mats", "too_many_mats", "no_mats", "unknown_kind",
    ],
)
def test_operator_payload_is_checked_on_construction(kind, n, p, payload, message):
    # A column index of n would wrap into the next row, a negative one into
    # the last, and a repeated pair is counted once by the mask but twice by
    # the explicit design; each must fail when the operator is built.
    with pytest.raises(ValueError, match=message):
        MeasurementOperator(kind, n, p, **payload)


def test_adjoint_trivial_cases():
    op = make_completion(4, 5, 9)
    assert np.all(op.adjoint(np.zeros(5)) == 0.0)
    y = np.arange(1.0, 6.0)
    back = op.adjoint(y)
    for value, (j, k) in zip(y, op.indices):
        assert back[j, k] == value
    with pytest.raises(ValueError):
        op.adjoint(np.zeros(6))


def _identity_sensing(n, scale=1.0):
    """Gaussian-kind sensing by the n^2 canonical basis matrices times ``scale``."""
    return MeasurementOperator(GAUSSIAN, n, n * n, mats=scale * np.eye(n * n).reshape(n * n, n, n))


def _samples(n, rank, count, seed):
    gen = np.random.default_rng(seed)
    return [random_low_rank(n, rank, gen) for _ in range(count)]


def test_estimate_rip_exact_isometry():
    est = estimate_rip(_identity_sensing(5), _samples(5, 2, 50, 10))
    assert est.delta_hat <= 1e-10
    assert est.ratio_min >= 1.0 - 1e-12 and est.ratio_max <= 1.0 + 1e-12
    assert est.samples == 50


def test_estimate_rip_scaling():
    est = estimate_rip(_identity_sensing(5, scale=2.0), _samples(5, 2, 50, 11))
    assert est.delta_hat >= 3.0 - 1e-9


def test_estimate_rip_regression_anchor():
    # Frozen Monte-Carlo anchor: gaussian n=10, rank 1, p=80, 500 samples.
    op = make_gaussian(10, 80, 7)
    est = estimate_rip(op, _samples(10, 1, 500, 123))
    assert 0.0 < est.delta_hat < 1.0
    assert abs(est.delta_hat - 0.633243136618) <= 1e-9


def test_estimate_rip_deterministic():
    op = make_gaussian(9, 40, 8)
    a = estimate_rip(op, _samples(9, 2, 100, 21))
    b = estimate_rip(op, _samples(9, 2, 100, 21))
    assert a == b
    with pytest.raises(ValueError, match="need at least one sample"):
        estimate_rip(op, [])


def test_estimate_rip_rejects_an_all_zero_sample():
    # A zero sample has no isometry ratio; it raised a bare ZeroDivisionError.
    op = make_gaussian(4, 8, 0)
    with pytest.raises(ValueError, match="^sample matrices must be nonzero$"):
        estimate_rip(op, [np.ones((4, 4)), np.zeros((4, 4))])


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
    mats = [random_low_rank(30, 3, rng) for _ in range(50)]
    for z in mats:
        z_weighted = qu.q @ z @ qv.q
        assert np.max(np.abs(weighted.apply(z_weighted) - base.apply(z))) <= 1e-12
        assert np.linalg.norm(z_weighted) <= np.linalg.norm(z) + 1e-12
    est_a = estimate_rip(base, mats)
    est_b = estimate_rip(weighted, [qu.q @ z @ qv.q for z in mats])
    assert est_a.delta_hat <= est_b.delta_hat + 1e-10
