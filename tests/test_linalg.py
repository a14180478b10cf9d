import importlib.machinery
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import truncate_rank

from subrec import linalg
from subrec.linalg import (
    ORTHO_DROP_TOL,
    orthonormalize,
    perturb_subspace,
    principal_angles,
    random_orthonormal,
    svd,
)


def test_svd_identity():
    u, s, vh = svd(np.eye(3))
    assert np.allclose(s, [1.0, 1.0, 1.0])


def test_svd_diagonal():
    m = np.diag([3.0, 2.0, 1.0])
    u, s, vh = svd(m)
    assert np.allclose(s, [3.0, 2.0, 1.0])
    # left and right factors are the identity up to column signs
    assert np.allclose(np.abs(u), np.eye(3), atol=1e-12)
    assert np.allclose(np.abs(vh), np.eye(3), atol=1e-12)
    assert np.allclose(u @ np.diag(s) @ vh, m, atol=1e-12)


def test_svd_reconstruction_random():
    rng = np.random.default_rng(0)
    for n in (5, 20, 100):
        m = rng.standard_normal((n, n))
        u, s, vh = svd(m)
        rel = np.linalg.norm((u * s) @ vh - m) / np.linalg.norm(m)
        assert rel <= 1e-8
        assert np.all(np.diff(s) <= 0)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_svd_raises_linalg_error_when_lapack_does_not_converge(monkeypatch):
    def unconverged(m, compute_uv, full_matrices):
        return None, None, None, 1

    monkeypatch.setattr(linalg, "dgesdd", unconverged)
    with pytest.raises(np.linalg.LinAlgError):
        svd(np.eye(3))


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3), (2, 5), (5, 2)])
def test_svd_shapes_match_numpy(shape):
    m = np.arange(float(np.prod(shape))).reshape(shape) ** 1.5
    got, want = svd(m), np.linalg.svd(m, full_matrices=False)
    assert [a.shape for a in got] == [a.shape for a in want]
    assert np.allclose(got[1], want[1], rtol=1e-12, atol=0.0)


def test_svd_rejects_non_2d_input():
    with pytest.raises(ValueError):
        svd(np.ones(3))


# Self-checks of the tests' rank-truncation oracle (tests/oracles.py).


def test_truncate_rank_diagonal():
    m = np.diag([3.0, 2.0, 1.0])
    assert np.allclose(truncate_rank(m, 2), np.diag([3.0, 2.0, 0.0]), atol=1e-12)


def test_truncate_rank_full_rank_is_identity_map():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 6))
    assert np.linalg.norm(truncate_rank(m, 4) - m) <= 1e-10


def test_truncate_rank_residual_matches_tail_singular_values():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((6, 6))
    _, s, _ = svd(m)
    residual = np.linalg.norm(truncate_rank(m, 2) - m)
    assert abs(residual - np.sqrt(np.sum(s[2:] ** 2))) <= 1e-8


def test_truncate_rank_range_errors():
    m = np.eye(3)
    with pytest.raises(ValueError):
        truncate_rank(m, 4)
    with pytest.raises(ValueError):
        truncate_rank(m, -1)


def test_truncate_rank_beats_random_candidates():
    # Eckart-Young: no random rank-<=r matrix comes closer in Frobenius norm.
    rng = np.random.default_rng(3)
    for n in (3, 4, 5):
        m = rng.standard_normal((n, n))
        for r in (1, 2):
            best = np.linalg.norm(truncate_rank(m, r) - m)
            for _ in range(100):
                a = rng.standard_normal((n, r))
                b = rng.standard_normal((r, n))
                z = a @ b
                z *= np.linalg.norm(m) / max(np.linalg.norm(z), 1e-12)
                assert best <= np.linalg.norm(z - m) + 1e-12


def test_principal_angles_identical():
    rng = np.random.default_rng(4)
    b = random_orthonormal(8, 3, rng)
    assert np.allclose(principal_angles(b, b), 0.0, atol=1e-5)


def test_principal_angles_orthogonal_planar():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert np.allclose(principal_angles(e1, e2), [90.0])
    theta = 30.0
    rot = np.array([[np.cos(np.radians(theta))], [np.sin(np.radians(theta))]])
    assert abs(principal_angles(e1, rot)[0] - theta) <= 1e-8


def test_principal_angles_symmetric_and_against_scipy():
    rng = np.random.default_rng(5)
    b1 = random_orthonormal(12, 3, rng)
    b2 = random_orthonormal(12, 4, rng)
    a12 = principal_angles(b1, b2)
    a21 = principal_angles(b2, b1)
    assert a12.shape == (3,)
    assert np.allclose(a12, a21, atol=1e-10)
    assert np.all(np.diff(a12) >= -1e-12)
    ref = np.degrees(np.sort(scipy.linalg.subspace_angles(b1, b2)))
    assert np.allclose(a12, ref, atol=1e-8)


def test_principal_angles_dimension_mismatch():
    with pytest.raises(ValueError):
        principal_angles(np.eye(3), np.eye(4))


def test_perturb_subspace_zero_angles():
    rng = np.random.default_rng(6)
    b = random_orthonormal(10, 3, rng)
    tilted = perturb_subspace(b, [0.0, 0.0, 0.0], rng)
    assert np.allclose(principal_angles(b, tilted), 0.0, atol=1e-8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_perturb_subspace_hits_exact_zero_and_right_angles(n, seed, data):
    # The extreme targets: an untilted column and one turned fully into the
    # complement, in any mix, must come back as exactly those angles.
    rank = data.draw(st.integers(1, n // 2))
    angles = data.draw(st.lists(st.sampled_from([0.0, 90.0]), min_size=rank, max_size=rank))
    rng = np.random.default_rng(seed)
    b = random_orthonormal(n, rank, rng)
    tilted = perturb_subspace(b, angles, rng)
    assert np.allclose(tilted.T @ tilted, np.eye(rank), atol=1e-10)
    assert np.max(np.abs(principal_angles(b, tilted) - np.sort(angles))) <= 1e-8


def test_perturb_subspace_right_angles_gives_orthogonal_span():
    rng = np.random.default_rng(7)
    b = random_orthonormal(10, 2, rng)
    tilted = perturb_subspace(b, [90.0, 90.0], rng)
    assert np.max(np.abs(b.T @ tilted)) <= 1e-10


def test_perturb_subspace_round_trips_preset_angles():
    angles = (2.3307, 3.1302, 3.8852)
    rng = np.random.default_rng(8)
    b = random_orthonormal(30, 3, rng)
    tilted = perturb_subspace(b, angles, rng)
    assert np.allclose(tilted.T @ tilted, np.eye(3), atol=1e-10)
    assert np.allclose(principal_angles(b, tilted), sorted(angles), atol=1e-6)


def test_perturb_subspace_needs_room():
    rng = np.random.default_rng(9)
    b = random_orthonormal(5, 3, rng)
    with pytest.raises(ValueError):
        perturb_subspace(b, [1.0, 1.0, 1.0], rng)
    with pytest.raises(ValueError):
        perturb_subspace(random_orthonormal(10, 3, rng), [1.0, 1.0], rng)
    with pytest.raises(ValueError):
        perturb_subspace(random_orthonormal(10, 3, rng), [1.0, 1.0, 91.0], rng)


def test_perturb_subspace_rejects_non_finite_input():
    # NaN fails every comparison, so a range check written as "reject if
    # below or above" let a NaN angle through to a NaN basis.
    rng = np.random.default_rng(9)
    b = random_orthonormal(10, 3, rng)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="angles must lie in"):
            perturb_subspace(b, [1.0, bad, 1.0], rng)
        basis = b.copy()
        basis[2, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            perturb_subspace(basis, [1.0, 1.0, 1.0], rng)


def test_orthonormalize_keeps_span_of_orthonormal_input():
    rng = np.random.default_rng(10)
    q = random_orthonormal(9, 4, rng)
    out = orthonormalize(q)
    assert out.shape == (9, 4)
    assert np.allclose(principal_angles(out, q), 0.0, atol=1e-5)


def test_orthonormalize_drops_dependent_columns():
    e1 = np.array([1.0, 0.0, 0.0])
    m = np.column_stack([e1, 2.0 * e1])
    out = orthonormalize(m)
    assert out.shape == (3, 1)
    assert abs(abs(out[0, 0]) - 1.0) <= 1e-12


def test_orthonormalize_reveals_rank():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 5))
    out = orthonormalize(m)
    assert out.shape == (8, 3)
    assert np.allclose(out.T @ out, np.eye(3), atol=1e-10)


def test_orthonormalize_zero_input():
    out = orthonormalize(np.zeros((6, 3)))
    assert out.shape == (6, 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_rows=st.integers(1, 40),
    n_cols=st.integers(1, 20),
    rank=st.integers(0, 20),
    repeat=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_orthonormalize_matches_scipy_pivoted_qr_bit_for_bit(n_rows, n_cols, rank, repeat, seed):
    # Tall and wide inputs, full rank or rank-deficient (a product through a
    # rank-sized inner dimension, rank 0 being the zero matrix), optionally
    # with the columns repeated as in a merge of a support with itself.
    rng = np.random.default_rng(seed)
    rank = min(rank, n_rows, n_cols)
    m = rng.standard_normal((n_rows, rank)) @ rng.standard_normal((rank, n_cols))
    if rank == min(n_rows, n_cols) and rng.random() < 0.5:
        m = rng.standard_normal((n_rows, n_cols))
    if repeat:
        m = np.hstack([m, m])
    q, r, _ = scipy.linalg.qr(m, mode="economic", pivoting=True)
    kept = int(np.sum(np.abs(np.diag(r)) > ORTHO_DROP_TOL))
    out = orthonormalize(m)
    assert out.shape == (n_rows, kept)
    assert out.tobytes() == q[:, :kept].tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_orthonormalize_rejects_non_finite(value):
    m = np.random.default_rng(15).standard_normal((6, 3))
    m[2, 1] = value
    with pytest.raises(ValueError):
        orthonormalize(m)


def test_random_orthonormal_square_is_orthogonal():
    rng = np.random.default_rng(12)
    q = random_orthonormal(5, 5, rng)
    assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-8


def test_random_orthonormal_deterministic_under_seed():
    a = random_orthonormal(7, 3, np.random.default_rng(13))
    b = random_orthonormal(7, 3, np.random.default_rng(13))
    assert np.array_equal(a, b)


def test_random_orthonormal_columns():
    q = random_orthonormal(30, 3, np.random.default_rng(14))
    assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-10
    with pytest.raises(ValueError):
        random_orthonormal(2, 3, np.random.default_rng(0))


LAPACK_ROUTINES = ("dgeqp3", "dorgqr", "dpotrf", "dpotrs")

# Imports subrec, runs one weighted trial per operator kind (the merge's QR and
# the Cholesky least squares both run), then prints which of the modules that
# scipy.linalg's package init pulls in got loaded, and whether the routines are
# still scipy's own once scipy.linalg is imported after all.
IMPORT_GUARD = """
import sys
from dataclasses import replace
from subrec import bench, linalg
presets = bench.builtin_presets()
for name in ("close_close", "close_close_completion"):
    scenario = replace(presets[name], sampling_ratios=(0.8,), trials=1, solvers=("rmspi",))
    assert [row.success for row in bench.run_grid(scenario).trials] == [True], name
print([m for m in ("scipy.linalg", "numpy.f2py", "numpy.testing") if m in sys.modules])
import scipy.linalg.lapack
print(all(getattr(linalg, f) is getattr(scipy.linalg.lapack, f) for f in %r))
""" % (LAPACK_ROUTINES,)


def test_weighted_solves_never_import_scipy_linalg():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", IMPORT_GUARD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True"]


def test_lapack_routines_are_scipys_own():
    for name in LAPACK_ROUTINES:
        assert getattr(linalg, name) is getattr(scipy.linalg.lapack, name)


def test_missing_lapack_extension_names_the_path_searched(monkeypatch):
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda *args: None)
    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    with pytest.raises(ImportError) as missing:
        linalg._load_flapack()
    assert str(missing.value) == f"scipy's LAPACK extension scipy.linalg._flapack not found in {[where]}"
