"""Passes over a Gaussian sensing tensor split into slabs repeat the one-pass bits."""

import multiprocessing
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import solve_and_iterates
from test_solver import test_gaussian_least_squares_holds_one_design_block_at_a_time as design_block_check

from subrec import bench, linalg, solver
from subrec.linalg import random_orthonormal, single_blas_thread, slab_bounds
from subrec.operators import GAUSSIAN, MeasurementOperator, WeightedOperator, make_gaussian
from subrec.weighting import WeightSpec, build_weight_operator


@contextmanager
def forced_slabs(cpus):
    """Split every pass, whatever its size, as if the process had ``cpus`` CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "SLAB_MIN_BYTES", 0)
        mp.setattr(linalg, "usable_cpus", lambda: cpus)
        with single_blas_thread():
            yield


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_slab_bounds_follow_the_payload_the_pin_and_the_alignment(monkeypatch):
    monkeypatch.setattr(linalg, "usable_cpus", lambda: 3)
    big = linalg.SLAB_MIN_BYTES + 1
    # Outside the BLAS pin, or at or below the threshold, a pass is one call.
    assert slab_bounds(100, big) == [0, 100]
    with single_blas_thread():
        assert slab_bounds(100, linalg.SLAB_MIN_BYTES) == [0, 100]
        assert slab_bounds(100, big) == [0, 33, 66, 100]
        assert slab_bounds(2, big) == [0, 1, 2]
        assert slab_bounds(0, big) == [0, 0]
        # Inner boundaries on whole units: 169 columns are 3 units of 64.
        assert slab_bounds(169, big, align=64) == [0, 64, 128, 169]
        assert slab_bounds(100, big, align=64) == [0, 64, 100]
    with single_blas_thread(solves=2):
        assert slab_bounds(100, big) == [0, 100]
    with single_blas_thread(solves=4):
        assert slab_bounds(100, big) == [0, 100]


def test_run_slabs_waits_for_every_slab_and_raises_their_errors():
    done = []

    def work(start, stop):
        if start == 2:
            raise RuntimeError("slab failed")
        done.append((start, stop))

    with pytest.raises(RuntimeError, match="slab failed"):
        linalg.run_slabs(work, [0, 1, 2, 3, 4])
    assert sorted(done) == [(0, 1), (1, 2), (3, 4)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(9, 15),
    p=st.integers(4, 40),
    k_u=st.integers(1, 4),
    k_v=st.integers(1, 4),
    slabs=st.integers(1, 3),
    block_slices=st.integers(1, 4),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_slabbed_design_and_adjoint_equal_one_pass_bit_for_bit(
    n, p, k_u, k_v, slabs, block_slices, weighted, seed
):
    # n^2 (81..225) is never a multiple of 64, and p is not one of the slab
    # count, so the last slab of both passes is a short one.
    assume(slabs == 1 or p % slabs)
    rng = np.random.default_rng(seed)
    op = make_gaussian(n, p, rng)
    qu_inv = qv_inv = None
    if weighted:
        spec = WeightSpec.single(0.3, 1.0)
        qu_inv = build_weight_operator(random_orthonormal(n, 2, rng), spec).q_inv
        qv_inv = build_weight_operator(random_orthonormal(n, 2, rng), spec).q_inv
    wop = WeightedOperator(op, qu_inv, qv_inv)
    u, v = random_orthonormal(n, k_u, rng), random_orthonormal(n, k_v, rng)
    g = u if qu_inv is None else qu_inv @ u
    h = v if qv_inv is None else qv_inv @ v
    y = rng.standard_normal(p)
    design_one_pass = np.matmul(np.matmul(g.T, op.mats), h).reshape(p, k_u * k_v)
    adjoint_one_pass = wop.deweight((y @ op.mats.reshape(p, -1)).reshape(n, n))
    with forced_slabs(slabs), pytest.MonkeyPatch.context() as mp:
        # Blocks of block_slices slices inside every slab.
        mp.setattr(solver, "DESIGN_BLOCK_BYTES", slabs * block_slices * k_u * n * 8)
        assert len(slab_bounds(p, op.mats.nbytes)) == slabs + 1
        design = solver._gaussian_design(op.mats, g, h)
        adjoint = wop.adjoint(y)
    assert same_bits(design, design_one_pass)
    assert same_bits(adjoint, adjoint_one_pass)


@pytest.mark.parametrize("solver_id", ["admira", "rmspi", "grmspi"])
@pytest.mark.parametrize("n, ratio, seed", [(10, 0.6, 3), (13, 0.45, 8)])
def test_solve_with_forced_slabs_equals_unsplit_solve_bit_for_bit(solver_id, n, ratio, seed):
    scenario = replace(bench.builtin_presets()["close_close"], n=n, master_seed=seed)
    instance = bench.generate_instance(scenario, ratio, 0)
    config = bench.solver_config(scenario, instance, solver_id)
    with single_blas_thread():
        unsplit, unsplit_iterates = solve_and_iterates(instance.operator, instance.y, config)
    with forced_slabs(3):
        split, split_iterates = solve_and_iterates(instance.operator, instance.y, config)
    assert split.iterations == unsplit.iterations
    assert split.stop_reason == unsplit.stop_reason
    assert split.trace == unsplit.trace
    assert all(same_bits(a, b) for a, b in zip(split_iterates, unsplit_iterates, strict=True))


@pytest.mark.parametrize("solver_id", ["admira", "grmspi"])
def test_small_gaussian_solve_calls_blas_directly(monkeypatch, solver_id):
    # Every pass of an n = 30 solve (at most 5.2 MB at ratio 0.8) stays one
    # slab even with four CPUs, so neither the slab runner nor its pool runs.
    class NoPool:
        def submit(self, *args):
            raise AssertionError("a one-slab pass submitted to the slab pool")

    def no_run_slabs(work, bounds):
        raise AssertionError(f"a one-slab pass went through run_slabs with bounds {bounds}")

    scenario = replace(bench.builtin_presets()["close_close"], master_seed=5)
    assert scenario.n == 30
    instance = bench.generate_instance(scenario, max(scenario.sampling_ratios), 0)
    config = bench.solver_config(scenario, instance, solver_id)
    with single_blas_thread():
        want, want_iterates = solve_and_iterates(instance.operator, instance.y, config)
    monkeypatch.setattr(linalg, "usable_cpus", lambda: 4)
    monkeypatch.setattr(linalg, "_slab_pool", NoPool())
    monkeypatch.setattr(linalg, "run_slabs", no_run_slabs)
    with single_blas_thread():
        got, got_iterates = solve_and_iterates(instance.operator, instance.y, config)
    assert got.trace == want.trace
    assert all(same_bits(a, b) for a, b in zip(got_iterates, want_iterates, strict=True))


def test_pooled_grid_gives_each_solve_its_share_of_the_cores(monkeypatch):
    # With 5 CPUs a serial grid splits a design into up to 5 slabs; with two
    # solves at once each gets 5 // 2 = 2. The rows do not change.
    counts = []
    real_run_slabs = linalg.run_slabs

    def spy(work, bounds):
        counts.append(len(bounds) - 1)
        return real_run_slabs(work, bounds)

    scenario = replace(bench.builtin_presets()["close_close"], n=12, sampling_ratios=(0.5,),
                       trials=2, master_seed=4)
    plain = bench.run_grid(scenario).trials
    monkeypatch.setattr(linalg, "run_slabs", spy)
    monkeypatch.setattr(linalg, "SLAB_MIN_BYTES", 0)
    monkeypatch.setattr(linalg, "usable_cpus", lambda: 5)
    serial = bench.run_grid(scenario).trials
    assert max(counts) == 5
    counts.clear()
    pooled = bench.run_grid(scenario, threads=2).trials
    assert max(counts) == 2
    for rows in (serial, pooled):
        assert [replace(r, wall_time=0.0) for r in rows] == [replace(r, wall_time=0.0) for r in plain]


def test_design_block_bound_holds_with_slabs():
    # Three slabs stream blocks of a third of the budget each, so the
    # g^T A_i alive at once still fit in DESIGN_BLOCK_BYTES.
    with forced_slabs(3):
        design_block_check()


def _slabbed_passes(conn, op, g, h, y):
    conn.send((op.adjoint(y), solver._gaussian_design(op.mats, g, h)))
    conn.close()


def test_forked_child_runs_slabbed_passes():
    # The child inherits the parent's pool object but not its threads; the
    # fork hook gives it a pool of its own instead of a queue nobody serves.
    rng = np.random.default_rng(5)
    n, p = 12, 30
    op = MeasurementOperator(GAUSSIAN, n, p, mats=rng.standard_normal((p, n, n)))
    g, h = random_orthonormal(n, 3, rng), random_orthonormal(n, 2, rng)
    y = rng.standard_normal(p)
    ctx = multiprocessing.get_context("fork")
    with forced_slabs(3):
        expected = (op.adjoint(y), solver._gaussian_design(op.mats, g, h))
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_slabbed_passes, args=(sender, op, g, h, y))
        child.start()
        try:
            assert receiver.poll(60), "a slabbed pass in the forked child did not finish in 60 s"
            got = receiver.recv()
        finally:
            if child.is_alive():
                child.kill()
            child.join()
    assert all(same_bits(a, b) for a, b in zip(got, expected, strict=True))
