import copy
import dataclasses
import json
import math
import re
import threading
import time
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import solve_and_iterates

from subrec import bench, linalg
from subrec.bench import (
    Scenario,
    builtin_presets,
    generate_instance,
    load_scenario,
    measurement_count,
    read_matrix_csv,
    report_to_dict,
    rip_survey,
    run_grid,
    run_trial,
    write_report_csv,
    write_report_json,
)
from subrec.linalg import principal_angles, single_blas_thread
from subrec.operators import COMPLETION
from subrec.solver import MAX_ITERATIONS, iterate
from subrec.weighting import (
    PER_DIRECTION,
    SINGLE,
    WeightSpec,
    angles_to_weights,
    build_weight_operator,
)


def small_scenario(**overrides):
    cfg = dataclasses.asdict(builtin_presets()["close_close"])
    cfg.update(
        name="small",
        sampling_ratios=[0.8],
        trials=2,
        solvers=["admira", "grmspi"],
        master_seed=7,
    )
    cfg.update(overrides)
    return Scenario.from_config(cfg)


def test_presets_cover_all_families_and_validate():
    presets = builtin_presets()
    assert len(presets) == 12
    for mode in ("close_close", "far_far", "close_far", "far_close"):
        assert mode in presets
        assert f"{mode}_noisy" in presets
        assert f"{mode}_completion" in presets
    for scenario in presets.values():
        assert dataclasses.replace(scenario) == scenario  # passes the constructor's checks
    assert presets["close_close_noisy"].noise_level == 1e-3
    assert presets["far_far_completion"].operator_kind == "completion"


def test_measurement_count_matches_ratio():
    assert measurement_count(30, 0.4) == 360
    assert measurement_count(30, 0.2) == 180


def test_generate_instance_noiseless_is_exact():
    sc = small_scenario()
    inst = generate_instance(sc, 0.5, 0)
    assert np.array_equal(inst.y, inst.operator.apply(inst.truth))
    s = np.linalg.svd(inst.truth, compute_uv=False)
    assert s[3] / s[0] <= 1e-12 and np.all(s[:3] >= 1.0 - 1e-12) and s[0] <= 2.0 + 1e-12


def test_generate_instance_prior_angles():
    presets = builtin_presets()
    inst = generate_instance(presets["close_close"], 0.4, 1)
    assert np.allclose(
        principal_angles(inst.truth_u, inst.prior_u), sorted(presets["close_close"].theta_u), atol=1e-6
    )
    far = generate_instance(presets["far_far"], 0.4, 1)
    assert np.allclose(
        principal_angles(far.truth_v, far.prior_v), sorted(presets["far_far"].theta_v), atol=1e-6
    )


def test_generate_instance_noise_level():
    sc = small_scenario(noise_level=1e-3)
    inst = generate_instance(sc, 0.5, 0)
    clean = inst.operator.apply(inst.truth)
    rel = np.linalg.norm(inst.y - clean) / np.linalg.norm(clean)
    assert abs(rel - 1e-3) <= 1e-12


def test_generate_instance_deterministic():
    sc = small_scenario()
    a = generate_instance(sc, 0.5, 3)
    b = generate_instance(sc, 0.5, 3)
    assert np.array_equal(a.truth, b.truth)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.operator.mats, b.operator.mats)
    assert np.array_equal(a.prior_u, b.prior_u)


def test_generate_instance_infeasible():
    # A ratio that gives no measurements fails in the operator maker.
    assert measurement_count(30, 0.0001) == 0
    for kind, message in (
        ("gaussian", r"^p must be an integer >= 1, got 0$"),
        ("completion", r"^p must be an integer in \[1, 900\], got 0$"),
    ):
        with pytest.raises(ValueError, match=message):
            generate_instance(small_scenario(operator_kind=kind), 0.0001, 0)


def test_run_trial_easy_instance_fast_success():
    # Full-sampling completion observes every entry, so the proxy is the exact
    # residual matrix and every solver finishes almost immediately.
    sc = small_scenario(operator_kind="completion", sampling_ratios=[1.0])
    inst = generate_instance(sc, 1.0, 0)
    for solver in ("admira", "rmspi", "grmspi"):
        result = run_trial(inst, solver, sc)
        assert result.success
        assert result.iterations_to_success <= 3


def test_run_trial_tiny_ratio_fails_gracefully():
    sc = small_scenario(sampling_ratios=[0.01])
    inst = generate_instance(sc, 0.01, 0)
    result = run_trial(inst, "admira", sc)
    assert not result.success
    assert result.normalized_error > 1e-2


def test_run_trial_records_solver_errors_as_failures(monkeypatch):
    sc = small_scenario()
    inst = generate_instance(sc, 0.8, 0)

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic backend failure")

    monkeypatch.setattr(bench, "solve", boom)
    result = run_trial(inst, "admira", sc)
    assert not result.success
    assert result.stop_reason == "error"
    assert "synthetic backend failure" in result.diagnostic
    # the failure row still serializes (non-finite floats become null)
    sc1 = small_scenario(trials=1, solvers=["admira"])
    report = run_grid(sc1)
    report.trials[0] = result
    as_dict = report_to_dict(report)
    assert as_dict["trials"][0]["snr_db"] is None
    assert as_dict["trials"][0]["normalized_error"] is None


def test_nan_measurement_in_grid_reaches_diagnostic(monkeypatch):
    # One cell of a real grid gets a NaN measurement: its rows must end as
    # errors that name the NaN, and every other row must still complete.
    sc = small_scenario(sampling_ratios=[0.6, 0.8], solvers=["admira", "rmspi", "grmspi"])
    bad_cell = (0.8, 1)
    real = bench.generate_instance

    def with_nan(scenario, ratio, trial_index, operator=None):
        instance = real(scenario, ratio, trial_index, operator=operator)
        if (ratio, trial_index) == bad_cell:
            y = instance.y.copy()
            y[5] = np.nan
            instance = dataclasses.replace(instance, y=y)
        return instance

    monkeypatch.setattr(bench, "generate_instance", with_nan)
    report = run_grid(sc)
    assert len(report.trials) == 2 * 2 * 3
    for row in report.trials:
        if (row.ratio, row.trial_index) == bad_cell:
            assert row.stop_reason == "error" and not row.success
            assert "NaN" in row.diagnostic
        else:
            assert row.stop_reason in ("tolerance", "stagnation", "max_iter")
            assert row.diagnostic is None and math.isfinite(row.normalized_error)
    json.dumps(report_to_dict(report))


def test_nan_in_gaussian_sensing_tensor_reaches_diagnostic(monkeypatch):
    # A NaN planted in one cell's sensing tensor after its measurements were
    # taken: construction never reads the entries and y stays finite, so the
    # NaN first shows in the proxy, whose finiteness check must name it.
    sc = small_scenario(sampling_ratios=[0.6, 0.8], solvers=["admira", "rmspi", "grmspi"])
    bad_cell = (0.8, 1)
    real = bench.generate_instance

    def with_nan(scenario, ratio, trial_index, operator=None):
        instance = real(scenario, ratio, trial_index, operator=operator)
        if (ratio, trial_index) == bad_cell:
            instance.operator.mats[5, 2, 3] = np.nan
            assert np.isfinite(instance.y).all()
        return instance

    monkeypatch.setattr(bench, "generate_instance", with_nan)
    report = run_grid(sc)
    assert len(report.trials) == 2 * 2 * 3
    for row in report.trials:
        if (row.ratio, row.trial_index) == bad_cell:
            assert row.stop_reason == "error" and not row.success
            assert "NaN" in row.diagnostic
        else:
            assert row.stop_reason in ("tolerance", "stagnation", "max_iter")
            assert row.diagnostic is None and math.isfinite(row.normalized_error)


def test_run_trial_deterministic():
    sc = small_scenario()
    inst = generate_instance(sc, 0.8, 1)
    a = run_trial(inst, "grmspi", sc)
    b = run_trial(inst, "grmspi", sc)
    assert (a.success, a.iterations_to_success, a.normalized_error, a.snr_db) == (
        b.success,
        b.iterations_to_success,
        b.normalized_error,
        b.snr_db,
    )


@pytest.mark.parametrize("preset", ["close_close", "close_close_completion"])
def test_the_iteration_budget_lives_in_the_consumer(preset):
    # solver.iterate has no cap, so a longer budget is a longer drain: no stop
    # rule reads the budget, so the first MAX_ITERATIONS iterations of a
    # 100-iteration drain are solve's bit for bit, and scoring them at that
    # budget gives the grid's rows.
    scenario = dataclasses.replace(builtin_presets()[preset], trials=1)
    rows = {(row.solver, row.ratio): row for row in run_grid(scenario).trials}
    longer = 0
    for ratio in scenario.sampling_ratios:
        instance = generate_instance(scenario, ratio, 0)
        truth = instance.truth
        for solver in scenario.solvers:
            config = bench.solver_config(scenario, instance, solver)
            with single_blas_thread():
                run, iterates = solve_and_iterates(instance.operator, instance.y, config)
                drain = list(islice(iterate(instance.operator, instance.y, config), 100))
            longer += len(drain) > MAX_ITERATIONS
            head = drain[:MAX_ITERATIONS]
            assert [record for record, _ in head] == run.trace
            assert len(head) == len(iterates)
            assert all(np.array_equal(x, want) for (_, x), want in zip(head, iterates))
            errors = [np.linalg.norm(truth - x) / np.linalg.norm(truth) for _, x in head]
            first = next((k for k, e in enumerate(errors, 1) if e <= bench.SUCCESS_ERROR), None)
            row = rows[(solver, ratio)]
            assert (row.success, row.iterations_to_success) == (first is not None, first)
    # Some solve of each preset runs past the budget when the drain allows it.
    assert longer > 0


def test_run_trial_keeps_no_iterate_history():
    # A trial scores each iterate as it arrives, so its peak holds a few
    # n x n arrays however many iterations run; keeping every iterate (80 KB
    # each at n = 100) held one more per iteration, 1.9 MB over this cell's
    # 20 on a probe.
    scenario = dataclasses.replace(builtin_presets()["close_close_completion"], n=100)
    instance = generate_instance(scenario, 0.2, 0)
    run_trial(instance, "admira", scenario)
    tracemalloc.start()
    try:
        row = run_trial(instance, "admira", scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.iterations_run >= 15
    assert peak < 10 * instance.truth.nbytes


def test_run_grid_single_cell():
    sc = small_scenario(trials=1, solvers=["admira"])
    report = run_grid(sc)
    assert len(report.aggregates) == 1
    assert len(report.trials) == 1
    agg = report.aggregates[0]
    assert agg.trials == 1 and agg.success_rate in (0.0, 1.0)


def test_identity_weight_equality_in_grid():
    ones = dataclasses.asdict(WeightSpec.single(1.0, 1.0))
    sc = small_scenario(
        solvers=["admira", "rmspi"],
        rmspi_weights_u=ones,
        rmspi_weights_v=ones,
        trials=3,
    )
    report = run_grid(sc)
    by = {(r.solver, r.trial_index): r for r in report.trials}
    for t in range(3):
        a, w = by[("admira", t)], by[("rmspi", t)]
        assert a.success == w.success
        assert a.iterations_to_success == w.iterations_to_success
        assert abs(a.normalized_error - w.normalized_error) <= 1e-12


def _strip_wall_time(report_dict):
    out = copy.deepcopy(report_dict)
    for row in out["trials"]:
        row.pop("wall_time")
    return out


def test_run_grid_deterministic_and_thread_invariant():
    sc = small_scenario(trials=3)
    serial = report_to_dict(run_grid(sc, threads=1))
    again = report_to_dict(run_grid(sc, threads=1))
    threaded = report_to_dict(run_grid(sc, threads=3))
    assert _strip_wall_time(serial) == _strip_wall_time(again)
    assert _strip_wall_time(serial) == _strip_wall_time(threaded)


def test_resolve_threads_takes_only_integers():
    assert bench.resolve_threads(1) == 1
    assert bench.resolve_threads(4) == 4
    for count in (np.int64(3), np.int32(3)):
        got = bench.resolve_threads(count)
        assert got == 3 and type(got) is int
    for bad in (0, -3, np.int64(0)):
        want = rf"^threads must be an integer >= 1, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=want):
            bench.resolve_threads(bad)
    for bad in (True, False, np.bool_(True), 2.5, 3.0, np.float64(2.0), "3", "abc", None):
        with pytest.raises(ValueError, match="^threads must be an integer >= 1, got "):
            bench.resolve_threads(bad)
    with pytest.raises(ValueError, match="^threads must be an integer >= 1, got 0$"):
        run_grid(small_scenario(), threads=0)
    with pytest.raises(ValueError, match="^threads must be an integer >= 1, got 2.5$"):
        run_grid(small_scenario(), threads=2.5)


def _blas_counts():
    return [get() for get, _ in linalg.openblas_thread_controls()]


def _set_blas_counts(counts):
    for (_, set_), count in zip(linalg.openblas_thread_controls(), counts):
        set_(count)


@pytest.fixture
def blas_two_threads():
    """Every loaded OpenBLAS at two threads for the test, restored afterwards."""
    original = _blas_counts()
    _set_blas_counts([2] * len(original))
    yield
    _set_blas_counts(original)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_grid_runs_every_trial_on_one_blas_thread(monkeypatch, blas_two_threads, threads):
    seen = []
    real_run_trial = bench.run_trial

    def spy(instance, solver, scenario):
        start = _blas_counts()
        row = real_run_trial(instance, solver, scenario)
        seen.append((start, _blas_counts()))
        return row

    monkeypatch.setattr(bench, "run_trial", spy)
    report = run_grid(small_scenario(trials=2), threads=threads)
    assert len(seen) == len(report.trials) == 4
    if not linalg.openblas_thread_controls():
        pytest.skip("no OpenBLAS thread setter found; the pin is a no-op")
    ones = [1] * len(linalg.openblas_thread_controls())
    assert all(start == end == ones for start, end in seen)
    assert _blas_counts() == [2] * len(ones)


def test_run_grid_restores_blas_threads_when_a_cell_raises(monkeypatch, blas_two_threads):
    def broken(scenario, ratio, trial_index, operator=None):
        raise RuntimeError("instance generation failed")

    monkeypatch.setattr(bench, "generate_instance", broken)
    for threads in (1, 2):
        with pytest.raises(RuntimeError, match="instance generation failed"):
            run_grid(small_scenario(), threads=threads)
        if not linalg.openblas_thread_controls():
            pytest.skip("no OpenBLAS thread setter found; the pin is a no-op")
        assert _blas_counts() == [2] * len(linalg.openblas_thread_controls())


def test_run_grid_without_blas_setter_returns_the_same_rows(monkeypatch):
    sc = small_scenario(trials=2)
    # Under an outer pin the BLAS state is the same with and without a setter.
    with linalg.single_blas_thread():
        pinned = _strip_wall_time(report_to_dict(run_grid(sc, threads=1)))
        monkeypatch.setattr(linalg, "openblas_thread_controls", lambda: ())
        serial = _strip_wall_time(report_to_dict(run_grid(sc, threads=1)))
        pooled = _strip_wall_time(report_to_dict(run_grid(sc, threads=2)))
    assert serial == pinned
    assert pooled == pinned


class DrawSpy:
    """Records every sensing draw of a grid: whether it ran ahead, and its BLAS counts.

    A draw made outside a call of ``bench.generate_instance`` on its thread is
    a lookahead draw. Each draw sleeps ``delay`` seconds first, so one still
    running when ``run_grid`` exits shows up in ``running``.
    """

    def __init__(self, monkeypatch, delay=0.0, fail_on_p=None):
        self.ahead, self.inline, self.blas = [], [], []
        self.started = self.running = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        for name in ("make_gaussian", "make_completion"):
            monkeypatch.setattr(bench, name, self._maker(getattr(bench, name), delay, fail_on_p))
        real_generate = bench.generate_instance

        def generate(*args, **kwargs):
            self._local.generating = True
            try:
                return real_generate(*args, **kwargs)
            finally:
                self._local.generating = False

        monkeypatch.setattr(bench, "generate_instance", generate)

    def _maker(self, real, delay, fail_on_p):
        def make(n, p, seed, *rest):
            with self._lock:
                self.started += 1
                self.running += 1
            try:
                time.sleep(delay)
                self.blas.append(_blas_counts())
                (self.inline if getattr(self._local, "generating", False) else self.ahead).append(p)
                if p == fail_on_p:
                    raise RuntimeError(f"draw of p = {p} failed")
                return real(n, p, seed, *rest)
            finally:
                with self._lock:
                    self.running -= 1

        return make


@pytest.fixture
def spare_core(monkeypatch):
    """Two usable CPUs, so a serial grid sees one core the pin leaves idle."""
    monkeypatch.setattr(linalg, "usable_cpus", lambda: 2)


def test_serial_gaussian_grid_draws_ahead_under_the_blas_pin(
    monkeypatch, blas_two_threads, spare_core
):
    sc = small_scenario(sampling_ratios=[0.4, 0.8], trials=2)
    spy = DrawSpy(monkeypatch)
    report = _strip_wall_time(report_to_dict(run_grid(sc)))
    # Trial-major: (0.4, 0) draws inline, then (0.8, 0), (0.4, 1), (0.8, 1) ahead.
    assert spy.inline == [360] and spy.ahead == [720, 360, 720]
    monkeypatch.setattr(linalg, "usable_cpus", lambda: 1)
    assert _strip_wall_time(report_to_dict(run_grid(sc))) == report
    assert spy.ahead == [720, 360, 720]
    if not linalg.openblas_thread_controls():
        pytest.skip("no OpenBLAS thread setter found; the pin is a no-op")
    ones = [1] * len(linalg.openblas_thread_controls())
    assert all(counts == ones for counts in spy.blas)


def test_no_lookahead_draw_outlives_run_grid(monkeypatch, blas_two_threads, spare_core):
    sc = small_scenario(sampling_ratios=[0.4, 0.8], trials=2)
    spy = DrawSpy(monkeypatch, delay=0.05)
    run_grid(sc)
    assert spy.started == 4 and spy.running == 0
    # The second cell raises while the third cell's draw is in flight.
    generate = bench.generate_instance
    calls = []

    def broken_second(*args, **kwargs):
        calls.append(args[1:3])
        if len(calls) == 2:
            raise RuntimeError("second cell failed")
        return generate(*args, **kwargs)

    monkeypatch.setattr(bench, "generate_instance", broken_second)
    with pytest.raises(RuntimeError, match="second cell failed"):
        run_grid(sc)
    assert calls == [(0.4, 0), (0.8, 0)]
    assert spy.started == 7 and spy.running == 0
    if linalg.openblas_thread_controls():
        assert _blas_counts() == [2] * len(linalg.openblas_thread_controls())


@pytest.mark.parametrize("ahead_cpus", [1, 2])
def test_failed_lookahead_draw_raises_from_run_grid(monkeypatch, ahead_cpus):
    # The draw of (0.8, 0) fails: ahead or inline, run_grid raises its error.
    monkeypatch.setattr(linalg, "usable_cpus", lambda: ahead_cpus)
    spy = DrawSpy(monkeypatch, fail_on_p=720)
    with pytest.raises(RuntimeError, match="draw of p = 720 failed"):
        run_grid(small_scenario(sampling_ratios=[0.4, 0.8], trials=2))
    assert len(spy.ahead) == (1 if ahead_cpus > 1 else 0)
    assert spy.running == 0


@pytest.mark.parametrize(
    "case",
    ["completion", "tensor_over_slab_min", "no_idle_core", "threads_equal_cpus"],
)
def test_grid_draws_inline_where_a_lookahead_does_not_pay(monkeypatch, spare_core, case):
    sc = small_scenario(sampling_ratios=[0.4, 0.8], trials=2)
    threads = 1
    if case == "completion":
        sc = dataclasses.replace(sc, operator_kind=COMPLETION)
    elif case == "tensor_over_slab_min":
        monkeypatch.setattr(linalg, "SLAB_MIN_BYTES", 8 * 360 * 30 * 30 - 1)
    elif case == "no_idle_core":
        monkeypatch.setattr(linalg, "usable_cpus", lambda: 1)
    else:
        threads = linalg.usable_cpus()
    spy = DrawSpy(monkeypatch)
    run_grid(sc, threads=threads)
    assert spy.ahead == [] and len(spy.inline) == 4


@pytest.mark.parametrize("limit, ahead", [(8 * 720 * 30 * 30 - 1, [360]),
                                          (8 * 720 * 30 * 30, [720, 360, 720])])
def test_lookahead_takes_tensors_up_to_slab_min_bytes(monkeypatch, spare_core, limit, ahead):
    monkeypatch.setattr(linalg, "SLAB_MIN_BYTES", limit)
    spy = DrawSpy(monkeypatch)
    run_grid(small_scenario(sampling_ratios=[0.4, 0.8], trials=2))
    assert spy.ahead == ahead


def test_weighted_solver_succeeds_at_moderate_sampling():
    # close priors, ratio 0.6: the per-direction solver succeeds in the large
    # majority of seeded trials while the unweighted baseline rarely does at 0.2.
    sc = builtin_presets()["close_close"]
    grmspi_hits = sum(
        run_trial(generate_instance(sc, 0.6, t), "grmspi", sc).success for t in range(10)
    )
    assert grmspi_hits >= 8
    admira_hits = sum(
        run_trial(generate_instance(sc, 0.2, t), "admira", sc).success for t in range(10)
    )
    assert admira_hits <= 2


def test_prior_weighting_dominates_baseline_on_grid():
    cfg = dataclasses.asdict(builtin_presets()["close_close"])
    cfg.update(name="ordering", sampling_ratios=[0.5, 0.8], trials=6,
               solvers=["admira", "grmspi"], master_seed=11)
    report = run_grid(Scenario.from_config(cfg))
    rates = {(a.solver, a.ratio): a.success_rate for a in report.aggregates}
    for ratio in (0.5, 0.8):
        assert rates[("grmspi", ratio)] >= rates[("admira", ratio)]


def test_success_rate_nondecreasing_in_ratio_smoke():
    # Statistical smoke test. Tolerance: a drop of at most one trial's worth
    # (1/trials) between adjacent ratios counts as flat, and >= 95% of the
    # adjacent pairs must be nondecreasing under that slack.
    ratios = (0.15, 0.45, 0.75)
    trials = 12
    pairs_ok = []
    single = dataclasses.asdict(WeightSpec.single(0.18, 0.999))
    per_direction = dataclasses.asdict(WeightSpec.per_direction((0.17, 0.19), (0.99, 0.98)))
    for seed in (1, 2, 3):
        sc_cfg = dataclasses.asdict(builtin_presets()["close_close"])
        sc_cfg.update(
            name="smoke", n=20, rank=2,
            theta_u=[2.3307, 3.1302], theta_v=[2.4493, 2.9559],
            rmspi_weights_u=single, rmspi_weights_v=single,
            grmspi_weights_u=per_direction, grmspi_weights_v=per_direction,
            sampling_ratios=list(ratios), trials=trials,
            solvers=["admira", "grmspi"], master_seed=seed,
        )
        report = run_grid(Scenario.from_config(sc_cfg))
        rates = {(a.solver, a.ratio): a.success_rate for a in report.aggregates}
        for solver in ("admira", "grmspi"):
            for lo, hi in zip(ratios, ratios[1:]):
                pairs_ok.append(rates[(solver, hi)] >= rates[(solver, lo)] - 1.0 / trials)
    assert np.mean(pairs_ok) >= 0.95


def test_scenario_config_round_trip(tmp_path):
    # Through a JSON file, as scenario files are written and read.
    path = tmp_path / "scenario.json"
    for preset in builtin_presets().values():
        path.write_text(json.dumps(dataclasses.asdict(preset), indent=2))
        assert load_scenario(path) == preset


def test_scenario_rejects_unknown_keys(tmp_path):
    # prior_mode was a label-only field; files that still carry it are rejected.
    for key, value in (("unexpected", 1), ("prior_mode", "close_close")):
        cfg = dataclasses.asdict(builtin_presets()["close_close"])
        cfg[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match=rf"unknown scenario keys: \['{key}'\]"):
            load_scenario(path)


def test_scenario_construction_errors():
    with pytest.raises(ValueError):
        small_scenario(sampling_ratios=[1.5])
    with pytest.raises(ValueError):
        small_scenario(solvers=["sdp"])
    with pytest.raises(ValueError, match="rmspi and grmspi need prior angles"):
        small_scenario(theta_u=None, theta_v=None)  # no priors: admira only
    with pytest.raises(ValueError, match="or both null for no priors"):
        small_scenario(theta_u=None)
    with pytest.raises(ValueError):
        small_scenario(theta_u=[1.0])
    # numpy integers are integers; fields are stored as plain ints.
    numpy_ints = small_scenario(n=np.int64(12), trials=np.int32(2), master_seed=np.int64(4))
    assert numpy_ints == small_scenario(n=12, trials=2, master_seed=4)
    assert all(type(v) is int for v in (numpy_ints.n, numpy_ints.trials, numpy_ints.master_seed))
    # No priors: the admira-only study sees the same truth, operator and
    # measurements, because priors draw from their own stream.
    with_priors = small_scenario(solvers=["admira"])
    without = small_scenario(theta_u=None, theta_v=None, solvers=["admira"])
    inst, bare = generate_instance(with_priors, 0.8, 0), generate_instance(without, 0.8, 0)
    assert bare.prior_u is None and bare.prior_v is None
    assert np.array_equal(bare.truth, inst.truth) and np.array_equal(bare.y, inst.y)
    rows = [dataclasses.asdict(run_grid(sc).trials[0]) for sc in (with_priors, without)]
    for row in rows:
        del row["wall_time"]
    assert rows[0] == rows[1]


def test_report_serialization(tmp_path):
    sc = small_scenario(trials=2)
    report = run_grid(sc)
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    write_report_json(report, json_path)
    write_report_csv(report, csv_path)
    loaded = json.loads(json_path.read_text())
    assert loaded["scenario"]["name"] == "small"
    assert len(loaded["trials"]) == len(report.trials)
    for row in loaded["trials"]:
        assert row["operator"]["kind"] == "gaussian"
        assert row["operator"]["seed"] is not None
        if row["snr_db"] is not None:
            assert math.isfinite(row["snr_db"])
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "solver,ratio,success_rate,mean_snr_db,median_iterations,trials"
    assert len(lines) == 1 + len(report.aggregates)


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 5))
    path = tmp_path / "matrix.csv"
    np.savetxt(path, m, fmt="%.17g", delimiter=",", header="3,5", comments="")
    assert np.array_equal(read_matrix_csv(path), m)
    bad = tmp_path / "bad.csv"
    bad.write_text("3,5\n1.0,2.0\n")
    with pytest.raises(ValueError):
        read_matrix_csv(bad)


def test_rip_survey_identity_and_ordering():
    preset = builtin_presets()["close_close"]
    # Completion at ratio 1 senses every entry once: an exact isometry.
    full = dataclasses.replace(
        preset, n=8, operator_kind="completion", sampling_ratios=(1.0,), master_seed=5
    )
    rows = rip_survey(full, [1, 2], samples=40)
    for row in rows:
        assert row.delta_base <= 1e-10
    gaussian = dataclasses.replace(preset, n=12, sampling_ratios=(0.4, 0.8), master_seed=6)
    gaussian_rows = rip_survey(gaussian, [2, 4], samples=40)
    for row in gaussian_rows:
        assert row.delta_base <= row.delta_weighted + 1e-10
    assert gaussian_rows == rip_survey(gaussian, [2, 4], samples=40)
    for rank in (0, 13):
        want = rf"^sample rank must be an integer in \[1, 12\], got {rank}$"
        with pytest.raises(ValueError, match=want):
            rip_survey(gaussian, [2, rank], samples=10)


def test_rip_survey_without_priors_names_the_missing_angles():
    # An admira-only scenario carries no prior angles, and the survey weights
    # its operator from them; it failed deep inside perturb_subspace before.
    scenario = dataclasses.replace(
        builtin_presets()["close_close"], n=12, theta_u=None, theta_v=None, solvers=("admira",)
    )
    with pytest.raises(
        ValueError, match=r"^rip_survey needs prior angles theta_u and theta_v; the scenario has none$"
    ):
        rip_survey(scenario, [2], samples=10)


@pytest.mark.parametrize("solver", ["rmspi", "grmspi"])
@pytest.mark.parametrize("explicit", [True, False])
def test_prior_weighting_matches_hand_built_operators(solver, explicit):
    # The one place priors become weights: the scenario's explicit spec, else
    # angles_to_weights of its angles, and the references go to grmspi's
    # per-direction complement. Compared byte for byte with the same build
    # written out by hand.
    preset = builtin_presets()["close_far"]
    if not explicit:
        preset = dataclasses.replace(preset, rmspi_weights_u=None, rmspi_weights_v=None,
                                     grmspi_weights_u=None, grmspi_weights_v=None)
    instance = generate_instance(preset, 0.6, 0)
    mode = SINGLE if solver == "rmspi" else PER_DIRECTION
    sides = (
        (instance.prior_u, preset.theta_u, instance.truth_u, f"{solver}_weights_u"),
        (instance.prior_v, preset.theta_v, instance.truth_v, f"{solver}_weights_v"),
    )
    weighting = bench.prior_weighting(preset, solver, instance.prior_u, instance.prior_v,
                                      instance.truth_u, instance.truth_v)
    assert len(weighting) == 2
    for got, (prior, theta, reference, field) in zip(weighting, sides):
        spec = getattr(preset, field) if explicit else angles_to_weights(theta, mode)
        want = build_weight_operator(prior, spec, complement_reference=reference)
        assert got.q.tobytes() == want.q.tobytes()
        assert got.q_inv.tobytes() == want.q_inv.tobytes()
    if solver == "grmspi":
        # Without a reference (and no rng) the per-direction complement is undefined.
        with pytest.raises(ValueError, match="complement reference"):
            bench.prior_weighting(preset, solver, instance.prior_u, instance.prior_v)


def test_prior_weighting_admira_and_unknown_solver():
    preset = builtin_presets()["close_close"]
    instance = generate_instance(preset, 0.6, 0)
    assert bench.prior_weighting(preset, "admira", instance.prior_u, instance.prior_v) is None
    with pytest.raises(ValueError, match="unknown solver"):
        bench.prior_weighting(preset, "sdp", instance.prior_u, instance.prior_v)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["gaussian", "completion"]),
    n=st.integers(4, 12),
    rank=st.integers(1, 2),
    ratio=st.sampled_from([0.3, 0.6, 0.9]),
    span=st.sampled_from([1e-8, 1e-6, 1e-4, 0.1]),
    complement=st.sampled_from([1e-8, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_tiny_weights_end_finite_or_in_the_error_stop(kind, n, rank, ratio, span, complement, seed):
    # Weights near 0 make Q^-1 huge (up to 1e8). A full rmspi or grmspi solve
    # must still end with a finite estimate, or fail as a recorded solver
    # error; a trial row with a non-finite error and no error stop must not
    # occur.
    rank = min(rank, n // 2)
    single = WeightSpec.single(span, complement)
    per_direction = WeightSpec.per_direction((span,) * rank, (complement,) * rank)
    scenario = Scenario(
        name="tiny_weights", n=n, rank=rank, operator_kind=kind, sampling_ratios=(ratio,),
        theta_u=(1.0, 3.0)[:rank], theta_v=(2.0, 4.0)[:rank],
        rmspi_weights_u=single, rmspi_weights_v=single,
        grmspi_weights_u=per_direction, grmspi_weights_v=per_direction,
        trials=1, solvers=("rmspi", "grmspi"), master_seed=seed,
    )
    for row in run_grid(scenario).trials:
        if row.stop_reason != "error":
            assert math.isfinite(row.normalized_error), row
            assert not math.isnan(row.snr_db), row
