import copy
import dataclasses
import json
import math

import numpy as np
import pytest

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
    save_scenario,
    write_matrix_csv,
    write_report_csv,
    write_report_json,
)
from subrec.linalg import principal_angles
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
        ("gaussian", "need at least one measurement"),
        ("completion", r"measurement count 0 outside \[1, 900\]"),
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

    def with_nan(scenario, ratio, trial_index):
        instance = real(scenario, ratio, trial_index)
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
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {bad}"):
            bench.resolve_threads(bad)
    for bad in (True, False, np.bool_(True), 2.5, 3.0, np.float64(2.0), "3", "abc", None):
        with pytest.raises(ValueError, match="threads must be an integer, got "):
            bench.resolve_threads(bad)
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_grid(small_scenario(), threads=0)
    with pytest.raises(ValueError, match="threads must be an integer"):
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
    def broken(scenario, ratio, trial_index):
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
    sc = builtin_presets()["far_close_noisy"]
    path = tmp_path / "scenario.json"
    save_scenario(sc, path)
    loaded = load_scenario(path)
    assert loaded == sc
    # Through JSON text, as scenario files are written and read.
    for preset in builtin_presets().values():
        assert Scenario.from_config(json.loads(json.dumps(dataclasses.asdict(preset)))) == preset


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
    write_matrix_csv(m, path)
    assert path.read_text().splitlines()[0] == "3,5"
    assert np.array_equal(read_matrix_csv(path), m)
    bad = tmp_path / "bad.csv"
    bad.write_text("3,5\n1.0,2.0\n")
    with pytest.raises(ValueError):
        read_matrix_csv(bad)


def test_rip_survey_identity_and_ordering():
    rows = rip_survey(8, [1, 2], [1.0], samples=40, seed=5, operator_kind="identity")
    for row in rows:
        assert row.delta_base <= 1e-10
    gaussian_rows = rip_survey(12, [2, 4], [0.4, 0.8], samples=40, seed=6)
    for row in gaussian_rows:
        assert row.delta_base <= row.delta_weighted + 1e-10
    again = rip_survey(12, [2, 4], [0.4, 0.8], samples=40, seed=6)
    assert gaussian_rows == again
    with pytest.raises(ValueError):
        rip_survey(8, [1], [0.5], samples=10, seed=1, operator_kind="identity")


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
