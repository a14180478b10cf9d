import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subrec
from subrec import bench
from subrec.cli import main
from subrec.linalg import perturb_subspace, svd
from subrec.operators import COMPLETION, make_completion, make_gaussian
from subrec.solver import SolverConfig, solve
from subrec.weighting import PER_DIRECTION, SINGLE, angles_to_weights, build_weight_operator


def write_matrix_csv(matrix, path):
    """The `recover --matrix` file: a "rows,cols" header, then one CSV line per row."""
    rows, cols = matrix.shape
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",", header=f"{rows},{cols}", comments="")


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "close_close" in out and "far_far_completion" in out
    assert "prior=" not in out


def test_module_entry_point_runs_in_a_fresh_interpreter():
    # `python -m subrec` goes through __main__.py, which exits with main()'s code.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "subrec", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    version = run("--version")
    assert version.returncode == 0, version.stderr
    assert version.stdout == f"subrec {subrec.__version__}\n"
    presets = run("presets")
    assert presets.returncode == 0, presets.stderr
    assert [line.split()[0] for line in presets.stdout.splitlines()] == list(bench.builtin_presets())


def test_presets_json(capsys):
    assert main(["presets", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == set(bench.builtin_presets())
    assert data["close_close"]["rank"] == 3


def _tiny_scenario_file(tmp_path, **overrides):
    cfg = dataclasses.asdict(bench.builtin_presets()["close_close"])
    cfg.update(
        name="tiny", sampling_ratios=[0.8], trials=2, solvers=["admira", "grmspi"], master_seed=3
    )
    cfg.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def test_bench_command_writes_reports(tmp_path, capsys):
    scenario = _tiny_scenario_file(tmp_path)
    out = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    code = main(["bench", str(scenario), "--out", str(out), "--csv", str(csv)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["scenario"]["name"] == "tiny"
    assert len(report["trials"]) == 4
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("solver,ratio,success_rate")
    assert "report written" in capsys.readouterr().out


def test_bench_command_preset_with_overrides(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        ["bench", "--preset", "close_close", "--trials", "1", "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["scenario"]["trials"] == 1
    assert report["scenario"]["master_seed"] == 9


def test_bench_command_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "bogus_key": 1}))
    assert main(["bench", str(bad)]) == 1
    assert main(["bench"]) == 1
    assert main(["bench", "--preset", "no_such_preset"]) == 1
    missing = tmp_path / "missing.json"
    assert main(["bench", str(missing)]) == 1


@pytest.mark.parametrize(
    "text, kind",
    [("[]", "list"), ("3", "int"), ("null", "NoneType"), ('[["n", 5]]', "list"), ('"x"', "str")],
)
def test_bench_command_rejects_a_scenario_file_that_is_not_an_object(
    tmp_path, capsys, text, kind
):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["bench", str(bad)]) == 1
    message = f"a scenario must be a JSON object of fields, got {kind}"
    assert capsys.readouterr().err == f"subrec bench: {message}\n"


@pytest.mark.parametrize(
    "args, env, message",
    [
        (["--threads", "0"], None, "threads must be at least 1, got 0"),
        (["--threads", "-3"], None, "threads must be at least 1, got -3"),
    ],
)
def test_bench_command_rejects_bad_thread_count(tmp_path, capsys, args, env, message):
    # ``env`` is None in every case and kept only for the case ids: no
    # environment variable sets the pool size.
    out = tmp_path / "report.json"
    assert main(["bench", str(_tiny_scenario_file(tmp_path)), "--out", str(out), *args]) == 1
    assert capsys.readouterr().err == f"subrec bench: {message}\n"
    assert not out.exists()


NO_PRIORS = {"theta_u": None, "theta_v": None}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n": 0}, "dimension must be positive"),
        ({"rank": 0}, "rank must lie in [1, 15] to build priors"),
        ({"rank": 16}, "rank must lie in [1, 15] to build priors"),
        ({**NO_PRIORS, "solvers": ["admira"], "rank": 31}, "rank must lie in [1, 30]"),
        ({"operator_kind": "identity"}, "unknown operator kind 'identity'"),
        ({"sampling_ratios": []}, "need at least one sampling ratio"),
        ({"sampling_ratios": [0.0]}, "sampling ratio 0.0 outside (0, 1]"),
        ({"sampling_ratios": [1.5]}, "sampling ratio 1.5 outside (0, 1]"),
        ({"sampling_ratios": [0.0001]}, "sampling ratio 0.0001 gives no measurements at n = 30"),
        ({"noise_level": -1e-3}, "noise level must be finite and nonnegative, got -0.001"),
        ({"noise_level": float("nan")}, "noise level must be finite and nonnegative, got nan"),
        ({"noise_level": float("inf")}, "noise level must be finite and nonnegative, got inf"),
        ({"trials": 0}, "need at least one trial"),
        ({"solvers": ["sdp"]}, "unknown solver 'sdp'"),
        (NO_PRIORS, "rmspi and grmspi need prior angles theta_u and theta_v"),
        ({"theta_u": None},
         "theta_u and theta_v need one prior angle per rank direction (3 each), "
         "or both null for no priors"),
        ({"theta_v": [1.0, 2.0]},
         "theta_u and theta_v need one prior angle per rank direction (3 each), "
         "or both null for no priors"),
        ({"theta_v": [1.0, 2.0, 95.0]}, "prior angles must lie in [0, 90] degrees"),
        ({"grmspi_weights_v": {"mode": "per_direction", "span_weights": [0.2, 0.2],
                               "complement_weights": [0.9, 0.9]}},
         "grmspi_weights_v carries 2 per-direction weights for rank 3"),
        ({"rmspi_weights_u": {"mode": "single", "span_weights": 0.0, "complement_weights": 0.9}},
         "weight 0.0 outside (0, 1]"),
        ({"n": 30.5}, "n must be an integer, got 30.5"),
        ({"n": True}, "n must be an integer, got True"),
        ({"rank": 2.0}, "rank must be an integer, got 2.0"),
        ({"trials": "5"}, "trials must be an integer, got '5'"),
        ({"master_seed": "x"}, "master_seed must be an integer, got 'x'"),
        ({"master_seed": 1.5}, "master_seed must be an integer, got 1.5"),
        ({"master_seed": -1}, "master_seed must be nonnegative, got -1"),
        ({"sampling_ratios": 0.5}, "sampling_ratios must be a list of numbers, got 0.5"),
        ({"sampling_ratios": ["0.5"]}, "sampling_ratios must be a list of numbers, got ['0.5']"),
        ({"theta_u": 5}, "theta_u must be a list of numbers, got 5"),
        ({"theta_v": [1.0, 2.0, "3"]}, "theta_v must be a list of numbers, got [1.0, 2.0, '3']"),
        ({"noise_level": "0.1"}, "noise_level must be a number, got '0.1'"),
        ({"noise_level": True}, "noise_level must be a number, got True"),
        ({"solvers": "admira"}, "solvers must be a list of solver names, got 'admira'"),
        ({"solvers": [1]}, "solvers must be a list of solver names, got [1]"),
        ({"rmspi_weights_u": 0.5}, "rmspi_weights_u must be a weight spec or null, got 0.5"),
        ({"rmspi_weights_u": {"mode": "single", "span_weights": [0.2], "complement_weights": 0.9}},
         "span_weights must be a number in single mode, got [0.2]"),
        ({"grmspi_weights_v": {"mode": "per_direction", "span_weights": [0.2, 0.2, 0.2],
                               "complement_weights": 0.9}},
         "complement_weights must be a list of numbers in per-direction mode, got 0.9"),
        ({"rmspi_weights_v": {"mode": "single", "span_weights": "0.2", "complement_weights": 0.9}},
         "span_weights must be a number in single mode, got '0.2'"),
        ({"rmspi_weights_v": {"mode": "single", "span_weights": 0.2, "complement_weights": True}},
         "complement_weights must be a number in single mode, got True"),
        ({"grmspi_weights_u": {"mode": "per_direction", "span_weights": [0.2, "0.2", 0.2],
                               "complement_weights": [0.9, 0.9, 0.9]}},
         "span_weights must be a list of numbers in per-direction mode, got [0.2, '0.2', 0.2]"),
        ({"grmspi_weights_u": {"mode": "per_direction", "span_weights": [0.2, 0.2, 0.2],
                               "complement_weights": [0.9, False, 0.9]}},
         "complement_weights must be a list of numbers in per-direction mode, "
         "got [0.9, False, 0.9]"),
        ({"sampling_ratios": [0.6, 0.6]}, "sampling ratios must be distinct, got [0.6, 0.6]"),
        ({"sampling_ratios": [0.6, 0.6000000001]},
         "sampling ratios must be distinct, got [0.6, 0.6000000001]"),
        ({"solvers": []}, "solvers must be one or more distinct names, got []"),
        ({"solvers": ["admira", "admira"]},
         "solvers must be one or more distinct names, got ['admira', 'admira']"),
    ],
)
def test_invalid_scenario_field_is_rejected_everywhere(tmp_path, capsys, overrides, message):
    # The Scenario constructor is the one place a study is validated, so the
    # same rule fires however the scenario is made.
    with pytest.raises(ValueError) as direct:
        bench.Scenario(**overrides)
    with pytest.raises(ValueError) as replaced:
        dataclasses.replace(bench.builtin_presets()["close_close"], **overrides)
    assert str(direct.value) == str(replaced.value) == message
    out = tmp_path / "report.json"
    assert main(["bench", str(_tiny_scenario_file(tmp_path, **overrides)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"subrec bench: {message}\n"
    assert not out.exists()


def test_bench_command_rejects_invalid_overrides(capsys):
    assert main(["bench", "--preset", "close_close", "--trials", "0"]) == 1
    assert capsys.readouterr().err == "subrec bench: need at least one trial\n"


def test_bench_command_runtime_failure_exit_code(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("grid failed")

    monkeypatch.setattr(bench, "run_grid", fail)
    scenario = _tiny_scenario_file(tmp_path, trials=1, solvers=["admira"])
    code = main(["bench", str(scenario), "--out", str(tmp_path / "report.json")])
    assert code == 2
    assert capsys.readouterr().err == "subrec: RuntimeError: grid failed\n"


@pytest.mark.parametrize(
    "command, flag, target, reason",
    [
        ("bench", "--out", "missing/report.json", "no directory {tmp}/missing"),
        ("bench", "--out", ".", "it is a directory"),
        ("bench", "--out", "report.json", "permission denied"),
        ("bench", "--csv", "missing/report.csv", "no directory {tmp}/missing"),
        ("rip", "--csv", "missing/rip.csv", "no directory {tmp}/missing"),
        ("rip", "--csv", ".", "it is a directory"),
        ("rip", "--csv", "rip.csv", "permission denied"),
    ],
)
def test_unwritable_output_path_is_rejected_before_any_work(
    tmp_path, monkeypatch, capsys, command, flag, target, reason
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(bench, "run_grid", must_not_run)
    monkeypatch.setattr(bench, "rip_survey", must_not_run)
    if reason == "permission denied":
        # A superuser may write anywhere, so the refusal is simulated.
        monkeypatch.setattr(os, "access", lambda path, mode: False)
    path = tmp_path / target
    args = [command, flag, str(path)]
    if command == "bench":
        args += ["--preset", "close_close"]
        if flag == "--csv":
            args += ["--out", str(tmp_path / "report.json")]
    assert main(args) == 1
    message = f"cannot write {path}: {reason.format(tmp=tmp_path)}"
    assert capsys.readouterr().err == f"subrec {command}: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exit_code(capsys):
    assert main(["bench", "--frobnicate"]) == 1
    assert main(["no-such-command"]) == 1


def test_recover_from_preset(capsys):
    code = main(["recover", "--preset", "close_close", "--ratio", "0.8", "--solver", "grmspi"])
    assert code == 0
    out = capsys.readouterr().out
    assert "snr_db=" in out and "iterations=" in out
    assert "success=True" in out


def test_recover_from_preset_rejects_out_of_range_ratio(capsys):
    # Both operator kinds apply the ratio rule bench applies, before any sensing.
    for preset in ("close_close", "close_close_completion"):
        assert main(["recover", "--preset", preset, "--ratio", "1.5"]) == 1
        assert capsys.readouterr().err == "subrec recover: sampling ratio 1.5 outside (0, 1]\n"


def test_recover_rejects_negative_trial(capsys):
    assert main(["recover", "--preset", "close_close", "--trial", "-1"]) == 1
    assert capsys.readouterr().err == "subrec recover: --trial must be nonnegative, got -1\n"


def test_recover_trial_equals_its_grid_row(monkeypatch, capsys):
    # Gaussian n = 30 at ratio 0.8 is a shape where threaded BLAS kernels give
    # other last bits than one thread, so this holds only because recover runs
    # under the same one-thread pin as run_grid.
    scenario = dataclasses.replace(
        bench.builtin_presets()["close_close"], sampling_ratios=(0.8,), trials=1
    )
    grid_rows = {row.solver: row for row in bench.run_grid(scenario).trials}
    recovered = []
    real_run_trial = bench.run_trial

    def capture(instance, solver, sc):
        recovered.append(real_run_trial(instance, solver, sc))
        return recovered[-1]

    monkeypatch.setattr(bench, "run_trial", capture)
    for solver in bench.SOLVER_IDS:
        assert main(["recover", "--preset", "close_close", "--ratio", "0.8", "--trial", "0",
                     "--solver", solver]) == 0
    capsys.readouterr()
    assert len(recovered) == len(bench.SOLVER_IDS)
    for row in recovered:
        got, want = dataclasses.asdict(row), dataclasses.asdict(grid_rows[row.solver])
        del got["wall_time"], want["wall_time"]
        assert got == want


def test_recover_from_matrix_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    truth = np.outer(rng.standard_normal(12), rng.standard_normal(12))
    truth += np.outer(rng.standard_normal(12), rng.standard_normal(12))
    path = tmp_path / "matrix.csv"
    write_matrix_csv(truth, path)
    code = main(
        ["recover", "--matrix", str(path), "--rank", "2", "--ratio", "0.9", "--solver", "rmspi"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "snr_db=" in out and "iterations=" in out


def test_recover_matrix_errors(tmp_path, capsys):
    rng = np.random.default_rng(1)
    path = tmp_path / "matrix.csv"
    write_matrix_csv(rng.standard_normal((6, 6)), path)
    assert main(["recover", "--matrix", str(path)]) == 1  # missing --rank
    assert main(["recover", "--matrix", str(tmp_path / "none.csv"), "--rank", "1"]) == 1
    capsys.readouterr()
    rect = tmp_path / "rect.csv"
    write_matrix_csv(rng.standard_normal((4, 6)), rect)
    for args, message in (
        ([str(rect), "--rank", "1"], "recover expects a square matrix"),
        ([str(path), "--rank", "0"], "rank must lie in [1, 3] to build priors"),
        ([str(path), "--rank", "4"], "rank must lie in [1, 3] to build priors"),
        ([str(path), "--rank", "1", "--theta-u", "95"], "prior angles must lie in [0, 90] degrees"),
        ([str(path), "--rank", "1", "--theta-v", "3,4"],
         "theta_u and theta_v need one prior angle per rank direction (1 each), "
         "or both null for no priors"),
        ([str(path), "--rank", "1", "--ratio", "0.01"],
         "sampling ratio 0.01 gives no measurements at n = 6"),
        ([str(path), "--rank", "1", "--kind", "completion", "--ratio", "1.5"],
         "sampling ratio 1.5 outside (0, 1]"),
        ([str(path), "--rank", "1", "--ratio", "1.5"], "sampling ratio 1.5 outside (0, 1]"),
    ):
        assert main(["recover", "--matrix", *args]) == 1
        assert capsys.readouterr().err == f"subrec recover: {message}\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_recover_matrix_non_finite_entry(tmp_path, capsys, bad):
    matrix = np.random.default_rng(2).standard_normal((6, 6))
    matrix[2, 3] = bad
    path = tmp_path / "matrix.csv"
    write_matrix_csv(matrix, path)
    assert main(["recover", "--matrix", str(path), "--rank", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("subrec recover: ") and "NaN or Inf" in err


def test_recover_matrix_all_zeros_is_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    path = tmp_path / "zeros.csv"
    write_matrix_csv(np.zeros((4, 4)), path)

    def no_trial(*args):
        raise AssertionError("a trial ran on an all-zero matrix")

    monkeypatch.setattr(bench, "run_trial", no_trial)
    assert main(["recover", "--matrix", str(path), "--rank", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"subrec recover: matrix file {path} is all zeros\n"
    assert captured.out == ""


def test_rip_command(tmp_path, capsys):
    csv = tmp_path / "rip.csv"
    code = main(
        ["rip", "--n", "10", "--ranks", "1,2", "--ratios", "0.5,1.0", "--samples", "20",
         "--seed", "4", "--csv", str(csv)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("rank,ratio,p,delta_base,delta_weighted")
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 5


def test_rip_command_bad_args():
    assert main(["rip", "--ranks", "one,two"]) == 1


def test_rip_command_rejects_identity_kind(capsys):
    # Completion at ratio 1 is the exact isometry; there is no identity kind.
    assert main(["rip", "--kind", "identity", "--ratios", "1.0"]) == 1
    assert "subrec rip: error: argument --kind: invalid choice: 'identity'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--kind", "completion", "--ratios", "1.5"], "sampling ratio 1.5 outside (0, 1]"),
        (["--n", "10", "--ratios", "0.001"], "sampling ratio 0.001 gives no measurements at n = 10"),
        (["--ratios", "1.5"], "sampling ratio 1.5 outside (0, 1]"),
        (["--n", "4"], "rank must lie in [1, 2] to build priors"),
        (["--samples", "0"], "need at least one sample"),
        (["--ranks", "0"], "sample rank 0 outside [1, 30]"),
        (["--ranks", "3,31"], "sample rank 31 outside [1, 30]"),
    ],
)
def test_rip_command_configuration_errors(capsys, args, message):
    # The survey's scenario is the preset with --n, --kind, --ratios and
    # --seed replaced, so the Scenario constructor's rules and messages apply.
    assert main(["rip", "--ranks", "1", "--samples", "3", *args]) == 1
    assert capsys.readouterr().err == f"subrec rip: {message}\n"


def _recover_oracle(matrix, rank, kind, ratio, seed, solver, theta_u, theta_v):
    # The --matrix recipe written out: operator seed (seed, 1), priors from
    # the rng (seed, 3) tilting the matrix's own top-rank subspaces, weights
    # from the angles, grmspi's complement reference from the same SVD.
    n = matrix.shape[0]
    p = bench.measurement_count(n, ratio)
    op = make_completion(n, p, (seed, 1)) if kind == COMPLETION else make_gaussian(n, p, (seed, 1))
    u, _, vh = svd(matrix)
    truth_u, truth_v = u[:, :rank], vh[:rank].T
    rng = np.random.default_rng((seed, 3))
    prior_u = perturb_subspace(truth_u, theta_u, rng)
    prior_v = perturb_subspace(truth_v, theta_v, rng)
    if solver == "admira":
        weighting = None
    elif solver == "rmspi":
        weighting = (
            build_weight_operator(prior_u, angles_to_weights(theta_u, SINGLE)),
            build_weight_operator(prior_v, angles_to_weights(theta_v, SINGLE)),
        )
    else:
        weighting = (
            build_weight_operator(prior_u, angles_to_weights(theta_u, PER_DIRECTION),
                                  complement_reference=truth_u),
            build_weight_operator(prior_v, angles_to_weights(theta_v, PER_DIRECTION),
                                  complement_reference=truth_v),
        )
    config = SolverConfig(rank=rank, weighting=weighting)
    run = solve(op, op.apply(matrix), config)
    error = np.linalg.norm(matrix - run.estimate) / np.linalg.norm(matrix)
    return p, run, error


@pytest.mark.parametrize("kind", ["gaussian", "completion"])
@pytest.mark.parametrize("solver", ["admira", "rmspi", "grmspi"])
def test_recover_matrix_matches_recipe(tmp_path, capsys, kind, solver):
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal((14, 2)) @ rng.standard_normal((2, 14))
    path = tmp_path / "matrix.csv"
    write_matrix_csv(matrix, path)
    code = main(["recover", "--matrix", str(path), "--rank", "2", "--kind", kind, "--ratio", "0.7",
                 "--seed", "4", "--solver", solver, "--theta-u", "3,6", "--theta-v", "4,8"])
    assert code == 0
    fields = dict(part.split("=", 1) for part in capsys.readouterr().out.split())
    p, run, error = _recover_oracle(matrix, 2, kind, 0.7, 4, solver, (3.0, 6.0), (4.0, 8.0))
    assert fields["solver"] == solver
    assert fields["n"] == "14" and fields["p"] == str(p)
    assert fields["normalized_error"] == f"{error:.3e}"
    assert fields["iterations"] == str(run.iterations)
    assert fields["stop"] == run.stop_reason
    # --matrix judges success against the matrix itself, at any iterate.
    tolerance = 1e-2 * np.linalg.norm(matrix)
    success = any(np.linalg.norm(matrix - est) <= tolerance for est in run.estimates)
    assert fields["success"] == str(success)
