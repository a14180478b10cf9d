import json

import numpy as np
import pytest

from subrec import bench
from subrec.cli import main


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "close_close" in out and "far_far_completion" in out


def test_presets_json(capsys):
    assert main(["presets", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == set(bench.builtin_presets())
    assert data["close_close"]["rank"] == 3


def _tiny_scenario_file(tmp_path, **overrides):
    cfg = bench.builtin_presets()["close_close"].to_config()
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


def test_bench_command_runtime_failure_exit_code(tmp_path):
    scenario = _tiny_scenario_file(tmp_path, trials=1, solvers=["admira"])
    code = main(["bench", str(scenario), "--out", "/nonexistent-dir/report.json"])
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["bench", "--frobnicate"]) == 1
    assert main(["no-such-command"]) == 1


def test_recover_from_preset(capsys):
    code = main(["recover", "--preset", "close_close", "--ratio", "0.8", "--solver", "grmspi"])
    assert code == 0
    out = capsys.readouterr().out
    assert "snr_db=" in out and "iterations=" in out
    assert "success=True" in out


def test_recover_from_matrix_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    truth = np.outer(rng.standard_normal(12), rng.standard_normal(12))
    truth += np.outer(rng.standard_normal(12), rng.standard_normal(12))
    path = tmp_path / "matrix.csv"
    bench.write_matrix_csv(truth, path)
    code = main(
        ["recover", "--matrix", str(path), "--rank", "2", "--ratio", "0.9", "--solver", "rmspi"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "snr_db=" in out and "iterations=" in out


def test_recover_matrix_errors(tmp_path, capsys):
    rng = np.random.default_rng(1)
    path = tmp_path / "matrix.csv"
    bench.write_matrix_csv(rng.standard_normal((6, 6)), path)
    assert main(["recover", "--matrix", str(path)]) == 1  # missing --rank
    assert main(["recover", "--matrix", str(tmp_path / "none.csv"), "--rank", "1"]) == 1
    rect = tmp_path / "rect.csv"
    bench.write_matrix_csv(rng.standard_normal((4, 6)), rect)
    assert main(["recover", "--matrix", str(rect), "--rank", "1"]) == 1
    assert main(["recover", "--matrix", str(path), "--rank", "1", "--theta-u", "95"]) == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_recover_matrix_non_finite_entry(tmp_path, capsys, bad):
    matrix = np.random.default_rng(2).standard_normal((6, 6))
    matrix[2, 3] = bad
    path = tmp_path / "matrix.csv"
    bench.write_matrix_csv(matrix, path)
    assert main(["recover", "--matrix", str(path), "--rank", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("subrec recover: ") and "NaN or Inf" in err


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
