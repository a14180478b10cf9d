"""Each rule that builds a trial has one implementation.

The prior-angle range, count and shape, the room for priors (n >= 2r), the
per-direction weight count, the solver table and the mode of each solver's
weight spec, the weighting modes, a solve's weighting pair, the operator
kinds, the bounded integers, a trial's truth and the orthonormal bases are
each checked in one place, so every path that applies a rule raises that
place's message: the library function, the Scenario, and the command line.
"""

import argparse
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from subrec import bench
from subrec.bench import SOLVER_IDS, SOLVER_MODES, WEIGHT_FIELDS, Scenario
from subrec.cli import build_parser, main
from subrec.linalg import (
    angle_vector,
    perturb_subspace,
    principal_angles,
    random_orthonormal,
    require_int,
    require_prior_room,
)
from subrec.operators import (
    GAUSSIAN,
    OPERATOR_KINDS,
    MeasurementOperator,
    known_kind,
    make_completion,
    make_gaussian,
)
from subrec.solver import SolverConfig, solve
from subrec.weighting import (
    PER_DIRECTION,
    SINGLE,
    WeightSpec,
    angles_to_weights,
    build_weight_operator,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "subrec"
RANGE = "prior angles must lie in [0, 90] degrees"
BOTH_OR_NULL = "theta_u and theta_v must both be set, or both null for no priors"


def _message(fn, *args, **kwargs):
    with pytest.raises(ValueError) as info:
        fn(*args, **kwargs)
    return str(info.value)


def _bench_file_message(tmp_path, capsys, **overrides):
    """The error `subrec bench FILE` prints for close_close with ``overrides``."""
    cfg = dataclasses.asdict(bench.builtin_presets()["close_close"])
    cfg.update({"sampling_ratios": [0.8], "trials": 1, **overrides})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    message = _cli_message(capsys, "bench", str(path), "--out", str(out))
    assert not out.exists()
    return message


def _cli_message(capsys, command, *args):
    """The error ``subrec <command> ARGS`` prints, after requiring exit code 1."""
    assert main([command, *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"subrec {command}: ") and err.endswith("\n")
    return err[len(f"subrec {command}: "):-1]


@pytest.mark.parametrize("bad", [95.0, -1.0, math.nan], ids=["95", "-1", "nan"])
def test_prior_angle_range_has_one_message(tmp_path, capsys, bad):
    rng = np.random.default_rng(0)
    angles = [2.0, bad, 4.0]
    messages = {
        "perturb_subspace": _message(perturb_subspace, random_orthonormal(10, 3, rng), angles, rng),
        "angles_to_weights single": _message(angles_to_weights, angles, SINGLE),
        "angles_to_weights per_direction": _message(angles_to_weights, angles, PER_DIRECTION),
        "Scenario": _message(Scenario, theta_v=tuple(angles)),
        "subrec bench FILE": _bench_file_message(tmp_path, capsys, theta_v=angles),
    }
    assert set(messages.values()) == {RANGE}, messages


def _scenario_paths(key, value):
    """The Scenario's message for close_close with ``key`` set, asserted equal on all three builds."""
    preset = bench.builtin_presets()["close_close"]
    cfg = dict(dataclasses.asdict(preset), **{key: value})
    if isinstance(value, WeightSpec):
        cfg[key] = dataclasses.asdict(value)
    want = _message(Scenario, **{key: value})
    assert _message(dataclasses.replace, preset, **{key: value}) == want
    assert _message(Scenario.from_config, cfg) == want
    return want


def _matrix_file(tmp_path, n):
    path = tmp_path / "matrix.csv"
    rows = np.random.default_rng(3).standard_normal((n, n))
    path.write_text(f"{n},{n}\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
    return str(path)


def test_prior_angle_count_has_one_message_per_path(tmp_path, capsys):
    # angle_vector owns the count; the Scenario keeps only the rule that
    # both thetas are set or both null.
    # Each message names the field, as the Scenario's and the options' do.
    rng = np.random.default_rng(0)
    short = [2.0, 3.0]
    got = _message(angle_vector, "theta", short, 3)
    assert got == "theta must be a vector of length 3, got shape (2,)"
    got = _message(perturb_subspace, random_orthonormal(10, 3, rng), short, rng)
    assert got == "target_angles_deg must be a vector of length 3, got shape (2,)"
    for mode in (SINGLE, PER_DIRECTION):
        got = _message(angles_to_weights, [], mode)
        assert got == "angles_deg must be a vector of length >= 1, got shape (0,)"
    got = _message(angle_vector, "theta", [])
    assert got == "theta must be a vector of length >= 1, got shape (0,)"
    for key in ("theta_u", "theta_v"):
        want = f"{key} must be a vector of length 3, got shape (2,)"
        assert _scenario_paths(key, tuple(short)) == want
        assert _bench_file_message(tmp_path, capsys, **{key: short}) == want
        assert _scenario_paths(key, None) == BOTH_OR_NULL
    matrix = _matrix_file(tmp_path, 6)
    for key in ("theta_u", "theta_v"):
        option = "--" + key.replace("_", "-")
        got = _cli_message(capsys, "recover", "--matrix", matrix, "--rank", "1", option, "3,4")
        assert got == f"{key} must be a vector of length 1, got shape (2,)"


def test_prior_room_has_one_message_per_path(tmp_path, capsys):
    # linalg.require_prior_room owns n >= 2r. It had three messages: the
    # Scenario's "rank must lie in [1, 15] to build priors", perturb_subspace's
    # "ambient dimension 5 too small to rotate 3 directions" and
    # build_weight_operator's "... cannot host 3 weighted complement directions".
    rng = np.random.default_rng(0)
    want = "priors of rank 3 need dimension at least 6, got 5"
    small = random_orthonormal(5, 3, rng)
    spec = WeightSpec.per_direction((0.5,) * 3, (0.9,) * 3)
    assert _message(require_prior_room, 5, 3) == want
    assert _message(perturb_subspace, small, [1.0, 2.0, 3.0], rng) == want
    assert _message(build_weight_operator, small, spec, rng=rng) == want
    assert _message(build_weight_operator, small, spec, random_orthonormal(5, 3, rng)) == want
    require_prior_room(6, 3)
    # A single-mode weighting weights the whole complement uniformly, so it
    # has no complement directions to place and needs no room.
    build_weight_operator(small, WeightSpec.single(0.5, 0.9))

    room = "priors of rank 16 need dimension at least 32, got 30"
    assert _scenario_paths("rank", 16) == room
    assert _bench_file_message(tmp_path, capsys, rank=16) == room
    # Without priors the Scenario's own rule, 1 <= rank <= n, is all that applies.
    Scenario(rank=16, theta_u=None, theta_v=None, solvers=("admira",))
    assert _scenario_paths("rank", 0) == "rank must be an integer in [1, 30], got 0"
    matrix = _matrix_file(tmp_path, 6)
    got = _cli_message(capsys, "recover", "--matrix", matrix, "--rank", "4")
    assert got == "priors of rank 4 need dimension at least 8, got 6"
    assert _cli_message(capsys, "rip", "--n", "5") == want


def test_per_direction_weight_count_has_one_message_per_path(tmp_path, capsys):
    # WeightSpec.require_rank owns the count and takes the name its message
    # gives, so a scenario file's error names the field.
    short = WeightSpec.per_direction((0.2, 0.2), (0.9, 0.9))
    assert _message(short.require_rank, 3) == "weight spec carries 2 per-direction weights for rank 3"
    short.require_rank(2)
    WeightSpec.single(0.2, 0.9).require_rank(3)
    prior = random_orthonormal(10, 3, np.random.default_rng(0))
    got = _message(build_weight_operator, prior, short, rng=0)
    assert got == "weight spec carries 2 per-direction weights for rank 3"
    for key in ("grmspi_weights_u", "grmspi_weights_v"):
        want = f"{key} carries 2 per-direction weights for rank 3"
        assert _scenario_paths(key, short) == want
        assert _bench_file_message(tmp_path, capsys, **{key: dataclasses.asdict(short)}) == want


def test_solve_weighting_must_be_a_pair_of_weight_operators():
    # SolverConfig owns the rule. Each of these was accepted and then failed
    # inside iterate with a TypeError, an AttributeError or an unpacking
    # ValueError.
    q = build_weight_operator(random_orthonormal(6, 2, np.random.default_rng(0)),
                              WeightSpec.single(0.5, 0.9))
    rule = "weighting must be None or a (Qu, Qv) pair of WeightOperator, got "
    cases = {
        "WeightOperator": q,
        "str": "rmspi",
        "(WeightOperator)": (q,),
        "(WeightOperator, WeightOperator, WeightOperator)": (q, q, q),
        "(ndarray, ndarray)": (q.q_inv, q.q_inv),
        "(NoneType, WeightOperator)": (None, q),
    }
    config = SolverConfig(rank=2)
    for got, weighting in cases.items():
        assert _message(SolverConfig, rank=2, weighting=weighting) == rule + got
        assert _message(dataclasses.replace, config, weighting=weighting) == rule + got
    for weighting in (None, (q, q), [q, q]):
        assert SolverConfig(rank=2, weighting=weighting).weighting is weighting


def test_angle_vector_keeps_the_bounds_and_the_values():
    angles = angle_vector("theta", (0, 45.5, 90), 3)
    assert angles.dtype == float and angles.tolist() == [0.0, 45.5, 90.0]
    for bad in (np.inf, -np.inf, np.nextafter(90.0, 91.0), -0.0 - 1e-300):
        assert _message(angle_vector, "theta", [bad]) == RANGE


@pytest.mark.parametrize("bad", [None, 5.0, [[1.0, 2.0], [3.0, 4.0]]], ids=["none", "scalar", "2d"])
def test_prior_angles_without_a_count_must_be_a_vector(tmp_path, capsys, bad):
    # angle_vector owns the shape; the Scenario reads its angle fields as
    # lists of numbers first, so there the field's own rule speaks.
    shape = np.shape(np.asarray(bad, dtype=float))
    for mode in (SINGLE, PER_DIRECTION):
        got = _message(angles_to_weights, bad, mode)
        assert got == f"angles_deg must be a vector of length >= 1, got shape {shape}"
    basis = random_orthonormal(10, 2, np.random.default_rng(0))
    got = _message(perturb_subspace, basis, bad, 0)
    assert got == f"target_angles_deg must be a vector of length 2, got shape {shape}"
    if bad is None:
        # A null theta_v beside a set theta_u breaks the both-or-null rule.
        assert _message(Scenario, theta_v=bad) == BOTH_OR_NULL
        assert _bench_file_message(tmp_path, capsys, theta_v=bad) == BOTH_OR_NULL
        return
    want = f"theta_v must be a list of numbers, got {bad!r}"
    assert _message(Scenario, theta_v=bad) == want
    assert _bench_file_message(tmp_path, capsys, theta_v=bad) == want


@pytest.mark.parametrize(
    "key, spec, want",
    [
        ("rmspi_weights_u", WeightSpec.per_direction((0.17, 0.19, 0.21), (0.99, 0.98, 0.97)),
         "rmspi_weights_u must be a single weight spec, got per_direction"),
        ("grmspi_weights_v", WeightSpec.single(0.18, 0.999),
         "grmspi_weights_v must be a per_direction weight spec, got single"),
    ],
    ids=["rmspi", "grmspi"],
)
def test_weight_spec_must_match_its_solver_mode(tmp_path, capsys, key, spec, want):
    preset = bench.builtin_presets()["close_close"]
    cfg = dict(dataclasses.asdict(preset), **{key: dataclasses.asdict(spec)})
    assert _message(Scenario, **{key: spec}) == want
    assert _message(dataclasses.replace, preset, **{key: spec}) == want
    assert _message(Scenario.from_config, cfg) == want
    assert _bench_file_message(tmp_path, capsys, **{key: dataclasses.asdict(spec)}) == want


def test_unknown_solver_has_one_message():
    preset = bench.builtin_presets()["close_close"]
    want = "unknown solver 'sdp'"
    assert _message(Scenario, solvers=("admira", "sdp")) == want
    assert _message(bench.prior_weighting, preset, "sdp", None, None) == want
    assert _message(bench.weighting_mode, "sdp") == want


def test_solver_table_drives_the_ids_the_fields_and_the_weighting():
    assert SOLVER_MODES == {"admira": None, "rmspi": SINGLE, "grmspi": PER_DIRECTION}
    assert SOLVER_IDS == ("admira", "rmspi", "grmspi")
    assert WEIGHT_FIELDS == (
        "rmspi_weights_u", "rmspi_weights_v", "grmspi_weights_u", "grmspi_weights_v"
    )
    assert set(WEIGHT_FIELDS) <= {f.name for f in dataclasses.fields(Scenario)}
    # Without explicit specs each weighted solver derives its table's mode
    # from the prior angles.
    scenario = dataclasses.replace(
        bench.builtin_presets()["close_close"], **dict.fromkeys(WEIGHT_FIELDS)
    )
    inst = bench.generate_instance(scenario, 0.6, 0)
    for solver, mode in SOLVER_MODES.items():
        got = bench.prior_weighting(
            scenario, solver, inst.prior_u, inst.prior_v, inst.truth_u, inst.truth_v
        )
        if mode is None:
            assert got is None
            continue
        sides = ((inst.prior_u, scenario.theta_u, inst.truth_u),
                 (inst.prior_v, scenario.theta_v, inst.truth_v))
        for op, (prior, theta, reference) in zip(got, sides):
            want = build_weight_operator(prior, angles_to_weights(theta, mode), reference)
            assert np.array_equal(op.q, want.q) and np.array_equal(op.q_inv, want.q_inv)
            assert (op.weighted_complement is None) == (mode == SINGLE)


def test_unknown_weighting_mode_has_one_message():
    want = "unknown weighting mode 'both'"
    assert _message(WeightSpec, "both", 0.5, 0.5) == want
    assert _message(angles_to_weights, [2.0, 3.0], "both") == want
    cfg = {"mode": "both", "span_weights": 0.5, "complement_weights": 0.5}
    assert _message(WeightSpec.from_config, cfg) == want


def test_unknown_operator_kind_has_one_message(tmp_path, capsys):
    want = "unknown operator kind 'identity'"
    assert _message(known_kind, "identity") == want
    assert _message(Scenario, operator_kind="identity") == want
    assert _message(bench.make_operator, "identity", 3, 4, 0) == want
    assert _message(MeasurementOperator, "identity", 3, 9, mats=np.zeros((9, 3, 3))) == want
    assert _bench_file_message(tmp_path, capsys, operator_kind="identity") == want


@pytest.mark.parametrize(
    "bad", [2.5, np.float64(2.0), True, "2"], ids=["float", "np-float", "bool", "str"]
)
def test_integer_fields_have_one_message(tmp_path, capsys, bad):
    # linalg.require_int owns the rule. A SolverConfig that skipped it
    # took rank 2.5 and np.float64(2.0), whose solve then failed inside the
    # loop with "slice indices must be integers", and ran rank True as 1.
    assert _message(SolverConfig, rank=bad) == f"rank must be an integer >= 1, got {bad!r}"
    want = f"rank must be an integer in [1, 30], got {bad!r}"
    assert _message(Scenario, rank=bad) == want
    assert _message(bench.resolve_threads, bad) == f"threads must be an integer >= 1, got {bad!r}"
    if not isinstance(bad, np.generic):
        assert _bench_file_message(tmp_path, capsys, rank=bad) == want


def test_require_int_takes_inclusive_bounds():
    for value, lo, hi in ((1, 1, 3), (3, 1, 3), (np.int64(0), 0, None), (10**20, 0, None)):
        got = require_int("k", value, lo, hi)
        assert got == value and type(got) is int
    assert _message(require_int, "k", 4, 1, 3) == "k must be an integer in [1, 3], got 4"
    assert _message(require_int, "k", 0, 1, 3) == "k must be an integer in [1, 3], got 0"
    assert _message(require_int, "k", -1, 0) == "k must be an integer >= 0, got -1"
    got = _message(require_int, "k", np.bool_(True), 0)
    assert got == f"k must be an integer >= 0, got {np.bool_(True)!r}"


def test_rank_bound_has_one_message_per_path(tmp_path, capsys):
    # rank in [1, n] had five messages: the Scenario's "rank must lie in
    # [1, 30]", SolverConfig's "rank must be at least 1", the loop's "rank 31
    # exceeds matrix dimension 30", random_orthonormal's "cannot fit 4
    # orthonormal columns in dimension 3" (which took rank 0) and rip_survey's
    # "sample rank 0 outside [1, 30]" (which took rank 2.5).
    want = "rank must be an integer in [1, 30], got 31"
    assert _scenario_paths("rank", 31) == want
    no_priors = {"theta_u": None, "theta_v": None, "solvers": ["admira"]}
    assert _message(Scenario, rank=31, **no_priors) == want
    assert _bench_file_message(tmp_path, capsys, rank=31, **no_priors) == want
    assert _message(random_orthonormal, 30, 31, 0) == want
    assert _message(random_orthonormal, 3, 0, 0) == "rank must be an integer in [1, 3], got 0"
    op = make_gaussian(6, 12, 0)
    got = _message(solve, op, np.ones(12), SolverConfig(rank=7))
    assert got == "rank must be an integer in [1, 6], got 7"
    assert _message(SolverConfig, rank=0) == "rank must be an integer >= 1, got 0"
    matrix = _matrix_file(tmp_path, 6)
    got = _cli_message(capsys, "recover", "--matrix", matrix, "--rank", "7")
    assert got == "rank must be an integer in [1, 6], got 7"
    preset = bench.builtin_presets()["close_close"]
    for rank in (0, 31, 2.5):
        want = f"sample rank must be an integer in [1, 30], got {rank!r}"
        assert _message(bench.rip_survey, preset, [1, rank], 3) == want
    got = _cli_message(capsys, "rip", "--ranks", "1,31", "--samples", "3")
    assert got == "sample rank must be an integer in [1, 30], got 31"


@pytest.mark.parametrize(
    "key, value, want, options",
    [
        ("n", 0, "n must be an integer >= 1, got 0", [("rip", "--n")]),
        ("trials", 0, "trials must be an integer >= 1, got 0", [("bench", "--trials")]),
        ("master_seed", -1, "master_seed must be an integer >= 0, got -1",
         [("bench", "--seed"), ("rip", "--seed")]),
    ],
    ids=["n", "trials", "master_seed"],
)
def test_scenario_integer_bounds_have_one_message_per_path(tmp_path, capsys, key, value, want,
                                                           options):
    assert _scenario_paths(key, value) == want
    assert _bench_file_message(tmp_path, capsys, **{key: value}) == want
    for command, option in options:
        args = ["--preset", "close_close"] if command == "bench" else ["--ranks", "1"]
        assert _cli_message(capsys, command, *args, option, str(value)) == want


def test_pool_size_bound_has_one_message_per_path(tmp_path, capsys):
    want = "threads must be an integer >= 1, got 0"
    assert _message(bench.resolve_threads, 0) == want
    assert _message(bench.run_grid, bench.builtin_presets()["close_close"], threads=0) == want
    out = tmp_path / "report.json"
    assert _cli_message(capsys, "bench", "--preset", "close_close", "--threads", "0",
                        "--out", str(out)) == want
    assert not out.exists()


def test_trial_index_must_be_an_integer_of_at_least_zero(capsys):
    # The cell's seed key took int(trial_index): trial 1.5 drew trial 1's
    # truth and operator and reported its row as trial 1.5, and trial -1
    # failed inside numpy's seeding.
    preset = bench.builtin_presets()["close_close"]
    for bad in (1.5, -1, True):
        want = f"trial_index must be an integer >= 0, got {bad!r}"
        assert _message(bench.generate_instance, preset, 0.6, bad) == want
    got = _cli_message(capsys, "recover", "--trial", "-1")
    assert got == "trial_index must be an integer >= 0, got -1"


def test_measurement_count_bounds_have_one_message_per_path():
    # A Gaussian operator of p = 0 was accepted when built directly.
    want = "p must be an integer >= 1, got 0"
    assert _message(MeasurementOperator, GAUSSIAN, 5, 0, mats=np.zeros((0, 5, 5))) == want
    assert _message(make_gaussian, 5, 0, 0) == want
    assert _message(bench.make_operator, "gaussian", 5, 0, 0) == want
    got = _message(MeasurementOperator, GAUSSIAN, 0, 1, mats=np.zeros((1, 0, 0)))
    assert got == "n must be an integer >= 1, got 0"
    for p in (0, 10, 2.0):
        want = f"p must be an integer in [1, 9], got {p!r}"
        assert _message(make_completion, 3, p, 0) == want
        assert _message(bench.make_operator, "completion", 3, p, 0) == want


def test_survey_sample_count_has_one_message_per_path(capsys):
    # rip_survey(samples=2.5) raised a TypeError from range().
    preset = bench.builtin_presets()["close_close"]
    for samples in (0, 2.5):
        want = f"samples must be an integer >= 1, got {samples!r}"
        assert _message(bench.rip_survey, preset, [1], samples) == want
    got = _cli_message(capsys, "rip", "--ranks", "1", "--samples", "0")
    assert got == "samples must be an integer >= 1, got 0"


def _truth_message(scenario, truth):
    return _message(bench.instance_from_truth, scenario, truth, None, None, 0.6, 0, (0,))


def test_truth_rule_has_one_message_per_path(tmp_path, capsys):
    # bench.instance_from_truth owns the rule, before any sensing or SVD. A
    # zero truth was sensed, and the row's SNR then raised "reference matrix
    # is zero" outside run_trial's guard, which aborted run_grid.
    scenario = Scenario(n=6, rank=1, theta_u=(5.0,), theta_v=(5.0,), solvers=("admira",))
    good = np.outer(np.arange(1.0, 7.0), np.ones(6))
    inst = bench.instance_from_truth(scenario, good, None, None, 0.6, 0, (0,))
    assert np.array_equal(inst.truth, good) and inst.truth_u.shape == (6, 1)
    zero = "truth must be a nonzero 6 x 6 matrix, got shape (6, 6) and norm 0"
    wide = np.ones((4, 6))
    assert _truth_message(scenario, np.zeros((6, 6))) == zero
    assert _truth_message(scenario, wide) == (
        "truth must be a nonzero 6 x 6 matrix, got shape (4, 6) and norm 4.89898"
    )
    assert _truth_message(scenario, np.ones(36)) == "expected a 2-d array, got shape (36,)"
    nan = good.copy()
    nan[2, 3] = np.nan
    assert _truth_message(scenario, nan) == "array must not contain infs or NaNs"

    for matrix, want in (
        (np.zeros((6, 6)), zero),
        (wide, "truth must be a nonzero 6 x 6 matrix, got shape (4, 6) and norm 4.89898"),
        (wide.T, "truth must be a nonzero 6 x 6 matrix, got shape (6, 4) and norm 4.89898"),
        (np.ones((1, 6)),
         "truth must be a nonzero 6 x 6 matrix, got shape (1, 6) and norm 2.44949"),
        (nan, "array must not contain infs or NaNs"),
    ):
        path = tmp_path / "matrix.csv"
        rows, cols = matrix.shape
        np.savetxt(path, matrix, delimiter=",", header=f"{rows},{cols}", comments="")
        got = _cli_message(capsys, "recover", "--matrix", str(path), "--rank", "1")
        assert got == f"matrix file {path}: {want}"


def test_solver_config_stores_a_numpy_integer_rank_as_an_int():
    config = SolverConfig(rank=np.int64(2))
    assert config.rank == 2 and type(config.rank) is int


SHEAR = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("distortion", [2.0 * np.eye(3), SHEAR], ids=["scaled", "sheared"])
def test_orthonormal_basis_rule_has_one_message(distortion):
    # linalg.orthonormal_basis owns the rule. Without it perturb_subspace(2 u,
    # [10, 20, 30]) returned a basis that was not orthonormal, at 1.30, 3.98
    # and 15.60 degrees from u, and principal_angles(2 u, u) read 56.3 degrees
    # for one span; the distorted bases below keep the span of u.
    rng = np.random.default_rng(0)
    u = random_orthonormal(10, 3, rng)
    bad = u @ distortion
    messages = {
        "perturb_subspace": _message(perturb_subspace, bad, [10.0, 20.0, 30.0], rng),
        "principal_angles (first)": _message(principal_angles, bad, u),
        "principal_angles (second)": _message(principal_angles, u, bad),
        "build_weight_operator": _message(build_weight_operator, bad, WeightSpec.single(0.5, 0.9)),
    }
    assert set(messages.values()) == {"basis columns are not orthonormal"}, messages


def _choices(parser, command, option):
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (action,) = [a for a in commands.choices[command]._actions if option in a.option_strings]
    return tuple(action.choices)


def test_cli_choices_read_the_tables():
    parser = build_parser()
    assert _choices(parser, "recover", "--solver") == SOLVER_IDS
    assert _choices(parser, "recover", "--kind") == OPERATOR_KINDS
    assert _choices(parser, "rip", "--kind") == OPERATOR_KINDS
    assert OPERATOR_KINDS == ("gaussian", "completion")


@pytest.mark.parametrize(
    "message",
    ["must lie in [0, 90] degrees", "unknown solver", "unknown weighting mode",
     "unknown operator kind", "weight spec, got", "must be a vector of length",
     "must be an integer {bound}, got", "truth must be a nonzero", "columns are not orthonormal",
     "need dimension at least", "per-direction weights for rank", "must both be set, or both null",
     "pair of WeightOperator, got"],
)
def test_each_setup_rule_is_written_once(message):
    sites = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if message in line
    ]
    assert len(sites) == 1, sites
