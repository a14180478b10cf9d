"""Each rule that builds a trial has one implementation.

The prior-angle range, count and shape, the solver table and the mode of
each solver's weight spec, the weighting modes and the operator kinds are
each checked in one place, so every path that applies a rule raises that
place's message: the library function, the Scenario, and ``subrec bench FILE``.
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
from subrec.linalg import angle_vector, perturb_subspace, random_orthonormal
from subrec.operators import OPERATOR_KINDS, MeasurementOperator, known_kind
from subrec.weighting import (
    PER_DIRECTION,
    SINGLE,
    WeightSpec,
    angles_to_weights,
    build_weight_operator,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "subrec"
RANGE = "prior angles must lie in [0, 90] degrees"
BOTH_OR_NULL = (
    "theta_u and theta_v need one prior angle per rank direction (3 each), "
    "or both null for no priors"
)


def _message(fn, *args, **kwargs):
    with pytest.raises(ValueError) as info:
        fn(*args, **kwargs)
    return str(info.value)


def _bench_file_message(tmp_path, capsys, **overrides):
    """The error `subrec bench FILE` prints for close_close with ``overrides``."""
    cfg = dataclasses.asdict(bench.builtin_presets()["close_close"])
    cfg.update(sampling_ratios=[0.8], trials=1, **overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main(["bench", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("subrec bench: ") and err.endswith("\n")
    return err[len("subrec bench: "):-1]


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


def test_prior_angle_count_has_one_message_per_path(tmp_path, capsys):
    # angle_vector owns the count; the Scenario names both fields, because a
    # null theta and a short one break the same rule there.
    rng = np.random.default_rng(0)
    short = [2.0, 3.0]
    want = "need 3 angles, got shape (2,)"
    assert _message(angle_vector, short, 3) == want
    assert _message(perturb_subspace, random_orthonormal(10, 3, rng), short, rng) == want
    for mode in (SINGLE, PER_DIRECTION):
        assert _message(angles_to_weights, [], mode) == "need at least one angle"
    assert _message(angle_vector, []) == "need at least one angle"
    assert _message(Scenario, theta_v=tuple(short)) == BOTH_OR_NULL
    assert _bench_file_message(tmp_path, capsys, theta_v=short) == BOTH_OR_NULL


def test_angle_vector_keeps_the_bounds_and_the_values():
    angles = angle_vector((0, 45.5, 90), 3)
    assert angles.dtype == float and angles.tolist() == [0.0, 45.5, 90.0]
    for bad in (np.inf, -np.inf, np.nextafter(90.0, 91.0), -0.0 - 1e-300):
        assert _message(angle_vector, [bad]) == RANGE


@pytest.mark.parametrize("bad", [None, 5.0, [[1.0, 2.0], [3.0, 4.0]]], ids=["none", "scalar", "2d"])
def test_prior_angles_without_a_count_must_be_a_vector(tmp_path, capsys, bad):
    # angle_vector owns the shape; the Scenario reads its angle fields as
    # lists of numbers first, so there the field's own rule speaks.
    shape = np.shape(np.asarray(bad, dtype=float))
    for mode in (SINGLE, PER_DIRECTION):
        assert _message(angles_to_weights, bad, mode) == f"need a vector of angles, got shape {shape}"
    basis = random_orthonormal(10, 2, np.random.default_rng(0))
    assert _message(perturb_subspace, basis, bad, 0) == f"need 2 angles, got shape {shape}"
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
     "unknown operator kind", "weight spec, got", "angles, got shape"],
)
def test_each_setup_rule_is_written_once(message):
    sites = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if message in line
    ]
    assert len(sites) == 1, sites
