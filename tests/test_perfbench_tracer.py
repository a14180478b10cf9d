"""Guard for perfbench's tracer: the library names it patches must stay patchable.

The tracer replaces module and class attributes of subrec for the length of a
``with`` block, so a refactor that removes one of them, or calls it through a
local alias, breaks ``perfbench/run.py --trace 1`` or silently drops its spans.
These tests load ``perfbench/tracer.py`` from the checkout and change nothing
under ``perfbench/``.
"""

import importlib.util
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from subrec import bench

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # No bytecode cache is written next to the benchmark's sources.
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _untimed(rows):
    return [replace(row, wall_time=0.0) for row in rows]


def test_every_traced_name_is_an_attribute_of_its_owner(tracer):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracer.TARGETS
               if attr not in owner.__dict__]
    assert missing == []


def test_a_traced_grid_gives_the_untraced_rows_and_the_loop_spans(tracer):
    scenario = replace(bench.builtin_presets()["close_close"], sampling_ratios=(0.6,), trials=1)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracer.TARGETS]
    untraced = bench.run_grid(scenario).trials
    with tracer.Tracer() as traced:
        rows = bench.run_grid(scenario).trials
    assert _untimed(rows) == _untimed(untraced)

    spans = {span["id"]: span for span in traced.spans}
    counts = Counter(span["name"] for span in traced.spans)
    iterations = sum(row.iterations_run for row in rows)
    assert counts["solve"] == len(scenario.solvers)
    # Each iteration correlates once and solves least squares once on a
    # merged support, which is never empty before a residual of zero.
    assert counts["identify_support"] == counts["least_squares_on_support"] == iterations
    for span in traced.spans:
        if span["name"] in ("identify_support", "least_squares_on_support"):
            assert spans[span["parent"]]["name"] == "solve"

    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} was not restored"
