"""Span tracing installed from outside the library, and per-layer metrics.

`Tracer` replaces public functions of `subrec` (and `numpy.linalg.lstsq`)
with `perf_counter` wrappers for the duration of a `with` block and restores
the originals on exit. The library resolves these names at call time
(`run_grid` calls `bench.generate_instance`, `solve` calls `linalg.svd`, ...),
so patching the attributes catches every call. Spans stay in memory; a
layer's self time is its duration minus the durations of its child spans.
"""

import itertools
import json
import statistics
import threading
import time

import numpy as np

from subrec import analysis, bench, linalg, solver
from subrec.operators import COMPLETION, MeasurementOperator

ROOT_SPANS = ("generate_instance", "run_trial")
MAKERS = ("make_gaussian", "make_completion")


def _cell_of(args):
    scenario, ratio, trial_index = args[:3]
    return f"{scenario.master_seed}/{ratio:g}/{trial_index}"


def _trial_of(args):
    instance, solver_id = args[:2]
    seed = instance.seed[0]
    return f"{seed}/{instance.ratio:g}/{instance.trial_index}/{solver_id}"


def _payload_bytes(operator):
    """Bytes of the sensing payload: index pairs (completion) or tensor (Gaussian)."""
    return (operator.indices if operator.kind == COMPLETION else operator.mats).nbytes


def _note_ls(args, result):
    op, _, support = args[:3]
    k_u, k_v = support.dims
    return {"p": op.base.p, "k_u": k_u, "k_v": k_v, "payload_bytes": _payload_bytes(op.base)}


def _note_maker(args, result):
    return {"payload_bytes": _payload_bytes(result)}


def _note_trial(args, result):
    return {
        "iterations": result.iterations_run,
        "iterations_to_success": result.iterations_to_success,
        "stop_reason": result.stop_reason,
    }


# (owner, attribute, trial-id function, note function); the span is named
# after the attribute.
TARGETS = (
    (bench, "generate_instance", _cell_of, None),
    (bench, "solver_config", None, None),
    (bench, "run_trial", _trial_of, _note_trial),
    (bench, "solve", None, None),
    (bench, "make_gaussian", None, _note_maker),
    (bench, "make_completion", None, _note_maker),
    (bench, "build_weight_operator", None, None),
    (bench, "perturb_subspace", None, None),
    (solver, "identify_support", None, None),
    (solver, "merge_support", None, None),
    (solver, "least_squares_on_support", None, _note_ls),
    (linalg, "svd", None, None),
    (linalg, "orthonormalize", None, None),
    (MeasurementOperator, "apply", None, None),
    (MeasurementOperator, "adjoint", None, None),
    (np.linalg, "lstsq", None, None),
    (analysis, "snr_db", None, None),
)


class Tracer:
    """Context manager that records one span per call of each target."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def __enter__(self):
        for owner, attr, trial_of, note in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, attr, trial_of, note))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name, trial_of, note):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = {
                "id": next(self._ids),
                "name": name,
                "parent": parent["id"] if parent else None,
                "trial": trial_of(args) if trial_of else (parent["trial"] if parent else None),
                "thread": threading.get_ident(),
            }
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if note is not None:
                span.update(note(args, result))
            return result

        return traced

    def write_jsonl(self, fh, **extra):
        for span in self.spans:
            fh.write(json.dumps({**extra, **span}) + "\n")


def _durations(spans):
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration[s["id"]]
    return duration, child_time


def pass_metrics(spans, threads, wall):
    """Per-layer metrics of one traced pass (all spans of one run_grid call)."""
    duration, child_time = _durations(spans)
    names = {s["id"]: s["name"] for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(duration[s["id"]] for s in by_name.get(name, ()))

    def self_total(name):
        return sum(duration[s["id"]] - child_time.get(s["id"], 0.0) for s in by_name.get(name, ()))

    def calls(*group):
        return sum(len(by_name.get(name, ())) for name in group)

    ls = by_name.get("least_squares_on_support", [])
    trials = by_name.get("run_trial", [])
    iterations = sum(s["iterations"] for s in trials)
    wasted = sum(s["iterations"] - s["iterations_to_success"]
                 for s in trials if s["iterations_to_success"] is not None)
    svd_under = {"identify_support": 0.0, "solve": 0.0}
    for s in by_name.get("svd", ()):
        parent = names.get(s["parent"])
        if parent in svd_under:
            svd_under[parent] += duration[s["id"]]
    busy = sum(duration[s["id"]] for s in spans if s["parent"] is None and s["name"] in ROOT_SPANS)
    stops = [s["stop_reason"] for s in trials]
    return {
        "solver.solve.s": total("solve"),
        "solver.solve.self_s": self_total("solve"),
        "solver.iterations": iterations,
        "solver.iterations_per_solve": iterations / len(trials) if trials else 0.0,
        "solver.stop.tolerance": stops.count("tolerance"),
        "solver.stop.stagnation": stops.count("stagnation"),
        "solver.stop.max_iter": stops.count("max_iter"),
        "solver.stop.error": stops.count("error"),
        "solver.post_success_iter_frac": wasted / iterations if iterations else 0.0,
        "solver.identify_support.s": total("identify_support"),
        "solver.merge_support.s": total("merge_support"),
        "solver.ls.calls": len(ls),
        "solver.ls.s": total("least_squares_on_support"),
        "solver.ls.lstsq_s": total("lstsq"),
        "solver.ls.design_s": self_total("least_squares_on_support"),
        "solver.ls.unknowns_mean": (
            statistics.fmean(s["k_u"] * s["k_v"] for s in ls) if ls else 0.0),
        "solver.ls.flops": sum(s["p"] * (s["k_u"] * s["k_v"]) ** 2 for s in ls),
        "solver.ls.design_bytes": sum(
            s["payload_bytes"] + s["p"] * s["k_u"] * s["k_v"] * 8 for s in ls),
        "operators.make.calls": calls(*MAKERS),
        "operators.make.s": sum(total(name) for name in MAKERS),
        "operators.apply.calls": calls("apply"),
        "operators.apply.s": total("apply"),
        "operators.adjoint.calls": calls("adjoint"),
        "operators.adjoint.s": total("adjoint"),
        "operators.payload_bytes": sum(
            s["payload_bytes"] for name in MAKERS for s in by_name.get(name, ())),
        "linalg.svd.calls": calls("svd"),
        "linalg.svd.support_s": svd_under["identify_support"],
        "linalg.svd.truncate_s": svd_under["solve"],
        "linalg.orthonormalize.calls": calls("orthonormalize"),
        "linalg.orthonormalize.s": total("orthonormalize"),
        "linalg.perturb_subspace.s": total("perturb_subspace"),
        "weighting.build.calls": calls("build_weight_operator"),
        "weighting.build.s": total("build_weight_operator"),
        "bench.generate_instance.calls": calls("generate_instance"),
        "bench.generate_instance.s": total("generate_instance"),
        "bench.solver_config.s": total("solver_config"),
        "bench.run_trial.self_s": self_total("run_trial"),
        "bench.pool.busy_frac": busy / (threads * wall),
        "analysis.snr_db.s": total("snr_db"),
    }


def self_time_breakdown(spans):
    """Self time per span name, summed: a partition of the traced time.

    `svd` is split by its parent (`svd<identify_support`, `svd<solve`).
    """
    duration, child_time = _durations(spans)
    names = {s["id"]: s["name"] for s in spans}
    out = {}
    for s in spans:
        key = s["name"]
        if key == "svd":
            key = f"svd<{names.get(s['parent'])}"
        out[key] = out.get(key, 0.0) + duration[s["id"]] - child_time.get(s["id"], 0.0)
    return out
