"""One process of the benchmark; `run.py` starts it and reads its last line.

    python3 worker.py setup   WORKLOAD SEED SECONDS SRC OUT_DIR
    python3 worker.py measure WORKLOAD SEED SECONDS SRC OUT_DIR
    python3 worker.py trace   WORKLOAD SEED SECONDS SRC OUT_DIR

Every mode first imports `subrec` from SRC, builds the workload and runs one
warm-up cell; the time from process start to the end of that cell is the
set-up time. `setup` stops there. `measure` then runs the correctness gate and
the untraced timed phase; `trace` runs the gate and alternates untraced and
traced passes over chunk 0. Each prints one JSON object as its last line.
"""

import time

PROCESS_START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, replace  # noqa: E402

# Mean SNR of a (solver, ratio) cell may differ from the stored reference by
# this many dB; success rates and iteration counts must match exactly.
SNR_TOLERANCE_DB = 0.1

HERE = os.path.dirname(os.path.abspath(__file__))


def trial_fields(row):
    """A trial row without its wall time: what must repeat bit for bit."""
    fields = asdict(row)
    del fields["wall_time"]
    return fields


def _snr_close(a, b):
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= SNR_TOLERANCE_DB


def compare_aggregates(label, aggregates, reference):
    """Mismatches between run_grid aggregates and their stored reference."""
    got = [asdict(a) for a in aggregates]
    if len(got) != len(reference):
        return [f"{label}: {len(got)} aggregate rows, reference has {len(reference)}"]
    problems = []
    for row, ref in zip(got, reference):
        where = f"{label} {row['solver']} ratio {row['ratio']:g}"
        for key in ("solver", "ratio", "success_rate", "median_iterations", "trials"):
            if row[key] != ref[key]:
                problems.append(f"{where}: {key} {row[key]} != reference {ref[key]}")
        if not _snr_close(row["mean_snr_db"], ref["mean_snr_db"]):
            problems.append(f"{where}: mean_snr_db {row['mean_snr_db']} != reference "
                            f"{ref['mean_snr_db']} within {SNR_TOLERANCE_DB} dB")
    return problems


def compare_trials(label, rows, reference):
    """Mismatches between trial rows and the reference rows of the same trials."""
    refs = {(r["solver"], r["ratio"], r["trial_index"]): r for r in reference}
    problems = []
    for row in rows:
        where = f"{label} {row.solver} ratio {row.ratio:g} trial {row.trial_index}"
        ref = refs.get((row.solver, row.ratio, row.trial_index))
        if ref is None:
            problems.append(f"{where}: no reference row")
            continue
        fields = trial_fields(row)
        for key in ("success", "iterations_to_success", "iterations_run", "stop_reason"):
            if fields[key] != ref[key]:
                problems.append(f"{where}: {key} {fields[key]} != reference {ref[key]}")
        if not _snr_close(fields["snr_db"], ref["snr_db"]):
            problems.append(f"{where}: snr_db {fields['snr_db']} != reference {ref['snr_db']}")
    return problems


def is_failed(row):
    return row.stop_reason == "error" or not math.isfinite(row.normalized_error)


def environment(np, scipy):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def main(argv):
    mode, name, seed, seconds, src, out_dir = argv
    seed, seconds = int(seed), float(seconds)
    import numpy as np
    import scipy

    import subrec
    from subrec import bench

    if not os.path.abspath(subrec.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"worker: imported subrec from {subrec.__file__}, expected it under {src}")

    from workloads import GATE_SEED, WORKLOADS, chunk_seed, scenario

    spec = WORKLOADS[name]
    threads = spec["threads"]

    # Set-up: import, scenario, one warm-up cell (the gate's first cell). The
    # reference is read only after the clock stops: parsing it is the
    # benchmark's work, not the library's.
    gate = scenario(name, GATE_SEED, 1)
    first = replace(gate, sampling_ratios=gate.sampling_ratios[:1])
    warm = bench.run_grid(first, threads=threads)
    setup_s = time.perf_counter() - PROCESS_START
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[spec["reference"]]
    problems = compare_trials("warm-up", warm.trials, reference["gate_trials"])
    result = {"setup_s": setup_s, "problems": problems, "env": environment(np, scipy)}
    if mode == "setup":
        print(json.dumps(result))
        return

    # Correctness gate: one trial per ratio at the preset seed, compared with
    # the reference captured at the seed commit. A pooled workload must also
    # reproduce the serial rows bit for bit.
    gate_rows = list(warm.trials)
    gate_aggs = list(warm.aggregates)
    if len(gate.sampling_ratios) > 1:
        rest = bench.run_grid(replace(gate, sampling_ratios=gate.sampling_ratios[1:]),
                              threads=threads)
        gate_rows += rest.trials
        gate_aggs += rest.aggregates
    order = {(s, r): i for i, (s, r) in enumerate(
        (s, r) for s in gate.solvers for r in gate.sampling_ratios)}
    gate_rows.sort(key=lambda row: order[(row.solver, row.ratio)])
    gate_aggs.sort(key=lambda a: order[(a.solver, a.ratio)])
    problems += compare_trials("gate", gate_rows, reference["gate_trials"])
    if len(gate_rows) != len(reference["gate_trials"]):
        problems.append(f"gate: {len(gate_rows)} rows, reference has {len(reference['gate_trials'])}")
    problems += compare_aggregates("gate", gate_aggs, reference["gate_aggregates"])
    if threads > 1:
        serial = bench.run_grid(gate, threads=1)
        if [trial_fields(r) for r in serial.trials] != [trial_fields(r) for r in gate_rows]:
            problems.append(f"gate: threads={threads} rows differ from the serial rows")

    chunk_refs = reference["chunks"]
    result["reference_chunks"] = 0

    def run_chunk(k):
        sc = scenario(name, chunk_seed(seed, k), spec["chunk_trials"])
        start = time.perf_counter()
        report = bench.run_grid(sc, threads=threads)
        wall = time.perf_counter() - start
        ref = chunk_refs.get(str(sc.master_seed))
        if ref is not None:
            result["reference_chunks"] += 1
            problems.extend(compare_aggregates(f"seed {sc.master_seed}", report.aggregates, ref))
        return report, wall

    if mode == "measure":
        result.update(timed_phase(run_chunk, spec, seconds, problems))
    else:
        spans_path = os.path.join(out_dir, f"{name}-seed{seed}.spans.jsonl")
        result.update(traced_phase(run_chunk, threads, seconds, spans_path, problems))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


def timed_phase(run_chunk, spec, seconds, problems):
    """Run chunks until `seconds` have passed and the quality chunks are done."""
    rows, walls, quality_rows = [], [], []
    start = time.perf_counter()
    k = 0
    while k < spec["quality_chunks"] or time.perf_counter() - start < seconds:
        report, wall = run_chunk(k)
        rows += report.trials
        walls.append(wall)
        if k < spec["quality_chunks"]:
            quality_rows += report.trials
        k += 1
    snrs = [row.snr_db for row in quality_rows if row.success and math.isfinite(row.snr_db)]
    if not snrs:
        problems.append("no successful trial in the quality chunks")
    solvers = sorted({row.solver for row in quality_rows})
    return {
        "rows": len(rows),
        "failed": sum(map(is_failed, rows)),
        "chunk_walls_s": walls,
        "solve_ms": [1000.0 * row.wall_time for row in rows],
        "success_rate": {
            s: sum(row.success for row in quality_rows if row.solver == s)
            / sum(row.solver == s for row in quality_rows)
            for s in solvers
        },
        "success_by_ratio": {
            f"{s}@{ratio:g}": statistics.fmean(
                row.success for row in quality_rows if row.solver == s and row.ratio == ratio)
            for s in solvers
            for ratio in sorted({row.ratio for row in quality_rows})
        },
        "mean_snr_db": statistics.fmean(snrs) if snrs else 0.0,
        "quality_trials": [trial_fields(row) for row in quality_rows],
    }


def traced_phase(run_chunk, threads, seconds, spans_path, problems):
    """Alternate untraced and traced passes over chunk 0 until `seconds` pass."""
    import tracer
    from metrics import EXACT

    def traced_chunk():
        with tracer.Tracer() as tr:
            report, wall = run_chunk(0)
        return tr, report, wall

    passes, overheads, breakdown, rows, tracers = [], [], {}, [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        if i % 2 == 0:
            plain, plain_wall = run_chunk(0)
            tr, traced, traced_wall = traced_chunk()
        else:
            tr, traced, traced_wall = traced_chunk()
            plain, plain_wall = run_chunk(0)
        rows += plain.trials + traced.trials
        if list(map(trial_fields, traced.trials)) != list(map(trial_fields, plain.trials)):
            problems.append(f"pass {i}: traced rows differ from untraced rows")
        passes.append(tracer.pass_metrics(tr.spans, threads, traced_wall))
        overheads.append(traced_wall / plain_wall - 1.0)
        for key, value in tracer.self_time_breakdown(tr.spans).items():
            breakdown[key] = breakdown.get(key, 0.0) + value
        tracers.append(tr)
        i += 1
    with open(spans_path, "w", encoding="utf-8") as spans_out:
        for run_pass, tr in enumerate(tracers):
            tr.write_jsonl(spans_out, run_pass=run_pass)
    metrics = {"trace.overhead_frac": statistics.median(overheads)}
    for key in passes[0]:
        values = [p[key] for p in passes]
        if key in EXACT:
            if any(v != values[0] for v in values):
                problems.append(f"{key} differs between passes over the same inputs: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    return {
        "passes": i,
        "rows": len(rows),
        "failed": sum(map(is_failed, rows)),
        "layer_metrics": metrics,
        "self_time_s": {k: v / i for k, v in breakdown.items()},
        "spans_file": os.path.relpath(spans_path, os.path.dirname(HERE)),
    }


if __name__ == "__main__":
    main(sys.argv[1:])
