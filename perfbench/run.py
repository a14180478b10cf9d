"""Benchmark of subrec's success-rate grids: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src. With
--trace 0 it measures set-up time in fresh processes, then runs the correctness
gate and the untraced timed phase in one more fresh process, and reports the
end-to-end metrics. With --trace 1 it reports the per-layer metrics of a traced
run instead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a readable
table and the environment header. A full report is written to perfbench/out/.
The exit code is 0 when the outputs are correct, 1 when a check failed and 2
when the benchmark could not run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from metrics import COMPUTED, END_TO_END, EXACT, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is measured in this many fresh processes (the timed process is one).
SETUP_RUNS = 3
# Every process must end by then, so that the run ends within 180 s.
DEADLINE_S = 170.0
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SUBREC_THREADS")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_worker(mode, args, deadline):
    """Start one worker process, wait for it, and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, args.workload,
           str(args.seed), str(args.seconds), SRC, OUT]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{mode} process did not finish in time")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"{mode} process exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    # The ceiling stops git from searching above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(worker_env):
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        **worker_env,
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(-(-q * len(ordered) // 100)) - 1))]


def end_to_end(args, deadline):
    setups = [run_worker("setup", args, deadline) for _ in range(SETUP_RUNS - 1)]
    measured = run_worker("measure", args, deadline)
    problems = [p for s in setups for p in s["problems"]] + measured["problems"]
    solve_ms = measured["solve_ms"]
    walls = measured["chunk_walls_s"]
    per_chunk = measured["rows"] / len(walls)
    metrics = {
        "solves_per_s": statistics.median(per_chunk / wall for wall in walls),
        "solve_p50_ms": statistics.median(solve_ms),
        "setup_s": statistics.median([s["setup_s"] for s in setups] + [measured["setup_s"]]),
        "peak_rss_mb": measured["peak_rss_mb"],
        "mean_snr_db": measured["mean_snr_db"],
    }
    lines = [f"{name:<24} {metrics[name]:>14.6g} {unit}" for name, unit in END_TO_END]
    lines.append("not bounded; the gate checks them against the reference seeds:")
    for solver, rate in measured["success_rate"].items():
        lines.append(f"{'success_rate.' + solver:<24} {rate:>14.6g} fraction")
    beyond = len(solve_ms) - -(-9 * len(solve_ms) // 10)
    p90 = f"{percentile(solve_ms, 90):>14.6g}" if beyond >= TAIL_SAMPLES else f"{'n/a':>14}"
    lines.append(f"{'solve_p90_ms':<24} {p90} ms ({len(solve_ms)} solves, {beyond} beyond, "
                 f"reported from {TAIL_SAMPLES})")
    lines.append(f"{'failed_frac':<24} {measured['failed'] / measured['rows']:>14.6g} fraction")
    lines.append(f"chunks run: {len(walls)}, solves: {measured['rows']}, grid wall: "
                 f"{sum(walls):.3f} s, overall {measured['rows'] / sum(walls):.4f} solves/s")
    lines.append("success by solver@ratio (quality chunks): " + ", ".join(
        f"{k}={v:.3g}" for k, v in measured["success_by_ratio"].items()))
    return metrics, measured, problems, lines


def per_layer(args, deadline):
    measured = run_worker("trace", args, deadline)
    problems = measured["problems"]
    metrics = measured["layer_metrics"]
    lines = []
    for name, unit, _ in PER_LAYER:
        label = "computed" if name in COMPUTED else "exact count" if name in EXACT else ""
        lines.append(f"{name:<32} {metrics[name]:>16.6g} {unit:<8} {label}".rstrip())
    self_time = measured["self_time_s"]
    total = sum(self_time.values())
    lines.append(f"self time per traced pass ({measured['passes']} passes, "
                 f"{total:.3f} s traced):")
    for name, seconds in sorted(self_time.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<28} {seconds:>10.4f} s {100 * seconds / total:>6.1f} %")
    lines.append(f"spans: {measured['spans_file']}")
    return metrics, measured, problems, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "subrec", "__init__.py")):
        fail(f"no subrec package under {SRC}; run from the root of a subrec checkout")
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        metrics, measured, problems, lines = per_layer(args, deadline)
    else:
        metrics, measured, problems, lines = end_to_end(args, deadline)
    env = environment(measured["env"])
    correct = not problems and measured["failed"] == 0
    result = {
        "correct": correct,
        "attempted": measured["rows"],
        "failed": measured["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in (PER_LAYER if args.trace else END_TO_END)},
    }
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "problems": problems, "result": result,
              "worker": {k: v for k, v in measured.items() if k != "solve_ms"}}
    report_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("\n".join(lines))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"checked against the reference: gate grid at seed 1 and "
          f"{measured['reference_chunks']} chunk run(s) of this seed")
    print(f"correct: {correct}; report: {os.path.relpath(report_path, ROOT)}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
