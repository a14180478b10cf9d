"""The benchmark's own check, on a held-out seed.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists the metrics the command prints, then runs
the command for every workload on HELD_OUT_SEED for BENCHMARK.json's
run_seconds. That seed lies outside the seeds the benchmark was tuned on
(1-20) and those captured in reference.json (0-15), so the checks run on
inputs the benchmark never saw. Every run must pass its correctness gate with
no failed trial, and gauss_n30_pool2's quality-chunk trial rows must equal
gauss_n30's bit for bit (the thread invariance README promises). Then one
traced run of gauss_n30 must pass as well. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Outside the tuning seeds (1-20) and the reference seeds (0-15).
HELD_OUT_SEED = 21

sys.path.insert(0, HERE)
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        sys.exit(f"selftest: {workload} trace {trace} exited with {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"selftest: {workload} trace {trace} reported {result}")
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_benchmark_json():
    """BENCHMARK.json must list exactly the metrics run.py prints; returns it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    if [(m["name"], m["unit"]) for m in declared["end_to_end"]] != list(END_TO_END):
        sys.exit("selftest: BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] != list(PER_LAYER):
        sys.exit("selftest: BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    return declared


def main():
    seconds = check_benchmark_json()["run_seconds"]
    reports = {name: run(name, HELD_OUT_SEED, seconds, 0) for name in WORKLOADS}
    serial, pooled = reports["gauss_n30"], reports["gauss_n30_pool2"]
    if serial["worker"]["quality_trials"] != pooled["worker"]["quality_trials"]:
        sys.exit("selftest: gauss_n30_pool2 trial rows differ from gauss_n30's")
    run("gauss_n30", HELD_OUT_SEED, seconds, 1)
    print(f"selftest: seed {HELD_OUT_SEED} passed on {', '.join(WORKLOADS)}: gates pass, "
          "thread invariance holds, no failed trial")


if __name__ == "__main__":
    main()
