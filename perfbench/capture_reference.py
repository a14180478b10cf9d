"""Capture the reference results the benchmark's correctness gate compares with.

    PYTHONPATH=src python3 perfbench/capture_reference.py

Writes perfbench/reference.json with, for every workload that owns a
reference: the gate grid (one trial per ratio at the preset seed) as per-trial
rows and aggregates, and the aggregates of the quality chunks of workload
seeds 0..SEEDS-1. Run it only on a commit whose results are known to be
right; the file in the repository was captured at the commit that added the
benchmark, before any optimisation.
"""

import json
import os
import subprocess
from dataclasses import asdict

from subrec import bench
from workloads import GATE_SEED, WORKLOADS, chunk_seed, scenario
from worker import HERE, trial_fields

# Quality chunks of workload seeds 0..SEEDS-1 are stored.
SEEDS = 16


def capture(name):
    spec = WORKLOADS[name]
    gate = bench.run_grid(scenario(name, GATE_SEED, 1), threads=1)
    chunks = {}
    for seed in range(SEEDS):
        for k in range(spec["quality_chunks"]):
            sc = scenario(name, chunk_seed(seed, k), spec["chunk_trials"])
            report = bench.run_grid(sc, threads=1)
            chunks[str(sc.master_seed)] = [asdict(a) for a in report.aggregates]
    return {
        "gate_trials": [trial_fields(row) for row in gate.trials],
        "gate_aggregates": [asdict(a) for a in gate.aggregates],
        "chunks": chunks,
    }


def main():
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=HERE).stdout.strip()
    out = {"commit": commit, "seeds": SEEDS}
    for name in sorted({spec["reference"] for spec in WORKLOADS.values()}):
        out[name] = capture(name)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
