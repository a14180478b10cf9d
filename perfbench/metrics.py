"""Names, units and directions of the metrics the benchmark reports."""

# End-to-end metrics, measured with tracing off; BENCHMARK.json bounds them.
# The success rates, solve_p90_ms and failed_frac are printed as well but left
# out of this list: a success rate is fixed by the seed and its spread across
# seeds exceeds any usable bound, so the correctness gate checks it exactly
# instead; p90 needs 100 solves, which gauss_n80 cannot reach in one run; and
# failed_frac is 0 whenever the run is correct (it is the result's `failed`).
END_TO_END = (
    ("solves_per_s", "1/s"),
    ("solve_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mean_snr_db", "dB"),
)

# Per-layer metric names with their unit and direction, in report order.
# Counts marked computed are derived from array shapes, not measured, and
# repeat exactly for a given seed.
PER_LAYER = (
    ("solver.solve.s", "s", "lower"),
    ("solver.solve.self_s", "s", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.iterations_per_solve", "count", "lower"),
    ("solver.stop.tolerance", "count", "higher"),
    ("solver.stop.stagnation", "count", "lower"),
    ("solver.stop.max_iter", "count", "lower"),
    ("solver.stop.error", "count", "lower"),
    ("solver.post_success_iter_frac", "fraction", "lower"),
    ("solver.identify_support.s", "s", "lower"),
    ("solver.merge_support.s", "s", "lower"),
    ("solver.ls.calls", "count", "lower"),
    ("solver.ls.s", "s", "lower"),
    ("solver.ls.lstsq_s", "s", "lower"),
    ("solver.ls.design_s", "s", "lower"),
    ("solver.ls.unknowns_mean", "count", "lower"),
    ("solver.ls.flops", "flop", "lower"),
    ("solver.ls.design_bytes", "B", "lower"),
    ("operators.make.calls", "count", "lower"),
    ("operators.make.s", "s", "lower"),
    ("operators.apply.calls", "count", "lower"),
    ("operators.apply.s", "s", "lower"),
    ("operators.adjoint.calls", "count", "lower"),
    ("operators.adjoint.s", "s", "lower"),
    ("operators.payload_bytes", "B", "lower"),
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.svd.support_s", "s", "lower"),
    ("linalg.svd.truncate_s", "s", "lower"),
    ("linalg.orthonormalize.calls", "count", "lower"),
    ("linalg.orthonormalize.s", "s", "lower"),
    ("linalg.perturb_subspace.s", "s", "lower"),
    ("weighting.build.calls", "count", "lower"),
    ("weighting.build.s", "s", "lower"),
    ("bench.generate_instance.calls", "count", "lower"),
    ("bench.generate_instance.s", "s", "lower"),
    ("bench.solver_config.s", "s", "lower"),
    ("bench.run_trial.self_s", "s", "lower"),
    ("bench.pool.busy_frac", "fraction", "higher"),
    ("analysis.snr_db.s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)

# Counts that must repeat exactly between passes over the same inputs.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "flop", "B"))
COMPUTED = ("solver.ls.unknowns_mean", "solver.ls.flops", "solver.ls.design_bytes",
            "operators.payload_bytes")
