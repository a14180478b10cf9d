"""The benchmark's workloads: which scenario each runs, how it is chunked.

Every workload is a closed-loop grid in one process: `subrec.bench.run_grid`
starts a trial only when the previous trial on its worker has returned. The
timed phase calls `run_grid` once per chunk; chunk k of a run with workload
seed s uses master seed ``s + k * CHUNK_SEED_STRIDE``, so the inputs depend
only on the seed and every chunk sees fresh instances.

This module imports `subrec` only inside `scenario`, so the orchestrator can
read the table without numpy.
"""

CHUNK_SEED_STRIDE = 2**32

# The correctness gate runs every workload at the preset's own master seed.
GATE_SEED = 1

# preset: built-in scenario the workload starts from; overrides: Scenario
# fields changed on top of it; threads: trial pool size passed to run_grid;
# chunk_trials: trials per ratio in one timed chunk; quality_chunks: the
# leading chunks that success rate and SNR are computed over (always run, so
# those metrics depend on the seed only; the traced run repeats chunk 0);
# reference: the workload whose stored reference results this one must match.
WORKLOADS = {
    "gauss_n30": dict(
        preset="close_close",
        overrides={},
        threads=1,
        chunk_trials=2,
        quality_chunks=6,
        reference="gauss_n30",
    ),
    "completion_n30": dict(
        preset="close_close_completion",
        overrides={},
        threads=1,
        chunk_trials=2,
        quality_chunks=6,
        reference="completion_n30",
    ),
    "gauss_n80": dict(
        preset="close_close",
        overrides={"n": 80, "sampling_ratios": (0.4,)},
        threads=1,
        chunk_trials=1,
        quality_chunks=3,
        reference="gauss_n80",
    ),
    "gauss_n30_pool2": dict(
        preset="close_close",
        overrides={},
        threads=2,
        chunk_trials=2,
        quality_chunks=6,
        reference="gauss_n30",
    ),
}


def chunk_seed(seed, k):
    return seed + k * CHUNK_SEED_STRIDE


def scenario(name, master_seed, trials):
    """The workload's Scenario at one master seed and trial count."""
    from dataclasses import replace

    from subrec import bench

    spec = WORKLOADS[name]
    base = bench.builtin_presets()[spec["preset"]]
    return replace(base, **spec["overrides"], master_seed=master_seed, trials=trials)
