"""Experiment harness: scenario presets, seeded trial execution, aggregation.

A Scenario pins every knob of a success-rate study (dimension, rank, operator
kind, sampling ratios, noise, prior angles and weights, trial count, seed).
All randomness in a trial derives from (master_seed, ratio, trial_index), so
reports are reproducible bit for bit and independent of execution order or
thread count.
"""

import json
import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import analysis
from .linalg import perturb_subspace, random_orthonormal, single_blas_thread
from .operators import (
    COMPLETION,
    GAUSSIAN,
    WeightedOperator,
    estimate_rip,
    make_completion,
    make_gaussian,
    make_identity_sensing,
    random_low_rank,
)
from .solver import SolverConfig, solve
from .weighting import PER_DIRECTION, SINGLE, WeightSpec, angles_to_weights, build_weight_operator

# Success criterion: normalized error <= 1e-2 reached within 20 iterations.
SUCCESS_ERROR = 1e-2
SUCCESS_ITERATIONS = 20

SOLVER_IDS = ("admira", "rmspi", "grmspi")
IDENTITY = "identity"
WEIGHT_FIELDS = ("rmspi_weights_u", "rmspi_weights_v", "grmspi_weights_u", "grmspi_weights_v")

# Preset principal angles (degrees, ascending) for the close and far prior
# scenarios; one pair per scenario family.
CLOSE_CLOSE_THETA = ((2.3307, 3.1302, 3.8852), (2.4493, 2.9559, 4.1325))
FAR_FAR_THETA = ((89.8334, 89.9545, 89.9670), (89.7879, 89.8493, 89.9653))
CLOSE_FAR_THETA = ((2.5395, 3.5460, 3.6290), (89.8745, 89.9585, 89.9854))
FAR_CLOSE_THETA = ((89.8622, 89.9070, 89.9940), (2.4270, 3.0595, 3.6860))


@dataclass(frozen=True)
class Scenario:
    """Full specification of one benchmark study; construction validates it.

    Null ``theta_u`` and ``theta_v`` mean no priors, which only admira runs
    without. Every rule raises ValueError, so no invalid Scenario exists,
    whether built directly, by ``dataclasses.replace`` or from a config.
    """

    name: str = "custom"
    n: int = 30
    rank: int = 3
    operator_kind: str = GAUSSIAN
    sampling_ratios: tuple = (0.2, 0.4, 0.6, 0.8)
    noise_level: float = 0.0
    theta_u: tuple = CLOSE_CLOSE_THETA[0]
    theta_v: tuple = CLOSE_CLOSE_THETA[1]
    rmspi_weights_u: WeightSpec = None
    rmspi_weights_v: WeightSpec = None
    grmspi_weights_u: WeightSpec = None
    grmspi_weights_v: WeightSpec = None
    trials: int = 50
    solvers: tuple = SOLVER_IDS
    master_seed: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sampling_ratios", tuple(float(r) for r in self.sampling_ratios))
        object.__setattr__(self, "solvers", tuple(self.solvers))
        if self.theta_u is not None:
            object.__setattr__(self, "theta_u", tuple(float(t) for t in self.theta_u))
        if self.theta_v is not None:
            object.__setattr__(self, "theta_v", tuple(float(t) for t in self.theta_v))
        for key in WEIGHT_FIELDS:
            if isinstance(getattr(self, key), dict):
                object.__setattr__(self, key, WeightSpec.from_config(getattr(self, key)))

        has_priors = self.theta_u is not None or self.theta_v is not None
        if self.n < 1:
            raise ValueError("dimension must be positive")
        max_rank = self.n // 2 if has_priors else self.n
        if not 1 <= self.rank <= max_rank:
            suffix = " to build priors" if has_priors else ""
            raise ValueError(f"rank must lie in [1, {max_rank}]{suffix}")
        if self.operator_kind not in (GAUSSIAN, COMPLETION):
            raise ValueError(f"unknown operator kind {self.operator_kind!r}")
        if not self.sampling_ratios:
            raise ValueError("need at least one sampling ratio")
        for ratio in self.sampling_ratios:
            if not 0.0 < ratio <= 1.0:
                raise ValueError(f"sampling ratio {ratio} outside (0, 1]")
            if measurement_count(self.n, ratio) < 1:
                raise ValueError(f"sampling ratio {ratio} gives no measurements at n = {self.n}")
        if not 0.0 <= self.noise_level < math.inf:
            raise ValueError(f"noise level must be finite and nonnegative, got {self.noise_level}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        for solver in self.solvers:
            if solver not in SOLVER_IDS:
                raise ValueError(f"unknown solver {solver!r}")
        for key in WEIGHT_FIELDS:
            spec = getattr(self, key)
            if spec is not None and spec.rank not in (None, self.rank):
                raise ValueError(
                    f"{key} carries {spec.rank} per-direction weights for rank {self.rank}"
                )
        if not has_priors:
            if any(s != "admira" for s in self.solvers):
                raise ValueError("rmspi and grmspi need prior angles theta_u and theta_v")
            return
        for theta in (self.theta_u, self.theta_v):
            if theta is None or len(theta) != self.rank:
                raise ValueError(
                    f"theta_u and theta_v need one prior angle per rank direction "
                    f"({self.rank} each), or both null for no priors"
                )
            if any(not 0.0 <= t <= 90.0 for t in theta):
                raise ValueError("prior angles must lie in [0, 90] degrees")

    @classmethod
    def from_config(cls, cfg):
        extra = set(cfg) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown scenario keys: {sorted(extra)}")
        return cls(**cfg)


def builtin_presets():
    """The built-in scenario families, three variants each.

    For every prior geometry (close_close, far_far, close_far, far_close)
    there is a noiseless Gaussian study, a noisy one (relative noise 1e-3),
    and a noiseless completion study named <family>_completion.
    """
    families = (
        (
            "close_close",
            CLOSE_CLOSE_THETA,
            WeightSpec.single(0.18, 0.999),
            WeightSpec.single(0.18, 0.999),
            WeightSpec.per_direction((0.17, 0.19, 0.21), (0.99, 0.98, 0.97)),
            WeightSpec.per_direction((0.17, 0.19, 0.21), (0.99, 0.98, 0.97)),
        ),
        (
            "far_far",
            FAR_FAR_THETA,
            WeightSpec.single(0.999, 0.18),
            WeightSpec.single(0.999, 0.18),
            WeightSpec.per_direction((0.97, 0.98, 0.99), (0.17, 0.19, 0.2)),
            WeightSpec.per_direction((0.96, 0.97, 0.99), (0.17, 0.19, 0.2)),
        ),
        (
            "close_far",
            CLOSE_FAR_THETA,
            WeightSpec.single(0.18, 0.9556),
            WeightSpec.single(0.999, 0.18),
            WeightSpec.per_direction((0.17, 0.19, 0.21), (0.93, 0.94, 0.95)),
            WeightSpec.per_direction((0.97, 0.98, 0.99), (0.17, 0.19, 0.21)),
        ),
        (
            "far_close",
            FAR_CLOSE_THETA,
            WeightSpec.single(0.999, 0.18),
            WeightSpec.single(0.18, 0.9576),
            WeightSpec.per_direction((0.97, 0.98, 0.99), (0.17, 0.19, 0.21)),
            WeightSpec.per_direction((0.17, 0.19, 0.21), (0.93, 0.94, 0.95)),
        ),
    )
    presets = {}
    for mode, (theta_u, theta_v), rw_u, rw_v, gw_u, gw_v in families:
        base = Scenario(
            name=mode,
            theta_u=theta_u,
            theta_v=theta_v,
            rmspi_weights_u=rw_u,
            rmspi_weights_v=rw_v,
            grmspi_weights_u=gw_u,
            grmspi_weights_v=gw_v,
        )
        presets[mode] = base
        presets[f"{mode}_noisy"] = replace(base, name=f"{mode}_noisy", noise_level=1e-3)
        presets[f"{mode}_completion"] = replace(
            base, name=f"{mode}_completion", operator_kind=COMPLETION
        )
    return presets


def measurement_count(n, ratio):
    """Number of measurements for a sampling ratio p / n^2."""
    return int(round(ratio * n * n))


def _ratio_key(ratio):
    return int(round(ratio * 1_000_000))


@dataclass(eq=False)
class Instance:
    """One generated problem: ground truth, operator, measurements, priors."""

    truth: np.ndarray
    truth_u: np.ndarray
    truth_v: np.ndarray
    operator: object
    y: np.ndarray
    prior_u: np.ndarray
    prior_v: np.ndarray
    ratio: float
    trial_index: int
    seed: tuple


def generate_instance(scenario, ratio, trial_index):
    """Build the seeded problem for one (ratio, trial) cell.

    The ground truth is U diag(s) V^T with Haar factors and singular values
    uniform in [1, 2]; priors tilt the true subspaces by the scenario's preset
    angles; optional noise adds a vector of prescribed relative norm in a
    uniformly random direction.
    """
    n, r = scenario.n, scenario.rank
    p = measurement_count(n, ratio)
    key = (int(scenario.master_seed), _ratio_key(ratio), int(trial_index))

    rng_truth = np.random.default_rng((*key, 0))
    truth_u = random_orthonormal(n, r, rng_truth)
    truth_v = random_orthonormal(n, r, rng_truth)
    sigma = np.sort(rng_truth.uniform(1.0, 2.0, size=r))[::-1]
    truth = (truth_u * sigma) @ truth_v.T

    operator = make_operator(scenario.operator_kind, n, p, (*key, 1))
    y = operator.apply(truth)
    if scenario.noise_level > 0.0:
        rng_noise = np.random.default_rng((*key, 2))
        direction = rng_noise.standard_normal(p)
        y = y + scenario.noise_level * np.linalg.norm(y) * direction / np.linalg.norm(direction)

    prior_u = prior_v = None
    if scenario.theta_u is not None:
        rng_prior = np.random.default_rng((*key, 3))
        prior_u = perturb_subspace(truth_u, scenario.theta_u, rng_prior)
        prior_v = perturb_subspace(truth_v, scenario.theta_v, rng_prior)

    return Instance(truth, truth_u, truth_v, operator, y, prior_u, prior_v, ratio, trial_index, key)


def make_operator(kind, n, p, seed):
    """Seeded sensing operator of one kind: Gaussian, completion or identity.

    Identity sensing has no randomness and exactly p = n^2 measurements.
    """
    if kind == IDENTITY:
        if p != n * n:
            raise ValueError(f"identity sensing needs p = n^2 = {n * n} measurements, got {p}")
        return make_identity_sensing(n)
    if kind == COMPLETION:
        return make_completion(n, p, seed)
    if kind == GAUSSIAN:
        return make_gaussian(n, p, seed)
    raise ValueError(f"unknown operator kind {kind!r}")


def prior_weighting(scenario, solver, prior_u, prior_v, reference_u=None, reference_v=None):
    """The (Qu, Qv) weighting a solver builds from subspace priors; None for admira.

    Weight specs are the scenario's explicit ones for the solver, else
    ``angles_to_weights`` of its prior angles (single mode for rmspi, per
    direction for grmspi). The references are grmspi's complement references
    (see ``build_weight_operator``); single-mode weights do not use them.
    """
    if solver == "admira":
        return None
    if solver == "rmspi":
        mode, spec_u, spec_v = SINGLE, scenario.rmspi_weights_u, scenario.rmspi_weights_v
    elif solver == "grmspi":
        mode, spec_u, spec_v = PER_DIRECTION, scenario.grmspi_weights_u, scenario.grmspi_weights_v
    else:
        raise ValueError(f"unknown solver {solver!r}")
    spec_u = spec_u or angles_to_weights(scenario.theta_u, mode)
    spec_v = spec_v or angles_to_weights(scenario.theta_v, mode)
    return (
        build_weight_operator(prior_u, spec_u, complement_reference=reference_u),
        build_weight_operator(prior_v, spec_v, complement_reference=reference_v),
    )


def solver_config(scenario, instance, solver):
    """Assemble the SolverConfig for one solver on one instance.

    The harness knows the ground truth, so grmspi's weighted complement
    directions are the ones actually paired with the principal angles.
    """
    weighting = prior_weighting(
        scenario, solver, instance.prior_u, instance.prior_v, instance.truth_u, instance.truth_v
    )
    return SolverConfig(rank=scenario.rank, max_iterations=SUCCESS_ITERATIONS, weighting=weighting)


@dataclass(frozen=True)
class TrialResult:
    solver: str
    ratio: float
    trial_index: int
    success: bool
    iterations_to_success: object
    snr_db: float
    wall_time: float
    normalized_error: float
    stop_reason: str = ""
    iterations_run: int = 0
    diagnostic: str = None
    operator: dict = None


def _operator_echo(operator):
    return {
        "kind": operator.kind,
        "n": operator.n,
        "p": operator.p,
        "seed": None if operator.seed is None else list(operator.seed),
    }


def run_trial(instance, solver, scenario):
    """Run one solver on one instance and score it against the ground truth.

    Solver exceptions are recorded as failed trials with a diagnostic string;
    they never propagate, so a grid cannot abort half way.
    """
    config = solver_config(scenario, instance, solver)
    common = {
        "solver": solver,
        "ratio": instance.ratio,
        "trial_index": instance.trial_index,
        "operator": _operator_echo(instance.operator),
    }
    start = time.perf_counter()
    try:
        run = solve(instance.operator, instance.y, config)
    except Exception as exc:  # noqa: BLE001 - any solver failure becomes a failed trial
        return TrialResult(
            **common,
            success=False,
            iterations_to_success=None,
            snr_db=-math.inf,
            wall_time=time.perf_counter() - start,
            normalized_error=math.inf,
            stop_reason="error",
            diagnostic=f"{type(exc).__name__}: {exc}",
        )
    wall = time.perf_counter() - start
    truth_norm = np.linalg.norm(instance.truth)
    normalized_error = float(np.linalg.norm(instance.truth - run.estimate) / truth_norm)
    # Success means the error criterion was achieved at any iteration within
    # the cap (the reference protocol stops as soon as it happens), while the
    # reported error and SNR describe the solver's own stop point.
    iterations_to_success = None
    for k, est in enumerate(run.estimates, start=1):
        if np.linalg.norm(instance.truth - est) / truth_norm <= SUCCESS_ERROR:
            iterations_to_success = k
            break
    return TrialResult(
        **common,
        success=iterations_to_success is not None,
        iterations_to_success=iterations_to_success,
        snr_db=analysis.snr_db(instance.truth, run.estimate),
        wall_time=wall,
        normalized_error=normalized_error,
        stop_reason=run.stop_reason,
        iterations_run=run.iterations,
    )


@dataclass(frozen=True)
class AggregateRow:
    solver: str
    ratio: float
    success_rate: float
    mean_snr_db: float
    median_iterations: float
    trials: int


@dataclass(eq=False)
class Report:
    scenario: Scenario
    aggregates: list
    trials: list


def resolve_threads(threads):
    """The trial pool size as an int; ValueError unless it is an integer of at least 1."""
    if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)):
        raise ValueError(f"threads must be an integer, got {threads!r}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    return int(threads)


def run_grid(scenario, threads=1):
    """Execute the full (solver, ratio, trial) cross product of a scenario.

    Trials are independent; with threads > 1 they run on a thread pool, and
    because every trial reseeds from (master_seed, ratio, trial_index) the
    report is identical to a serial run. Every cell, serial or pooled, runs
    with OpenBLAS on one thread (``linalg.single_blas_thread``, process-wide,
    restored when the grid returns or raises): threaded BLAS kernels are not
    bit-stable across thread counts, and BLAS threads inside pool workers
    would oversubscribe the cores, so parallelism comes from the pool alone.
    """
    threads = resolve_threads(threads)
    cells = [(ratio, t) for ratio in scenario.sampling_ratios for t in range(scenario.trials)]

    def run_cell(cell):
        ratio, trial_index = cell
        instance = generate_instance(scenario, ratio, trial_index)
        return cell, {s: run_trial(instance, s, scenario) for s in scenario.solvers}

    with single_blas_thread():
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                outcomes = dict(pool.map(run_cell, cells))
        else:
            outcomes = dict(map(run_cell, cells))

    rows = []
    aggregates = []
    for solver in scenario.solvers:
        for ratio in scenario.sampling_ratios:
            cell_rows = [outcomes[(ratio, t)][solver] for t in range(scenario.trials)]
            rows.extend(cell_rows)
            successes = [row for row in cell_rows if row.success]
            snrs = [row.snr_db for row in successes if math.isfinite(row.snr_db)]
            iters = [
                row.iterations_to_success
                for row in successes
                if row.iterations_to_success is not None
            ]
            aggregates.append(
                AggregateRow(
                    solver=solver,
                    ratio=ratio,
                    success_rate=len(successes) / scenario.trials,
                    mean_snr_db=float(np.mean(snrs)) if snrs else None,
                    median_iterations=float(statistics.median(iters)) if iters else None,
                    trials=scenario.trials,
                )
            )
    return Report(scenario=scenario, aggregates=aggregates, trials=rows)


@dataclass(frozen=True)
class RipSurveyRow:
    rank: int
    ratio: float
    p: int
    delta_base: float
    delta_weighted: float


def rip_survey(n, ranks, ratios, samples, seed, scenario=None, operator_kind=GAUSSIAN):
    """Empirical isometry constants over a (rank, ratio) grid.

    For every cell the same sample matrices score both the raw operator and
    its prior-weighted composition (the weighted operator sees the weighted
    samples, so the base column is a guaranteed lower bound for the weighted
    one). The priors and single-mode weights come from ``scenario`` (default:
    the close_close preset). ``operator_kind`` may also be "identity" for
    exact full sensing, in which case every ratio must be 1.0.
    """
    if scenario is None:
        scenario = builtin_presets()["close_close"]
    r = scenario.rank
    rng = np.random.default_rng((int(seed), 0))
    truth_u = random_orthonormal(n, r, rng)
    truth_v = random_orthonormal(n, r, rng)
    prior_u = perturb_subspace(truth_u, scenario.theta_u, rng)
    prior_v = perturb_subspace(truth_v, scenario.theta_v, rng)
    qu, qv = prior_weighting(scenario, "rmspi", prior_u, prior_v)

    rows = []
    for rank in ranks:
        for ratio in ratios:
            p = measurement_count(n, ratio)
            operator = make_operator(operator_kind, n, p, (int(seed), int(rank), _ratio_key(ratio)))
            weighted = WeightedOperator(operator, qu.q_inv, qv.q_inv)
            rng_cell = np.random.default_rng((int(seed), int(rank), _ratio_key(ratio), 1))
            mats = [random_low_rank(n, n, rank, rng_cell) for _ in range(samples)]
            est_base = estimate_rip(operator, rank, samples, sample_mats=mats)
            est_weighted = estimate_rip(
                weighted, rank, samples, sample_mats=[qu.q @ z @ qv.q for z in mats]
            )
            rows.append(RipSurveyRow(rank, ratio, p, est_base.delta_hat, est_weighted.delta_hat))
    return rows


# ---------------------------------------------------------------------------
# Serialization: scenario files, reports, matrix CSV.


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def save_scenario(scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(scenario), fh, indent=2)
        fh.write("\n")


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        return Scenario.from_config(json.load(fh))


def report_to_dict(report):
    trials = []
    for row in report.trials:
        d = asdict(row)
        d["snr_db"] = _jsonable(d["snr_db"])
        d["normalized_error"] = _jsonable(d["normalized_error"])
        trials.append(d)
    return {
        "scenario": asdict(report.scenario),
        "aggregates": [asdict(a) for a in report.aggregates],
        "trials": trials,
    }


def write_report_json(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


REPORT_CSV_COLUMNS = ("solver", "ratio", "success_rate", "mean_snr_db", "median_iterations", "trials")


def write_report_csv(report, path):
    """One row per (solver, ratio) aggregate; empty cells for undefined stats."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(REPORT_CSV_COLUMNS) + "\n")
        for agg in report.aggregates:
            cells = [
                agg.solver,
                f"{agg.ratio:g}",
                f"{agg.success_rate:g}",
                "" if agg.mean_snr_db is None else f"{agg.mean_snr_db:.6g}",
                "" if agg.median_iterations is None else f"{agg.median_iterations:g}",
                str(agg.trials),
            ]
            fh.write(",".join(cells) + "\n")


def write_matrix_csv(matrix, path):
    """Matrix file format: header line "rows,cols", then one CSV line per row."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.shape[0]},{matrix.shape[1]}\n")
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_matrix_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        try:
            rows, cols = (int(part) for part in header.split(","))
        except ValueError:
            raise ValueError(f"bad matrix header {header!r}, expected 'rows,cols'") from None
        data = [line.strip() for line in fh if line.strip()]
    if len(data) != rows:
        raise ValueError(f"expected {rows} data rows, found {len(data)}")
    matrix = np.array([[float(v) for v in line.split(",")] for line in data])
    if matrix.shape != (rows, cols):
        raise ValueError(f"expected shape {(rows, cols)}, parsed {matrix.shape}")
    return matrix
