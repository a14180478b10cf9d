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
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import analysis, linalg
from .linalg import angle_vector, perturb_subspace, random_orthonormal, single_blas_thread
from .operators import (
    COMPLETION,
    GAUSSIAN,
    WeightedOperator,
    estimate_rip,
    known_kind,
    make_completion,
    make_gaussian,
    random_low_rank,
)
from .solver import SolverConfig, solve
from .weighting import (
    PER_DIRECTION,
    SINGLE,
    WeightSpec,
    angles_to_weights,
    build_weight_operator,
    is_real,
    read_config,
    real_tuple,
)

# Success criterion: normalized error <= 1e-2 within solver.MAX_ITERATIONS iterations.
SUCCESS_ERROR = 1e-2

# The solver table: the weighting mode each solver builds from its priors.
SOLVER_MODES = {"admira": None, "rmspi": SINGLE, "grmspi": PER_DIRECTION}
SOLVER_IDS = tuple(SOLVER_MODES)
WEIGHT_FIELDS = tuple(f"{s}_weights_{side}" for s in SOLVER_IDS if SOLVER_MODES[s] for side in "uv")

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
        for key in ("n", "rank", "trials", "master_seed"):
            object.__setattr__(self, key, _require_int(key, getattr(self, key)))
        for key in ("sampling_ratios", "theta_u", "theta_v"):
            values = getattr(self, key)
            if key == "sampling_ratios" or values is not None:
                values = real_tuple(values, f"{key} must be a list of numbers")
                object.__setattr__(self, key, values)
        if not is_real(self.noise_level):
            raise ValueError(f"noise_level must be a number, got {self.noise_level!r}")
        object.__setattr__(self, "noise_level", float(self.noise_level))
        if not isinstance(self.solvers, (list, tuple)) or not all(
            isinstance(s, str) for s in self.solvers
        ):
            raise ValueError(f"solvers must be a list of solver names, got {self.solvers!r}")
        object.__setattr__(self, "solvers", tuple(self.solvers))
        for key in WEIGHT_FIELDS:
            spec = getattr(self, key)
            if isinstance(spec, dict):
                object.__setattr__(self, key, WeightSpec.from_config(spec))
            elif spec is not None and not isinstance(spec, WeightSpec):
                raise ValueError(f"{key} must be a weight spec or null, got {spec!r}")

        has_priors = self.theta_u is not None or self.theta_v is not None
        if self.n < 1:
            raise ValueError("dimension must be positive")
        max_rank = self.n // 2 if has_priors else self.n
        if not 1 <= self.rank <= max_rank:
            suffix = " to build priors" if has_priors else ""
            raise ValueError(f"rank must lie in [1, {max_rank}]{suffix}")
        known_kind(self.operator_kind)
        if not self.sampling_ratios:
            raise ValueError("need at least one sampling ratio")
        for ratio in self.sampling_ratios:
            if not 0.0 < ratio <= 1.0:
                raise ValueError(f"sampling ratio {ratio} outside (0, 1]")
            if measurement_count(self.n, ratio) < 1:
                raise ValueError(f"sampling ratio {ratio} gives no measurements at n = {self.n}")
        # Ratios that share a seed key would draw the same cells twice.
        if len(set(map(_ratio_key, self.sampling_ratios))) < len(self.sampling_ratios):
            raise ValueError(f"sampling ratios must be distinct, got {list(self.sampling_ratios)}")
        if not 0.0 <= self.noise_level < math.inf:
            raise ValueError(f"noise level must be finite and nonnegative, got {self.noise_level}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        if not self.solvers or len(set(self.solvers)) < len(self.solvers):
            raise ValueError(f"solvers must be one or more distinct names, got {list(self.solvers)}")
        modes = [weighting_mode(solver) for solver in self.solvers]
        for key in WEIGHT_FIELDS:
            spec = getattr(self, key)
            if spec is None:
                continue
            mode = SOLVER_MODES[key.split("_weights_")[0]]
            if spec.mode != mode:
                raise ValueError(f"{key} must be a {mode} weight spec, got {spec.mode}")
            if spec.rank not in (None, self.rank):
                raise ValueError(
                    f"{key} carries {spec.rank} per-direction weights for rank {self.rank}"
                )
        if not has_priors:
            if any(modes):
                raise ValueError("rmspi and grmspi need prior angles theta_u and theta_v")
            return
        for theta in (self.theta_u, self.theta_v):
            if theta is None or len(theta) != self.rank:
                raise ValueError(
                    f"theta_u and theta_v need one prior angle per rank direction "
                    f"({self.rank} each), or both null for no priors"
                )
            angle_vector(theta)

    @classmethod
    def from_config(cls, cfg):
        return read_config(cls, cfg, "scenario")


def weighting_mode(solver):
    """The weighting mode of ``solver`` in SOLVER_MODES; the one ValueError for an unknown one."""
    if solver not in SOLVER_IDS:
        raise ValueError(f"unknown solver {solver!r}")
    return SOLVER_MODES[solver]


def _require_int(name, value):
    """``value`` as an int; ValueError unless it is an integer (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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


def _cell_key(scenario, ratio, trial_index):
    """The seed key (master_seed, ratio, trial) of one cell of a grid."""
    return (int(scenario.master_seed), _ratio_key(ratio), int(trial_index))


def _operator_seed(key):
    """The seed a cell's sensing operator draws from: its key extended by 1."""
    return (*key, 1)


def generate_instance(scenario, ratio, trial_index, operator=None):
    """Build the seeded problem for one (ratio, trial) cell.

    The ground truth is U diag(s) V^T with Haar factors and singular values
    uniform in [1, 2], drawn from the cell key (master_seed, ratio, trial)
    extended by 0; ``instance_from_truth`` senses it under the same key, with
    ``operator`` when the cell's operator was already drawn.
    """
    key = _cell_key(scenario, ratio, trial_index)
    rng_truth = np.random.default_rng((*key, 0))
    truth_u = random_orthonormal(scenario.n, scenario.rank, rng_truth)
    truth_v = random_orthonormal(scenario.n, scenario.rank, rng_truth)
    sigma = np.sort(rng_truth.uniform(1.0, 2.0, size=scenario.rank))[::-1]
    truth = (truth_u * sigma) @ truth_v.T
    return instance_from_truth(scenario, truth, truth_u, truth_v, ratio, trial_index, key, operator)


def instance_from_truth(scenario, truth, truth_u, truth_v, ratio, trial_index, key, operator=None):
    """Sense ``truth`` as the scenario's cell at ``ratio``, seeded by the tuple ``key``.

    The operator draws from ``_operator_seed(key)``, (*key, 1), here unless
    it is given; the serial grid's draw-ahead takes the same seed. Optional
    noise adds a vector of the scenario's relative norm in a uniformly random
    direction from (*key, 2). Priors tilt truth_u and truth_v by the
    scenario's angles, from (*key, 3).
    """
    p = measurement_count(scenario.n, ratio)
    if operator is None:
        operator = make_operator(scenario.operator_kind, scenario.n, p, _operator_seed(key))
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
    """Seeded sensing operator of one kind, Gaussian or completion (``known_kind``)."""
    if known_kind(kind) == GAUSSIAN:
        return make_gaussian(n, p, seed)
    return make_completion(n, p, seed)


def prior_weighting(scenario, solver, prior_u, prior_v, reference_u=None, reference_v=None):
    """The (Qu, Qv) weighting a solver builds from subspace priors; None for admira.

    Weight specs are the scenario's explicit ones for the solver, else
    ``angles_to_weights`` of its prior angles in the solver's SOLVER_MODES
    mode. The references are grmspi's complement references (see
    ``build_weight_operator``); single-mode weights do not use them.
    """
    mode = weighting_mode(solver)
    if mode is None:
        return None
    spec_u = getattr(scenario, f"{solver}_weights_u") or angles_to_weights(scenario.theta_u, mode)
    spec_v = getattr(scenario, f"{solver}_weights_v") or angles_to_weights(scenario.theta_v, mode)
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
    return SolverConfig(rank=scenario.rank, weighting=weighting)


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
    threads = _require_int("threads", threads)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    return threads


def run_grid(scenario, threads=1):
    """Execute the full (solver, ratio, trial) cross product of a scenario.

    Trials are independent; with threads > 1 they run on a thread pool, and
    because every trial reseeds from (master_seed, ratio, trial_index) the
    report is identical to a serial run. Every cell, serial or pooled, runs
    with OpenBLAS on one thread (``linalg.single_blas_thread``, process-wide,
    restored when the grid returns or raises): threaded BLAS kernels are not
    bit-stable across thread counts, and BLAS threads inside pool workers
    would oversubscribe the cores. A large Gaussian solve instead splits its
    passes over the sensing tensor into slabs on the idle cores, at most
    usable_cpus() // threads per solve, with the same bits as one pass. A
    serial grid on more than one core draws the next cell's Gaussian tensor
    on an idle core while the current cell's trials run (see
    ``_run_serially``); the draw is seeded by its cell, so the rows stay the
    same bit for bit. The pool pays only where a solve spends most of its
    time in numpy's BLAS and LAPACK, which release the GIL, as small Gaussian
    solves do; a completion solve is mostly interpreter work, and its grid
    runs slower pooled than serial.
    """
    threads = resolve_threads(threads)

    def run_cell(cell, operator=None):
        instance = generate_instance(scenario, *cell, operator=operator)
        return {s: run_trial(instance, s, scenario) for s in scenario.solvers}

    with single_blas_thread(solves=threads):
        if threads > 1:
            cells = [(r, t) for r in scenario.sampling_ratios for t in range(scenario.trials)]
            with ThreadPoolExecutor(max_workers=threads) as pool:
                outcomes = dict(zip(cells, pool.map(run_cell, cells)))
        else:
            outcomes = _run_serially(scenario, run_cell)

    rows = []
    aggregates = []
    for solver in scenario.solvers:
        for ratio in scenario.sampling_ratios:
            cell_rows = [outcomes[(ratio, t)][solver] for t in range(scenario.trials)]
            rows.extend(cell_rows)
            successes = [row for row in cell_rows if row.success]
            snrs = [row.snr_db for row in successes if math.isfinite(row.snr_db)]
            iters = [row.iterations_to_success for row in successes]
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


def _run_serially(scenario, run_cell):
    """Run every cell on this thread, trial-major, and return {cell: run_cell(cell)}.

    While cell k's trials run, cell k+1's Gaussian sensing operator is drawn
    on a core the BLAS pin leaves idle (numpy's sampler releases the GIL), and
    cell k+1 takes it instead of drawing its own. That holds one more tensor
    alive, so it runs only for a tensor of at most ``linalg.SLAB_MIN_BYTES``:
    a larger one is a solve that already takes the idle cores for its slabs.
    A completion operator is p index pairs, too quick a draw to hand over.
    Trial-major order (every ratio of trial 0, then of trial 1, ...) puts
    ascending ratios' smallest tensor after their largest, which lowers the
    peak of the two alive at once. A failed draw raises when its
    cell takes it, and a draw still running when a cell raises is awaited,
    so none outlives the call.
    """
    cells = [(r, t) for t in range(scenario.trials) for r in scenario.sampling_ratios]
    n = scenario.n
    spare_core = scenario.operator_kind == GAUSSIAN and 1 < linalg.usable_cpus()

    def draw_ahead(cell):
        ratio, trial_index = cell
        p = measurement_count(n, ratio)
        if not spare_core or 8 * p * n * n > linalg.SLAB_MIN_BYTES:
            return None
        # The tensor is allocated on this thread: allocated by the drawing
        # thread, freed tensors stayed in its malloc arena, and perfbench's
        # gauss_n30 peak RSS rose 15 % instead of 10 % in a probe on a 2-vCPU
        # EPYC VM.
        seed = _operator_seed(_cell_key(scenario, ratio, trial_index))
        return linalg.run_on_spare_core(make_gaussian, n, p, seed, np.empty((p, n, n)))

    outcomes, ahead = {}, None
    try:
        for k, cell in enumerate(cells):
            operator = None if ahead is None else ahead.result()
            ahead = draw_ahead(cells[k + 1]) if k + 1 < len(cells) else None
            outcomes[cell] = run_cell(cell, operator)
    finally:
        if ahead is not None:
            wait([ahead])
    return outcomes


@dataclass(frozen=True)
class RipSurveyRow:
    rank: int
    ratio: float
    p: int
    delta_base: float
    delta_weighted: float


def rip_survey(scenario, ranks, samples):
    """Empirical isometry constants over the scenario's ratios for each sample rank.

    The scenario supplies n, the operator kind, the seed, the sampling ratios
    and the priors with their single-mode (rmspi) weights; completion at ratio
    1 senses every entry, an exact isometry. For every cell the same sample
    matrices score both the raw operator and its prior-weighted composition.
    The weighted operator sees the weighted samples Qu Z Qv, so both measure
    A(Z), and with weights <= 1 the weighted ratio ||A(Z)||^2 / ||Qu Z Qv||^2
    is at least the base one. That bounds only the upper side: the weighted
    M - 1 is at least the base M - 1, but 1 - m can shrink, so the weighted
    delta_hat may fall below the base column where 1 - m sets it.
    """
    n, seed = scenario.n, scenario.master_seed
    if scenario.theta_u is None:
        raise ValueError("rip_survey needs prior angles theta_u and theta_v; the scenario has none")
    for rank in ranks:
        if not 1 <= rank <= n:
            raise ValueError(f"sample rank {rank} outside [1, {n}]")
    rng = np.random.default_rng((seed, 0))
    truth_u = random_orthonormal(n, scenario.rank, rng)
    truth_v = random_orthonormal(n, scenario.rank, rng)
    prior_u = perturb_subspace(truth_u, scenario.theta_u, rng)
    prior_v = perturb_subspace(truth_v, scenario.theta_v, rng)
    qu, qv = prior_weighting(scenario, "rmspi", prior_u, prior_v)

    rows = []
    for rank in ranks:
        for ratio in scenario.sampling_ratios:
            p = measurement_count(n, ratio)
            cell = (seed, int(rank), _ratio_key(ratio))
            operator = make_operator(scenario.operator_kind, n, p, cell)
            weighted = WeightedOperator(operator, qu.q_inv, qv.q_inv)
            rng_cell = np.random.default_rng((*cell, 1))
            mats = [random_low_rank(n, rank, rng_cell) for _ in range(samples)]
            est_base = estimate_rip(operator, mats)
            est_weighted = estimate_rip(weighted, [qu.q @ z @ qv.q for z in mats])
            rows.append(RipSurveyRow(rank, ratio, p, est_base.delta_hat, est_weighted.delta_hat))
    return rows


# ---------------------------------------------------------------------------
# Serialization: scenario files, reports, matrix CSV.


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        return Scenario.from_config(json.load(fh))


def report_to_dict(report):
    return {
        "scenario": asdict(report.scenario),
        "aggregates": [asdict(a) for a in report.aggregates],
        "trials": [{k: _jsonable(v) for k, v in asdict(row).items()} for row in report.trials],
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


def read_matrix_csv(path):
    """Matrix file format: header line "rows,cols", then one CSV line per row."""
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
