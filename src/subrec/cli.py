"""Command-line interface.

Subcommands:
  recover  - solve a single instance (from a matrix CSV file or a seeded
             preset) and print SNR and iteration count
  bench    - run a scenario (file or preset) and write JSON/CSV reports
  rip      - empirical isometry survey over a (rank, ratio) grid
  presets  - list the built-in scenarios

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

from . import __version__, bench
from .linalg import single_blas_thread
from .operators import GAUSSIAN, OPERATOR_KINDS


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the interface promises 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _angles(text):
    return tuple(float(part) for part in text.split(","))


def build_parser():
    parser = _Parser(
        prog="subrec",
        description="Greedy low-rank matrix recovery with subspace prior information.",
    )
    parser.add_argument("--version", action="version", version=f"subrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recover", parents=[], help="solve one instance and print SNR/iterations")
    rec.add_argument("--matrix", help="CSV matrix file (header 'rows,cols'); omit to use a preset instance")
    rec.add_argument("--preset", help="preset for generated instances (default close_close)")
    rec.add_argument("--solver", default="grmspi", choices=bench.SOLVER_IDS)
    rec.add_argument("--ratio", type=float, default=0.6, help="sampling ratio p/n^2")
    rec.add_argument("--trial", type=int, help="trial index within the preset stream (default 0)")
    rec.add_argument("--kind", choices=OPERATOR_KINDS,
                     help=f"operator kind for --matrix instances (default {GAUSSIAN})")
    rec.add_argument("--seed", type=int, help="seed for --matrix instances (default 0)")
    rec.add_argument("--rank", type=int, help="target rank (required with --matrix)")
    rec.add_argument("--theta-u", type=_angles, help="prior angles per direction, degrees, comma separated")
    rec.add_argument("--theta-v", type=_angles)
    rec.set_defaults(func=_cmd_recover)

    ben = sub.add_parser("bench", help="run a scenario file or preset and write reports")
    ben.add_argument("scenario", nargs="?", help="scenario JSON file")
    ben.add_argument("--preset", help="built-in scenario name (alternative to a file)")
    ben.add_argument("--out", help="report JSON path (default report_<name>.json)")
    ben.add_argument("--csv", help="also write per-(solver, ratio) aggregate CSV here")
    ben.add_argument("--trials", type=int, help="override the scenario's trial count")
    ben.add_argument("--seed", type=int, help="override the scenario's master seed")
    ben.add_argument("--threads", type=int, default=1, help="trial pool size (default 1)")
    ben.set_defaults(func=_cmd_bench)

    rip = sub.add_parser("rip", help="empirical isometry survey")
    rip.add_argument("--n", type=int, default=30)
    rip.add_argument("--ranks", default="3,6,12", help="comma-separated ranks")
    rip.add_argument("--ratios", default="0.2,0.4,0.6,0.8", help="comma-separated sampling ratios")
    rip.add_argument("--samples", type=int, default=200)
    rip.add_argument("--seed", type=int, default=1)
    rip.add_argument("--preset", default="close_close", help="scenario supplying priors and weights")
    rip.add_argument("--kind", default=GAUSSIAN, choices=OPERATOR_KINDS)
    rip.add_argument("--csv", help="write the survey table here as CSV")
    rip.set_defaults(func=_cmd_rip)

    pre = sub.add_parser("presets", help="list built-in scenarios")
    pre.add_argument("--json", action="store_true", help="dump full scenario configurations")
    pre.set_defaults(func=_cmd_presets)
    return parser


def _load_preset(name):
    presets = bench.builtin_presets()
    if name not in presets:
        raise ValueError(f"unknown preset {name!r}; run 'subrec presets' for the list")
    return presets[name]


def _check_writable(path):
    """ValueError unless a file can be written at ``path``, checked before any work runs."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ValueError(f"cannot write {path}: no directory {folder}")
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise ValueError(f"cannot write {path}: permission denied")


def _print_trial(result):
    snr = "inf" if result.snr_db == float("inf") else f"{result.snr_db:.2f}"
    print(
        f"solver={result.solver} n={result.operator['n']} p={result.operator['p']} "
        f"success={result.success} "
        f"iterations={result.iterations_run} iterations_to_success={result.iterations_to_success} "
        f"snr_db={snr} normalized_error={result.normalized_error:.3e} "
        f"stop={result.stop_reason} wall_time={result.wall_time:.3f}s"
    )
    if result.diagnostic:
        print(f"diagnostic: {result.diagnostic}", file=sys.stderr)


def _cmd_recover(args):
    # One BLAS thread, as in run_grid, so the trial equals its grid row bit for bit.
    with single_blas_thread():
        try:
            # Each instance source reads only its own options and refuses the other's.
            matrix_only = ("kind", "seed", "rank", "theta_u", "theta_v")
            for key in ("preset", "trial") if args.matrix else matrix_only:
                if getattr(args, key) is not None:
                    applies = "does not apply with" if args.matrix else "applies only with"
                    raise ValueError(f"--{key.replace('_', '-')} {applies} --matrix")
            if args.matrix:
                scenario, instance = _matrix_trial(args)
            else:
                preset = _load_preset(args.preset or "close_close")
                scenario = replace(preset, sampling_ratios=(args.ratio,))
                instance = bench.generate_instance(scenario, args.ratio, args.trial or 0)
        except (OSError, ValueError) as exc:
            print(f"subrec recover: {exc}", file=sys.stderr)
            return 1
        result = bench.run_trial(instance, args.solver, scenario)
    _print_trial(result)
    return 0 if result.diagnostic is None else 2


def _matrix_trial(args):
    """One-cell scenario and instance sensing the --matrix file itself.

    The matrix is the ground truth; its top-rank singular subspaces are the
    true subspaces the priors tilt away from. A fault of the matrix raises
    the ValueError of ``bench.instance_from_truth``, naming the file.
    """
    matrix = bench.read_matrix_csv(args.matrix)
    if args.rank is None:
        raise ValueError("--rank is required with --matrix")
    default_angles = (5.0,) * args.rank
    seed = args.seed or 0
    # n is the longer side, so a file that is not square breaks the truth rule, not a rule of n.
    scenario = bench.Scenario(
        name="matrix", n=max(matrix.shape), rank=args.rank, operator_kind=args.kind or GAUSSIAN,
        sampling_ratios=(args.ratio,), theta_u=args.theta_u or default_angles,
        theta_v=args.theta_v or default_angles, trials=1, master_seed=seed,
    )
    try:
        instance = bench.instance_from_truth(scenario, matrix, None, None, args.ratio, 0, (seed,))
    except ValueError as exc:
        raise ValueError(f"matrix file {args.matrix}: {exc}") from None
    return scenario, instance


def _cmd_bench(args):
    try:
        if args.preset and args.scenario:
            raise ValueError("give either a scenario file or --preset, not both")
        if args.preset:
            scenario = _load_preset(args.preset)
        elif args.scenario:
            scenario = bench.load_scenario(args.scenario)
        else:
            raise ValueError("need a scenario file or --preset")
        if args.trials is not None:
            scenario = replace(scenario, trials=args.trials)
        if args.seed is not None:
            scenario = replace(scenario, master_seed=args.seed)
        threads = bench.resolve_threads(args.threads)
        out = args.out or f"report_{scenario.name}.json"
        for path in (out, args.csv):
            if path:
                _check_writable(path)
        if args.csv and os.path.realpath(args.csv) == os.path.realpath(out):
            raise ValueError(f"--out and --csv both name {out}; give two files")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"subrec bench: {exc}", file=sys.stderr)
        return 1

    report = bench.run_grid(scenario, threads=threads)
    bench.write_report_json(report, out)
    if args.csv:
        bench.write_report_csv(report, args.csv)
    for agg in report.aggregates:
        snr = "-" if agg.mean_snr_db is None else f"{agg.mean_snr_db:.2f}"
        iters = "-" if agg.median_iterations is None else f"{agg.median_iterations:g}"
        print(
            f"{agg.solver:8s} ratio={agg.ratio:<4g} success_rate={agg.success_rate:.2f} "
            f"mean_snr_db={snr} median_iterations={iters}"
        )
    print(f"report written to {out}")
    return 0


def _cmd_rip(args):
    try:
        ranks = [int(part) for part in args.ranks.split(",")]
        ratios = [float(part) for part in args.ratios.split(",")]
        scenario = replace(_load_preset(args.preset), n=args.n, operator_kind=args.kind,
                           sampling_ratios=ratios, master_seed=args.seed)
        if args.csv:
            _check_writable(args.csv)
        rows = bench.rip_survey(scenario, ranks, args.samples)
    except ValueError as exc:
        print(f"subrec rip: {exc}", file=sys.stderr)
        return 1
    lines = ["rank,ratio,p,delta_base,delta_weighted"]
    lines += [f"{r.rank},{r.ratio:g},{r.p},{r.delta_base:.6f},{r.delta_weighted:.6f}" for r in rows]
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(table)
    return 0


def _cmd_presets(args):
    presets = bench.builtin_presets()
    if args.json:
        print(json.dumps({name: asdict(sc) for name, sc in presets.items()}, indent=2))
        return 0
    for name, sc in presets.items():
        print(
            f"{name:24s} kind={sc.operator_kind:10s} noise={sc.noise_level:g} "
            f"ratios={list(sc.sampling_ratios)}"
        )
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"subrec: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
