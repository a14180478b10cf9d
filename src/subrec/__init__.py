"""Greedy low-rank matrix recovery with subspace prior information.

A small numpy/scipy library implementing a CoSaMP-style greedy solver for
low-rank matrix recovery and completion, prior-subspace weighting in single
and per-direction forms, empirical restricted-isometry estimation, the
convergence constants of the weighted iteration, and a reproducible
benchmark harness.
"""

__version__ = "0.1.0"

from .analysis import (
    convergence_factor,
    delta_for_rate,
    delta_threshold,
    error_bound,
    snr_db,
)
from .bench import (
    Instance,
    Report,
    Scenario,
    TrialResult,
    builtin_presets,
    generate_instance,
    load_scenario,
    read_matrix_csv,
    rip_survey,
    run_grid,
    run_trial,
    save_scenario,
    write_matrix_csv,
    write_report_csv,
    write_report_json,
)
from .linalg import (
    orthonormalize,
    perturb_subspace,
    principal_angles,
    random_orthonormal,
    svd,
)
from .operators import (
    MeasurementOperator,
    RipEstimate,
    WeightedOperator,
    estimate_rip,
    make_completion,
    make_gaussian,
    make_identity_sensing,
    random_low_rank,
)
from .solver import (
    SolverConfig,
    SolverRun,
    Support,
    identify_support,
    least_squares_on_support,
    merge_support,
    solve,
)
from .weighting import (
    WeightOperator,
    WeightSpec,
    angle_weight,
    angles_to_weights,
    build_weight_operator,
)

__all__ = [
    "Instance",
    "MeasurementOperator",
    "Report",
    "RipEstimate",
    "Scenario",
    "SolverConfig",
    "SolverRun",
    "Support",
    "TrialResult",
    "WeightOperator",
    "WeightSpec",
    "WeightedOperator",
    "angle_weight",
    "angles_to_weights",
    "build_weight_operator",
    "builtin_presets",
    "convergence_factor",
    "delta_for_rate",
    "delta_threshold",
    "error_bound",
    "estimate_rip",
    "generate_instance",
    "identify_support",
    "least_squares_on_support",
    "load_scenario",
    "make_completion",
    "make_gaussian",
    "make_identity_sensing",
    "merge_support",
    "orthonormalize",
    "perturb_subspace",
    "principal_angles",
    "random_low_rank",
    "random_orthonormal",
    "read_matrix_csv",
    "rip_survey",
    "run_grid",
    "run_trial",
    "save_scenario",
    "snr_db",
    "solve",
    "svd",
    "write_matrix_csv",
    "write_report_csv",
    "write_report_json",
]
