"""Greedy low-rank matrix recovery with subspace prior information.

A small numpy/scipy library implementing a CoSaMP-style greedy solver for
low-rank matrix recovery and completion, prior-subspace weighting in single
and per-direction forms, empirical restricted-isometry estimation, the
convergence constants of the weighted iteration, and a reproducible
benchmark harness.
"""

from types import ModuleType as _ModuleType

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

# The public names are the ones imported above, the submodules aside.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
