"""Greedy low-rank matrix recovery with subspace prior information.

A small numpy/scipy library implementing a CoSaMP-style greedy solver for
low-rank matrix recovery and completion, prior-subspace weighting in single
and per-direction forms, empirical restricted-isometry estimation, the
convergence constants of the weighted iteration, and a reproducible
benchmark harness.

The top level exports the names of the README quick start; everything else
is imported from its module (``subrec.bench.run_grid``,
``subrec.operators.estimate_rip``, ...).
"""

__version__ = "0.1.0"

from .analysis import snr_db
from .linalg import perturb_subspace, random_orthonormal
from .operators import make_gaussian
from .solver import SolverConfig, solve
from .weighting import WeightSpec, angles_to_weights, build_weight_operator

__all__ = [
    "SolverConfig",
    "WeightSpec",
    "angles_to_weights",
    "build_weight_operator",
    "make_gaussian",
    "perturb_subspace",
    "random_orthonormal",
    "snr_db",
    "solve",
]
