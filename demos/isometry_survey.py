"""Empirical restricted-isometry constants of raw and prior-weighted operators.

Samples random low-rank matrices, records the extreme ratios ||A X||^2 /
||X||_F^2, and tabulates the resulting constants per (rank, sampling ratio)
cell. The same sample set scores the raw operator A and the weighted operator
B = A(Qu^-1 . Qv^-1). B measures the weighted matrix Qu Z Qv exactly like A
measures Z, which the solver analysis relies on. On these seeds the weighted
constant is also the larger one in every cell (delta_A <= delta_B), but that
is an observation, not a guarantee: weights <= 1 bound only the upper side
M - 1 of the weighted constant, and its lower side 1 - m can shrink.
"""

import numpy as np

from subrec import bench
from subrec.linalg import perturb_subspace, random_orthonormal
from subrec.operators import GAUSSIAN, WeightedOperator, random_low_rank


def main():
    # The preset fixes n = 30, Gaussian sensing, ratios 0.2-0.8, seed 1 and the priors.
    rows = bench.rip_survey(bench.builtin_presets()["close_close"], (3, 6, 12), 100)
    print("empirical isometry constants (100 samples per cell):")
    print(f"{'rank':>4s} {'ratio':>6s} {'p':>4s} {'delta_A':>9s} {'delta_B':>9s}")
    for row in rows:
        print(f"{row.rank:4d} {row.ratio:6.2f} {row.p:4d} "
              f"{row.delta_base:9.3f} {row.delta_weighted:9.3f}")

    # exact isometry identity on one concrete pair of operators
    rng = np.random.default_rng(7)
    scenario = bench.builtin_presets()["close_close"]
    truth_u = random_orthonormal(30, 3, rng)
    truth_v = random_orthonormal(30, 3, rng)
    prior_u = perturb_subspace(truth_u, scenario.theta_u, rng)
    prior_v = perturb_subspace(truth_v, scenario.theta_v, rng)
    qu, qv = bench.prior_weighting(scenario, "rmspi", prior_u, prior_v)
    base = bench.make_operator(GAUSSIAN, 30, 270, 11)
    weighted = WeightedOperator(base, qu.q_inv, qv.q_inv)
    z = random_low_rank(30, 3, rng)
    diff = np.max(np.abs(weighted.apply(qu.q @ z @ qv.q) - base.apply(z)))
    print(f"\nmax |B(Qu Z Qv) - A(Z)| over one random rank-3 Z: {diff:.2e}")
    print("on these seeds delta_A stays below delta_B in every cell above; the")
    print("weighting bounds only the upper side M - 1, so that is not guaranteed.")


if __name__ == "__main__":
    main()
