"""Linear measurement operators and empirical restricted-isometry estimation.

Two measurement models: dense Gaussian sensing (p random matrices, inner
products as measurements) and entrywise completion (p distinct sampled
entries). A WeightedOperator composes a base operator with the inverse
weighting maps, measuring Z through Qu^-1 Z Qv^-1.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import as_generator, random_orthonormal

GAUSSIAN = "gaussian"
COMPLETION = "completion"


@dataclass(eq=False)
class MeasurementOperator:
    """Linear map from square n x n matrices to R^p with an adjoint.

    ``seed`` records the seed material the operator was built from, when
    known, so reports can persist (kind, n, p, seed) instead of the payload.
    A completion operator works out from ``indices``, once, the flat index
    ``row * n + col`` of each sampled entry (``flat``) and the n x n 0/1
    sampling mask (``mask``); the index pairs must be distinct.
    """

    kind: str
    n: int
    p: int
    mats: np.ndarray = None
    indices: np.ndarray = None
    seed: object = None
    flat: np.ndarray = field(init=False, default=None, repr=False)
    mask: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.kind == COMPLETION:
            self.flat = self.indices[:, 0] * self.n + self.indices[:, 1]
            self.mask = self.scatter(1.0)

    def apply(self, x):
        """Measure a matrix: y_i = <x, A_i>_F (Gaussian) or sampled entries."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n, self.n):
            raise ValueError(f"expected shape {(self.n, self.n)}, got {x.shape}")
        if self.kind == COMPLETION:
            return x.take(self.flat)
        return self.mats.reshape(self.p, -1) @ x.ravel()

    def adjoint(self, y):
        """Adjoint map: sum_i y_i A_i, or scatter of y onto the sampled entries."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.p,):
            raise ValueError(f"expected {self.p} measurements, got shape {y.shape}")
        if self.kind == COMPLETION:
            return self.scatter(y)
        flat = self.mats.reshape(self.p, -1)
        out = np.empty(flat.shape[1])

        def accumulate(start, stop):
            np.matmul(y, flat[:, start:stop], out=out[start:stop])

        # Slabs start on multiples of 64 columns, which keeps each one's alignment
        # and vector tails, and so its bits; a boundary at column 37 changed them.
        linalg.run_slabs(accumulate, linalg.slab_bounds(flat.shape[1], self.mats.nbytes, align=64))
        return out.reshape(self.n, self.n)

    def scatter(self, y):
        """Completion only: the n x n matrix holding y on the sampled entries, zero elsewhere."""
        out = np.zeros(self.n * self.n)
        out[self.flat] = y
        return out.reshape(self.n, self.n)


def make_gaussian(n, p, rng):
    """Gaussian sensing operator: p matrices with iid N(0, 1/p) entries.

    The variance makes the map an isometry in expectation,
    E ||A(X)||^2 = ||X||_F^2, so empirical isometry constants are meaningful.
    """
    if p < 1:
        raise ValueError("need at least one measurement")
    seed = None if isinstance(rng, np.random.Generator) else rng
    gen = as_generator(rng)
    # Scaling standard normals in place gives gen.normal(0, 1/sqrt(p))'s values
    # bit for bit, in 144 ms against 156 ms at n = 80, p = 2560 (2-core EPYC VM).
    mats = gen.standard_normal((p, n, n))
    mats *= 1.0 / np.sqrt(p)
    return MeasurementOperator(GAUSSIAN, n, p, mats=mats, seed=seed)


def make_completion(n, p, rng):
    """Completion operator: p distinct entries sampled uniformly without replacement."""
    if not 1 <= p <= n * n:
        raise ValueError(f"measurement count {p} outside [1, {n * n}]")
    seed = None if isinstance(rng, np.random.Generator) else rng
    gen = as_generator(rng)
    flat = gen.choice(n * n, size=p, replace=False)
    indices = np.column_stack(np.divmod(flat, n)).astype(np.intp)
    return MeasurementOperator(COMPLETION, n, p, indices=indices, seed=seed)


def make_identity_sensing(n):
    """Exact-isometry sensing: the p = n^2 canonical basis matrices."""
    mats = np.eye(n * n).reshape(n * n, n, n)
    return MeasurementOperator(GAUSSIAN, n, n * n, mats=mats)


@dataclass(eq=False)
class WeightedOperator:
    """Base operator composed with the inverse weightings on both sides.

    apply(Z) = base.apply(qu_inv @ Z @ qv_inv); a None factor means identity,
    which makes the unweighted reduction exact rather than approximate. A
    factor that is not n x n raises ValueError.
    """

    base: MeasurementOperator
    qu_inv: np.ndarray = None
    qv_inv: np.ndarray = None

    def __post_init__(self):
        for factor in (self.qu_inv, self.qv_inv):
            if factor is not None and np.shape(factor) != (self.n, self.n):
                raise ValueError(
                    f"weighting factor of shape {np.shape(factor)} does not match "
                    f"the {self.n} x {self.n} operator"
                )
        # An exact identity factor is dropped. Multiplying by it keeps every
        # value but turns -0.0 into +0.0, and the sign of a zero steers the
        # Householder reflectors of LAPACK's SVD and gelsd, so unit weights
        # would not reproduce the unweighted loop bit for bit.
        if self.qu_inv is not None and np.array_equal(self.qu_inv, np.eye(self.n)):
            self.qu_inv = None
        if self.qv_inv is not None and np.array_equal(self.qv_inv, np.eye(self.n)):
            self.qv_inv = None

    @property
    def p(self):
        return self.base.p

    @property
    def n(self):
        return self.base.n

    def deweight(self, z):
        """The two-sided inverse weighting map Z -> Qu^-1 Z Qv^-1."""
        if self.qu_inv is not None:
            z = self.qu_inv @ z
        if self.qv_inv is not None:
            z = z @ self.qv_inv
        return z

    def apply(self, z):
        return self.base.apply(self.deweight(np.asarray(z, dtype=float)))

    def adjoint(self, y):
        # Both weighting factors are symmetric, so the adjoint de-weights the result.
        return self.deweight(self.base.adjoint(y))


@dataclass(frozen=True)
class RipEstimate:
    """Sampled lower bound on a restricted isometry constant.

    delta_hat = max(1 - ratio_min, ratio_max - 1) over the sampled ratios
    ||A X||^2 / ||X||_F^2; sampling can only miss worse cases, never invent
    them, so the true constant is >= delta_hat.
    """

    rank: int
    samples: int
    delta_hat: float
    ratio_min: float
    ratio_max: float


def random_low_rank(n_rows, n_cols, rank, rng):
    """Random rank-``rank`` matrix with Haar factors and spectrum uniform in [0.1, 1].

    Singular values stay bounded away from zero so isometry ratios are not
    dominated by near-zero matrices.
    """
    gen = as_generator(rng)
    u = random_orthonormal(n_rows, rank, gen)
    v = random_orthonormal(n_cols, rank, gen)
    sigma = gen.uniform(0.1, 1.0, size=rank)
    return (u * sigma) @ v.T


def estimate_rip(op, rank, samples, rng=None, sample_mats=None):
    """Empirical isometry constant of ``op`` over random rank-``rank`` matrices.

    When ``sample_mats`` is given it is used verbatim (enabling shared-sample
    comparisons between operators); otherwise ``samples`` matrices are drawn
    from ``rng``.
    """
    if sample_mats is None:
        gen = as_generator(rng)
        sample_mats = [random_low_rank(op.n, op.n, rank, gen) for _ in range(samples)]
    ratios = []
    for x in sample_mats:
        y = op.apply(x)
        ratios.append(float(y @ y) / float(np.sum(x * x)))
    if not ratios:
        raise ValueError("need at least one sample")
    ratio_min = min(ratios)
    ratio_max = max(ratios)
    delta_hat = max(1.0 - ratio_min, ratio_max - 1.0)
    return RipEstimate(rank, len(ratios), delta_hat, ratio_min, ratio_max)
