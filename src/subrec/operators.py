"""Linear measurement operators and empirical restricted-isometry estimation.

Two measurement models: dense Gaussian sensing (p random matrices, inner
products as measurements) and entrywise completion (p distinct sampled
entries). A WeightedOperator composes a base operator with the inverse
weighting maps, measuring Z through Qu^-1 Z Qv^-1.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import random_orthonormal

GAUSSIAN = "gaussian"
COMPLETION = "completion"
OPERATOR_KINDS = (GAUSSIAN, COMPLETION)


def known_kind(kind):
    """``kind`` if it is one of OPERATOR_KINDS; the one ValueError for any other."""
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    return kind


@dataclass(eq=False)
class MeasurementOperator:
    """Linear map from square n x n matrices to R^p with an adjoint.

    ``seed`` records the seed material the operator was built from, when
    known, so reports can persist (kind, n, p, seed) instead of the payload.
    Construction checks the kind (``known_kind``), n >= 1 and p >= 1
    (``linalg.require_int``) and the payload, raising ValueError: Gaussian
    ``mats`` of shape (p, n, n), entries unread, or completion ``indices`` of
    p distinct integer (row, col) pairs in [0, n), which give the flat index
    ``row * n + col`` (``flat``) and the 0/1 mask.
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
        self.n, self.p = linalg.require_int("n", self.n, 1), linalg.require_int("p", self.p, 1)
        if known_kind(self.kind) == GAUSSIAN:
            if np.shape(self.mats) != (self.p, self.n, self.n):
                raise ValueError(f"Gaussian sensing needs mats of shape {(self.p, self.n, self.n)}")
        else:
            self.indices = np.asarray(self.indices)
            if self.indices.shape != (self.p, 2) or self.indices.dtype.kind not in "iu":
                raise ValueError(f"completion needs {self.p} integer index pairs")
            if not 0 <= self.indices.min() <= self.indices.max() < self.n:
                raise ValueError(f"completion indices outside [0, {self.n})")
            self.flat = self.indices[:, 0] * self.n + self.indices[:, 1]
            # A repeated pair sets its mask entry once, so the sum falls below p.
            self.mask = self.scatter(1.0)
            if self.mask.sum() < self.p:
                raise ValueError("completion index pairs must be distinct")

    def apply(self, x):
        """Measure a matrix: y_i = <x, A_i>_F (Gaussian) or sampled entries."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n, self.n):
            raise ValueError(f"expected shape {(self.n, self.n)}, got {x.shape}")
        if self.kind == COMPLETION:
            return x.take(self.flat)
        return self.mats.reshape(self.p, -1) @ x.ravel()

    def measurements(self, y):
        """``y`` as a float vector of p measurements; ValueError unless finite and of shape (p,)."""
        y, _ = linalg.finite_array(y)
        if y.shape != (self.p,):
            raise ValueError(f"expected {self.p} measurements, got shape {y.shape}")
        return y

    def adjoint(self, y):
        """Adjoint map: sum_i y_i A_i, or scatter of y onto the sampled entries."""
        y = self.measurements(y)
        if self.kind == COMPLETION:
            return self.scatter(y)
        flat = self.mats.reshape(self.p, -1)
        # Slabs start on multiples of 64 columns, which keeps each one's alignment
        # and vector tails, and so its bits; a boundary at column 37 changed them.
        bounds = linalg.slab_bounds(flat.shape[1], self.mats.nbytes, align=64)
        if len(bounds) == 2:
            return (y @ flat).reshape(self.n, self.n)
        out = np.empty(flat.shape[1])

        def accumulate(start, stop):
            np.matmul(y, flat[:, start:stop], out=out[start:stop])

        linalg.run_slabs(accumulate, bounds)
        return out.reshape(self.n, self.n)

    def scatter(self, y):
        """Completion only: the n x n matrix holding y on the sampled entries, zero elsewhere."""
        out = np.zeros(self.n * self.n)
        out[self.flat] = y
        return out.reshape(self.n, self.n)


def make_gaussian(n, p, rng, out=None):
    """Gaussian sensing operator: p matrices with iid N(0, 1/p) entries.

    The variance makes the map an isometry in expectation,
    E ||A(X)||^2 = ||X||_F^2, so empirical isometry constants are meaningful.
    The tensor fills ``out``, a (p, n, n) float array, when one is given.
    """
    p = linalg.require_int("p", p, 1)
    seed = None if isinstance(rng, np.random.Generator) else rng
    gen = np.random.default_rng(rng)
    # Scaling standard normals in place gives gen.normal(0, 1/sqrt(p))'s values
    # bit for bit, in 144 ms against 156 ms at n = 80, p = 2560 (2-core EPYC VM).
    mats = gen.standard_normal((p, n, n), out=out)
    mats *= 1.0 / np.sqrt(p)
    return MeasurementOperator(GAUSSIAN, n, p, mats=mats, seed=seed)


def make_completion(n, p, rng):
    """Completion operator: p distinct entries sampled uniformly without replacement."""
    p = linalg.require_int("p", p, 1, n * n)
    seed = None if isinstance(rng, np.random.Generator) else rng
    gen = np.random.default_rng(rng)
    flat = gen.choice(n * n, size=p, replace=False)
    indices = np.column_stack(np.divmod(flat, n)).astype(np.intp)
    return MeasurementOperator(COMPLETION, n, p, indices=indices, seed=seed)


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
        for key in ("qu_inv", "qv_inv"):
            factor = getattr(self, key)
            if factor is not None and np.shape(factor) != (self.n, self.n):
                raise ValueError(
                    f"weighting factor of shape {np.shape(factor)} does not match "
                    f"the {self.n} x {self.n} operator"
                )
            # An exact identity factor is dropped. Multiplying by it keeps every
            # value but turns -0.0 into +0.0, and the sign of a zero steers the
            # Householder reflectors of LAPACK's SVD and gelsd, so unit weights
            # would not reproduce the unweighted loop bit for bit.
            if factor is not None and np.array_equal(factor, np.eye(self.n)):
                setattr(self, key, None)

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

    samples: int
    delta_hat: float
    ratio_min: float
    ratio_max: float


def random_low_rank(n, rank, rng):
    """Random n x n matrix of rank ``rank``: Haar factors, spectrum uniform in [0.1, 1].

    Singular values stay bounded away from zero so isometry ratios are not
    dominated by near-zero matrices.
    """
    gen = np.random.default_rng(rng)
    u = random_orthonormal(n, rank, gen)
    v = random_orthonormal(n, rank, gen)
    sigma = gen.uniform(0.1, 1.0, size=rank)
    return (u * sigma) @ v.T


def estimate_rip(op, sample_mats):
    """Empirical isometry constant of ``op`` over the matrices ``sample_mats``.

    The caller draws the samples (for example with ``random_low_rank``), so
    one sample set can score several operators; an all-zero one raises ValueError.
    """
    ratios = []
    for x in sample_mats:
        y, squares = op.apply(x), float(np.sum(x * x))
        if not squares:
            raise ValueError("sample matrices must be nonzero")
        ratios.append(float(y @ y) / squares)
    if not ratios:
        raise ValueError("need at least one sample")
    ratio_min, ratio_max = min(ratios), max(ratios)
    return RipEstimate(len(ratios), max(1.0 - ratio_min, ratio_max - 1.0), ratio_min, ratio_max)
