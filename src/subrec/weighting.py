"""Subspace-prior weighting operators.

A weighting operator Q is a symmetric positive-definite matrix that shrinks
directions believed to carry the signal. Both forms are one formula,

    Q = c I + B diag(w - c) B^T,    Q^-1 = I / c + B diag(1/w - 1/c) B^T,

for an orthonormal basis B, so Q has eigenvalue w_i on column i of B and c
on the rest of the space, with every weight in (0, 1]:

* single:        B is the prior basis, w its span weight on every column and
  c the complement weight, so Q = w_span * P + w_comp * (I - P) for the
  prior projector P;
* per_direction: B is the prior followed by r weighted complement
  directions, w their span then complement weights, and c = 1, so the
  remaining n - 2r directions keep weight 1.

Small weight = trusted direction (cheap to use, amplified by Q^-1).
"""

from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .linalg import angle_vector, finite_matrix, orthonormal_basis, require_prior_room

SINGLE = "single"
PER_DIRECTION = "per_direction"


def is_real(value):
    """Whether ``value`` is a real number: a Python or numpy int or float, not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def real_tuple(values, rule):
    """A list or tuple of numbers as floats; ValueError "<rule>, got <values>" for anything else."""
    if not isinstance(values, (list, tuple)) or not all(map(is_real, values)):
        raise ValueError(f"{rule}, got {values!r}")
    return tuple(float(v) for v in values)


def read_config(cls, cfg, what):
    """The dataclass ``cls`` built from the JSON object ``cfg``, read strictly.

    ValueError names ``what`` and the first fault in this order: ``cfg`` is
    not an object, it has keys that are not fields of ``cls``, or it lacks a
    field that has no default.
    """
    if not isinstance(cfg, Mapping):
        raise ValueError(f"a {what} must be a JSON object of fields, got {type(cfg).__name__}")
    extra = set(cfg) - {f.name for f in fields(cls)}
    if extra:
        raise ValueError(f"unknown {what} keys: {sorted(extra)}")
    for f in fields(cls):
        if f.name not in cfg and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{what} missing key {f.name!r}")
    return cls(**cfg)


@dataclass(frozen=True)
class WeightSpec:
    """Penalty weights for one side (rows or columns) of the recovery.

    ``span_weights`` applies to the prior subspace, ``complement_weights`` to
    the weighted complement directions. Numbers in single mode, lists or
    tuples of length r in per-direction mode (bools and strings are not
    numbers); every weight must lie in (0, 1] so the operator stays
    invertible. Per-direction entries are indexed by the
    principal angles in ascending order.
    """

    mode: str
    span_weights: object
    complement_weights: object

    def __post_init__(self):
        if self.mode not in (SINGLE, PER_DIRECTION):
            raise ValueError(f"unknown weighting mode {self.mode!r}")
        for key in ("span_weights", "complement_weights"):
            value = getattr(self, key)
            if self.mode == SINGLE:
                if not is_real(value):
                    raise ValueError(f"{key} must be a number in single mode, got {value!r}")
                value = float(value)
            else:
                value = real_tuple(value, f"{key} must be a list of numbers in per-direction mode")
            object.__setattr__(self, key, value)
        span, comp = self.span_weights, self.complement_weights
        if self.mode == PER_DIRECTION and (len(span) != len(comp) or not span):
            raise ValueError("per-direction weights need equal nonzero lengths")
        for w in np.atleast_1d(span).tolist() + np.atleast_1d(comp).tolist():
            if not 0.0 < w <= 1.0:
                raise ValueError(f"weight {w} outside (0, 1]")

    @classmethod
    def single(cls, span, complement):
        return cls(SINGLE, span, complement)

    @classmethod
    def per_direction(cls, span, complement):
        return cls(PER_DIRECTION, span, complement)

    @property
    def rank(self):
        """Number of weighted directions per side, or None in single mode."""
        return None if self.mode == SINGLE else len(self.span_weights)

    def require_rank(self, rank, name="weight spec"):
        """ValueError naming ``name`` unless a per-direction spec has one weight per direction."""
        if self.rank not in (None, rank):
            raise ValueError(f"{name} carries {self.rank} per-direction weights for rank {rank}")

    @classmethod
    def from_config(cls, cfg):
        return read_config(cls, cfg, "weight spec")


@dataclass(eq=False)
class WeightOperator:
    """Dense weighting operator with its cached inverse.

    ``weighted_complement`` holds the r complement directions that carry the
    complement weights in per-direction mode (None in single mode, where the
    whole complement is weighted uniformly).
    """

    q: np.ndarray
    q_inv: np.ndarray
    weighted_complement: np.ndarray = None


def build_weight_operator(prior, spec, complement_reference=None, rng=None):
    """Assemble Q and Q^-1 for a prior basis and a weight specification.

    Both modes take the module's one formula. A fault raises the ValueError
    of ``linalg.orthonormal_basis`` (prior), ``linalg.finite_matrix`` and an
    (n, >= r) shape (reference), ``WeightSpec.require_rank`` or, in
    per-direction mode, ``linalg.require_prior_room``.

    In per-direction mode the r weighted complement directions are the ones
    most aligned with ``complement_reference`` (normally the ground-truth
    subspace, so the directions that actually interact with the principal
    angles get the weights, ordered to match them). Without a reference the
    directions are drawn at random from the complement, which requires ``rng``.
    """
    prior = orthonormal_basis(prior)
    n, r = prior.shape
    spec.require_rank(r)
    if complement_reference is not None:
        complement_reference, _ = finite_matrix(complement_reference)
        if complement_reference.shape[0] != n or complement_reference.shape[1] < r:
            raise ValueError("complement reference has incompatible shape")
    dirs = None
    if spec.mode == SINGLE:
        c = spec.complement_weights
        basis = prior
        w = np.full(r, spec.span_weights)
    else:
        require_prior_room(n, r)
        dirs = _weighted_complement_directions(prior, complement_reference, rng)
        c = 1.0
        basis = np.hstack([prior, dirs])
        w = np.array(spec.span_weights + spec.complement_weights)
    q = _scaled_identity_plus_low_rank(c, basis, w)
    q_inv = _scaled_identity_plus_low_rank(1.0 / c, basis, 1.0 / w)
    return WeightOperator(q, q_inv, dirs)


def _scaled_identity_plus_low_rank(c, basis, w):
    """c I + B diag(w - c) B^T, equal to its transpose bit for bit.

    The adjoint of a weighted operator and the least-squares design take Q^-1
    to be symmetric, and a rounding-level asymmetry put near-zero-weight
    solves past the pinv oracle's 1e-10, so the low-rank term is averaged with
    its transpose. Weights equal to c contribute exact zeros, so unit weights
    give exactly I.
    """
    low = (basis * (w - c)) @ basis.T
    return c * np.eye(basis.shape[0]) + 0.5 * (low + low.T)


def _weighted_complement_directions(prior, reference, rng):
    n, r = prior.shape
    complement = np.linalg.svd(prior, full_matrices=True)[0][:, r:]
    if reference is not None:
        left = np.linalg.svd(complement.T @ reference, full_matrices=False)[0]
        # SVD orders by alignment with the reference (descending), which is
        # descending principal angle of the span side; flip so that index i
        # matches the i-th ascending angle, like the span weights.
        return complement @ left[:, :r][:, ::-1]
    if rng is None:
        raise ValueError("per-direction weighting needs a complement reference or an rng")
    g = np.random.default_rng(rng).standard_normal((n - r, r))
    return complement @ np.linalg.qr(g)[0]


def angle_weight(theta_deg):
    """Default heuristic mapping an angle in degrees to a weight in (0, 1]."""
    return np.clip(0.1 + 0.8 * (np.asarray(theta_deg, dtype=float) / 90.0), 0.1, 1.0)


def angles_to_weights(angles_deg, mode):
    """Derive a WeightSpec from principal angles via the affine heuristic.

    Span weights are angle_weight(theta) per direction (small angle = trusted
    = small weight), complement weights angle_weight(90 - theta). Single mode
    collapses to the mean angle. Explicit presets should be preferred when
    available; this map is only a reasonable default.
    """
    angles = angle_vector("angles_deg", angles_deg)
    if mode == SINGLE:
        mean = float(np.mean(angles))
        return WeightSpec(mode, angle_weight(mean), angle_weight(90.0 - mean))
    return WeightSpec(mode, angle_weight(angles).tolist(), angle_weight(90.0 - angles).tolist())
