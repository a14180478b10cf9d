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

from dataclasses import dataclass

import numpy as np

from .linalg import as_generator

SINGLE = "single"
PER_DIRECTION = "per_direction"


def is_real(value):
    """Whether ``value`` is a real number: a Python or numpy int or float, not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


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
                if not isinstance(value, (list, tuple)) or not all(map(is_real, value)):
                    raise ValueError(
                        f"{key} must be a list of numbers in per-direction mode, got {value!r}"
                    )
                value = tuple(float(w) for w in value)
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

    @classmethod
    def from_config(cls, cfg):
        extra = set(cfg) - {"mode", "span_weights", "complement_weights"}
        if extra:
            raise ValueError(f"unknown weight-spec keys: {sorted(extra)}")
        try:
            return cls(cfg["mode"], cfg["span_weights"], cfg["complement_weights"])
        except KeyError as missing:
            raise ValueError(f"weight spec missing key {missing}") from None


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

    Both modes take the module's one formula; a non-finite prior or reference
    raises ValueError.

    In per-direction mode the r weighted complement directions are the ones
    most aligned with ``complement_reference`` (normally the ground-truth
    subspace, so the directions that actually interact with the principal
    angles get the weights, ordered to match them). Without a reference the
    directions are drawn at random from the complement, which requires ``rng``.
    """
    prior = np.asarray_chkfinite(prior, dtype=float)
    if prior.ndim != 2:
        raise ValueError("prior basis must be 2-d")
    n, r = prior.shape
    if np.linalg.norm(prior.T @ prior - np.eye(r)) > 1e-8:
        raise ValueError("prior basis columns are not orthonormal")

    dirs = None
    if spec.mode == SINGLE:
        c = spec.complement_weights
        basis = prior
        w = np.full(r, spec.span_weights)
    else:
        if spec.rank != r:
            raise ValueError(f"spec carries {spec.rank} weights but prior has rank {r}")
        if n < 2 * r:
            raise ValueError(f"ambient dimension {n} cannot host {r} weighted complement directions")
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
        reference = np.asarray_chkfinite(reference, dtype=float)
        if reference.shape[0] != n or reference.shape[1] < r:
            raise ValueError("complement reference has incompatible shape")
        left = np.linalg.svd(complement.T @ reference, full_matrices=False)[0]
        # SVD orders by alignment with the reference (descending), which is
        # descending principal angle of the span side; flip so that index i
        # matches the i-th ascending angle, like the span weights.
        return complement @ left[:, :r][:, ::-1]
    if rng is None:
        raise ValueError("per-direction weighting needs a complement reference or an rng")
    g = as_generator(rng).standard_normal((n - r, r))
    return complement @ np.linalg.qr(g)[0]


def angle_weight(theta_deg):
    """Default heuristic mapping an angle in degrees to a weight in (0, 1]."""
    return np.clip(0.1 + 0.8 * (np.asarray(theta_deg, dtype=float) / 90.0), 0.1, 1.0)


def angles_to_weights(angles_deg, mode=PER_DIRECTION):
    """Derive a WeightSpec from principal angles via the affine heuristic.

    Span weights are angle_weight(theta) per direction (small angle = trusted
    = small weight), complement weights angle_weight(90 - theta). Single mode
    collapses to the mean angle. Explicit presets should be preferred when
    available; this map is only a reasonable default.
    """
    angles = np.asarray(angles_deg, dtype=float)
    if not np.all((angles >= 0.0) & (angles <= 90.0)):
        raise ValueError("angles must lie in [0, 90] degrees")
    if mode == SINGLE:
        mean = float(np.mean(angles))
        return WeightSpec.single(float(angle_weight(mean)), float(angle_weight(90.0 - mean)))
    if mode == PER_DIRECTION:
        return WeightSpec.per_direction(
            tuple(angle_weight(angles).tolist()),
            tuple(angle_weight(90.0 - angles).tolist()),
        )
    raise ValueError(f"unknown weighting mode {mode!r}")
