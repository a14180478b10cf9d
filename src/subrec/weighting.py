"""Subspace-prior weighting operators.

A weighting operator Q is a symmetric positive-definite matrix that shrinks
directions believed to carry the signal: Q has eigenvalue w on each weighted
direction and 1 elsewhere, with every w in (0, 1]. Two forms are supported:

* single:        Q = w_span * P + w_comp * (I - P) for the prior projector P;
* per_direction: each prior column gets its own span weight, and exactly r
  complement directions get the complement weights; the remaining n - 2r
  directions keep weight 1.

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

    In per-direction mode the r weighted complement directions are the ones
    most aligned with ``complement_reference`` (normally the ground-truth
    subspace, so the directions that actually interact with the principal
    angles get the weights, ordered to match them). Without a reference the
    directions are drawn at random from the complement, which requires ``rng``.
    """
    prior = np.asarray(prior, dtype=float)
    if prior.ndim != 2:
        raise ValueError("prior basis must be 2-d")
    n, r = prior.shape
    if np.linalg.norm(prior.T @ prior - np.eye(r)) > 1e-8:
        raise ValueError("prior basis columns are not orthonormal")

    # Both forms are assembled as identity plus low-rank corrections, so unit
    # weights contribute exactly nothing (the all-ones operator is exactly I).
    if spec.mode == SINGLE:
        w_span = spec.span_weights
        w_comp = spec.complement_weights
        eye = np.eye(n)
        p_span = prior @ prior.T
        q = w_comp * eye + (w_span - w_comp) * p_span
        q_inv = (1.0 / w_comp) * eye + (1.0 / w_span - 1.0 / w_comp) * p_span
        return WeightOperator(q, q_inv)

    if spec.rank != r:
        raise ValueError(f"spec carries {spec.rank} weights but prior has rank {r}")
    if n < 2 * r:
        raise ValueError(f"ambient dimension {n} cannot host {r} weighted complement directions")
    dirs = _weighted_complement_directions(prior, complement_reference, rng)
    w_span = np.asarray(spec.span_weights)
    w_comp = np.asarray(spec.complement_weights)
    eye = np.eye(n)
    q = eye + (prior * (w_span - 1.0)) @ prior.T + (dirs * (w_comp - 1.0)) @ dirs.T
    q_inv = (
        eye
        + (prior * (1.0 / w_span - 1.0)) @ prior.T
        + (dirs * (1.0 / w_comp - 1.0)) @ dirs.T
    )
    return WeightOperator(q, q_inv, dirs)


def _weighted_complement_directions(prior, reference, rng):
    n, r = prior.shape
    complement = np.linalg.svd(prior, full_matrices=True)[0][:, r:]
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
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
    if np.any(angles < 0.0) or np.any(angles > 90.0):
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
