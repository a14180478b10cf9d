"""Convergence constants of the weighted greedy loop, error bounds, and SNR."""

import math

import numpy as np


def convergence_factor(delta):
    """Per-iteration contraction factor sqrt(2 d^2 (1 + 3 d^2) / (1 - d^2)).

    ``delta`` is the rank-4r isometry constant of the (weighted) measurement
    operator. The iteration contracts when the factor is below one.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    d2 = delta * delta
    return math.sqrt(2.0 * d2 * (1.0 + 3.0 * d2) / (1.0 - d2))


def delta_threshold():
    """Largest isometry constant with contraction factor below one.

    The positive root of 6 t^4 + 3 t^2 - 1, i.e. sqrt((sqrt(11/3) - 1) / 4),
    approximately 0.47824.
    """
    return delta_for_rate(1.0)


def delta_for_rate(rate):
    """Isometry constant whose contraction factor equals ``rate`` (closed form).

    With t = d^2 the factor equation is 6 t^2 + (2 + rate^2) t - rate^2 = 0;
    its positive root is taken in the cancellation-free form
    2 rate^2 / (b + sqrt(b^2 + 24 rate^2)), b = 2 + rate^2. For example
    delta_for_rate(0.5) ~= 0.299449 (its square is ~0.089669).
    """
    if rate < 0.0:
        raise ValueError("rate must be nonnegative")
    r2 = rate * rate
    b = 2.0 + r2
    return math.sqrt(2.0 * r2 / (b + math.sqrt(b * b + 24.0 * r2)))


def error_bound(delta, k, init_err, proxy_noise, residual_noise):
    """Worst-case recovery error after k iterations.

    rho^k * init_err
      + sqrt(2 (1 + 3 d^2) / (1 - d^2)) * proxy_noise
      + 2 / (1 - d) * residual_noise.

    The two noise norms are inputs: they are projections of the measured
    rank-overflow term onto iteration-dependent supports, which the caller
    must supply. Raises for delta at or beyond the convergence threshold.
    """
    if delta >= delta_threshold():
        raise ValueError(f"no convergence guarantee for delta = {delta}")
    rho = convergence_factor(delta)
    d2 = delta * delta
    proxy_coeff = math.sqrt(2.0 * (1.0 + 3.0 * d2) / (1.0 - d2))
    residual_coeff = 2.0 / (1.0 - delta)
    return rho**k * init_err + proxy_coeff * proxy_noise + residual_coeff * residual_noise


def snr_db(truth, estimate):
    """Recovery SNR in dB: 20 log10(||truth||_F / ||truth - estimate||_F).

    Returns math.inf for an exact match; raises on a zero truth or unequal shapes.
    """
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        raise ValueError(f"truth has shape {truth.shape} but the estimate {estimate.shape}")
    ref = np.linalg.norm(truth)
    if ref == 0.0:
        raise ValueError("reference matrix is zero")
    err = np.linalg.norm(truth - estimate)
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(ref / err)

