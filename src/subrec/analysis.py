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
    return math.sqrt((math.sqrt(11.0 / 3.0) - 1.0) / 4.0)


def delta_for_rate(rate, tol=1e-14):
    """Isometry constant whose contraction factor equals ``rate`` (bisection).

    For example delta_for_rate(0.5) ~= 0.299449 (its square is ~0.089669).
    """
    if rate < 0.0:
        raise ValueError("rate must be nonnegative")
    if rate == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0 - 1e-12
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if convergence_factor(mid) < rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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

    Returns math.inf for an exact match; raises on a zero reference matrix.
    """
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    ref = np.linalg.norm(truth)
    if ref == 0.0:
        raise ValueError("reference matrix is zero")
    err = np.linalg.norm(truth - estimate)
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(ref / err)

