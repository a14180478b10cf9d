import math

import numpy as np
import pytest

from subrec.analysis import (
    convergence_factor,
    delta_for_rate,
    delta_threshold,
    error_bound,
    snr_db,
)


def test_factor_at_zero_and_monotone():
    assert convergence_factor(0.0) == 0.0
    grid = np.linspace(0.0, 0.999, 1000)
    values = [convergence_factor(d) for d in grid]
    assert np.all(np.diff(values) > 0.0)


def test_factor_at_threshold_is_one():
    thr = delta_threshold()
    assert abs(convergence_factor(thr) - 1.0) <= 1e-10
    assert convergence_factor(thr - 1e-6) < 1.0 < convergence_factor(thr + 1e-6)


def test_factor_rejects_bad_delta():
    with pytest.raises(ValueError):
        convergence_factor(1.0)
    with pytest.raises(ValueError):
        convergence_factor(-0.1)


def test_threshold_value_and_polynomial_root():
    thr = delta_threshold()
    assert abs(thr - 0.4782) <= 1e-4
    assert abs(6.0 * thr**4 + 3.0 * thr**2 - 1.0) <= 1e-12


def test_delta_for_rate_half():
    root = delta_for_rate(0.5)
    assert abs(root - 0.29944861466709633) <= 1e-9
    assert abs(convergence_factor(root) - 0.5) <= 1e-9
    assert delta_for_rate(0.0) == 0.0
    with pytest.raises(ValueError):
        delta_for_rate(-0.5)


def test_error_bound_cases():
    assert error_bound(0.3, 0, 2.5, 0.0, 0.0) == 2.5
    assert error_bound(0.0, 1, 5.0, 0.0, 0.0) == 0.0
    rho = convergence_factor(0.04)
    for k in range(1, 5):
        assert abs(error_bound(0.04, k, 1.0, 0.0, 0.0) - rho**k) <= 1e-15
    with pytest.raises(ValueError):
        error_bound(delta_threshold() + 1e-3, 1, 1.0, 0.0, 0.0)


def test_error_bound_monotonicities():
    ks = range(0, 8)
    bounds = [error_bound(0.3, k, 1.0, 0.1, 0.1) for k in ks]
    assert all(b <= a for a, b in zip(bounds, bounds[1:]))
    assert error_bound(0.3, 2, 1.0, 0.2, 0.1) > error_bound(0.3, 2, 1.0, 0.1, 0.1)
    assert error_bound(0.3, 2, 1.0, 0.1, 0.2) > error_bound(0.3, 2, 1.0, 0.1, 0.1)


def test_snr_values():
    truth = np.eye(4)
    est = truth + 1e-2 / np.sqrt(4) * np.eye(4) * 2  # error norm = 1e-2 * ||truth||
    assert abs(snr_db(truth, truth * (1 - 1e-2)) - 40.0) <= 1e-9
    assert abs(snr_db(truth, np.zeros((4, 4))) - 0.0) <= 1e-12
    assert abs(snr_db(truth, truth * (1 - 1e-5)) - 100.0) <= 1e-8
    assert snr_db(truth, truth) == math.inf


def test_snr_scale_invariance_and_errors():
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((5, 5))
    est = truth + 0.1 * rng.standard_normal((5, 5))
    assert abs(snr_db(truth, est) - snr_db(3.0 * truth, 3.0 * est)) <= 1e-10
    with pytest.raises(ValueError):
        snr_db(np.zeros((3, 3)), np.eye(3))


@pytest.mark.parametrize("estimate_shape", [(3,), (3, 1), (1, 3), (3, 3, 1), (4, 4)])
def test_snr_rejects_an_estimate_of_another_shape(estimate_shape):
    # A (3,) estimate broadcast against a (3, 3) truth and read 0.0 dB.
    with pytest.raises(ValueError, match=r"^truth has shape \(3, 3\) but the estimate"):
        snr_db(np.eye(3), np.ones(estimate_shape))
