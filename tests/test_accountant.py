import math

import numpy as np
import pytest

import rdp_oracle
from promptxfer import accountant
from promptxfer.accountant import calibrate_sigma, rdp_epsilon

ORACLE_GRID = [
    # (sigma, q, steps, delta)
    (0.8, 0.01, 200, 1e-5),
    (1.0, 0.01, 1000, 1e-5),
    (1.0, 0.05, 500, 1e-4),
    (1.2, 0.02, 2000, 1e-5),
    (1.5, 0.10, 1000, 1e-4),
    (2.0, 0.05, 4000, 1e-5),
    (2.0, 0.25, 640, 8e-4),
    (3.0, 0.10, 2000, 1e-6),
    (2.5, 0.02, 5000, 1e-5),
    (1.1, 0.032, 640, 1.5e-5),
    (0.9, 0.04, 100, 1e-3),
    (5.0, 1.00, 500, 1e-5),
]


@pytest.mark.parametrize("sigma,q,steps,delta", ORACLE_GRID)
def test_rdp_epsilon_matches_quadrature_oracle(sigma, q, steps, delta):
    ours = rdp_epsilon(sigma, q, steps, delta)
    ref, _ = rdp_oracle.epsilon(sigma, q, steps, delta)
    assert abs(ours - ref) / ref < 0.01, f"ours={ours} oracle={ref}"


def _scalar_epsilon(sigma, q, steps, delta):
    """The binomial series one order and one term at a time, in plain floats."""
    best = math.inf
    for a in accountant.DEFAULT_ORDERS:
        terms = [
            math.lgamma(a + 1) - math.lgamma(i + 1) - math.lgamma(a - i + 1)
            + i * math.log(q) + (a - i) * math.log1p(-q) + (i * i - i) / (2.0 * sigma**2)
            for i in range(a + 1)
        ]
        top = max(terms)
        log_moment = top + math.log(math.fsum(math.exp(t - top) for t in terms))
        best = min(best, steps * log_moment / (a - 1) + math.log(1 / delta) / (a - 1))
    return best


@pytest.mark.parametrize(
    "sigma,q,steps,delta",
    # near lira's and post_dp's calibrated settings, then the ends of the sigma range
    [(0.82, 1 / 3, 6, 2e-3), (0.7, 1 / 16, 48, 4e-4), (0.3, 0.5, 20, 1e-6), (12.0, 0.002, 3000, 1e-7)],
)
def test_rdp_epsilon_matches_the_series_term_by_term(sigma, q, steps, delta):
    """Every order's series is one masked row of one array; each row must
    hold exactly its own order's terms."""
    assert rdp_epsilon(sigma, q, steps, delta) == pytest.approx(_scalar_epsilon(sigma, q, steps, delta), rel=1e-12)


def test_zero_steps_spends_nothing():
    assert rdp_epsilon(1.0, 0.01, 0, 1e-5) == 0.0


def test_monotonicity_grid():
    sigmas = [0.8, 1.0, 1.5, 2.5]
    eps_by_sigma = [rdp_epsilon(s, 0.02, 500, 1e-5) for s in sigmas]
    assert all(a >= b for a, b in zip(eps_by_sigma, eps_by_sigma[1:]))

    steps = [100, 500, 2000, 8000]
    eps_by_steps = [rdp_epsilon(1.0, 0.02, t, 1e-5) for t in steps]
    assert all(a <= b for a, b in zip(eps_by_steps, eps_by_steps[1:]))

    qs = [0.005, 0.02, 0.1, 0.5]
    eps_by_q = [rdp_epsilon(1.0, q, 500, 1e-5) for q in qs]
    assert all(a <= b for a, b in zip(eps_by_q, eps_by_q[1:]))

    deltas = [1e-7, 1e-5, 1e-3]
    eps_by_delta = [rdp_epsilon(1.0, 0.02, 500, d) for d in deltas]
    assert all(a >= b for a, b in zip(eps_by_delta, eps_by_delta[1:]))


def test_rejects_invalid_params():
    with pytest.raises(ValueError):
        rdp_epsilon(0.0, 0.01, 10, 1e-5)
    with pytest.raises(ValueError):
        rdp_epsilon(1.0, 1.5, 10, 1e-5)
    with pytest.raises(ValueError):
        rdp_epsilon(1.0, 0.01, -1, 1e-5)
    with pytest.raises(ValueError):
        rdp_epsilon(1.0, 0.01, 10, 2.0)


def test_calibrate_never_overspends():
    rng = np.random.default_rng(0)
    calibrated = 0
    for _ in range(8):
        eps = float(rng.uniform(0.5, 12.0))
        q = float(rng.uniform(0.01, 0.3))
        steps = int(rng.integers(50, 3000))
        delta = float(10.0 ** rng.uniform(-6, -3))
        try:
            sigma = calibrate_sigma(eps, delta, q, steps)
        except ValueError:
            # genuinely unattainable within the search range
            assert rdp_epsilon(100.0, q, steps, delta) > eps
            continue
        calibrated += 1
        spent = rdp_epsilon(sigma, q, steps, delta)
        assert spent <= eps + 1e-12
        assert spent >= 0.9 * eps or sigma == 0.3  # tight unless clamped at the floor
    assert calibrated >= 4


def test_calibrate_monotone_in_steps():
    s1 = calibrate_sigma(8.0, 1.5e-5, 0.032, 640)
    s2 = calibrate_sigma(8.0, 1.5e-5, 0.032, 1280)
    assert s2 > s1


def test_calibrate_paperlike_setting_cross_checked_with_oracle():
    # 1000 examples, batch 32, 20 epochs -> q = 0.032, T = 640
    sigma = calibrate_sigma(8.0, 1.5e-5, 0.032, 640)
    spent = rdp_epsilon(sigma, 0.032, 640, 1.5e-5)
    assert spent <= 8.0
    ref, _ = rdp_oracle.epsilon(sigma, 0.032, 640, 1.5e-5)
    assert abs(spent - ref) / ref < 0.01
    assert ref <= 8.0 * 1.01


def test_calibrate_unattainable_rejected():
    with pytest.raises(ValueError, match="cannot reach"):
        calibrate_sigma(0.0005, 1e-6, 0.5, 20000)


def test_calibrate_memoised_on_all_arguments(monkeypatch):
    calibrate_sigma.cache_clear()
    first = calibrate_sigma(4.0, 1e-5, 0.05, 100)
    calls = []
    real = accountant.rdp_epsilon
    monkeypatch.setattr(
        accountant, "rdp_epsilon", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    assert calibrate_sigma(4.0, 1e-5, 0.05, 100) is first
    assert calls == []
    calibrate_sigma(4.0, 1e-5, 0.05, 120)
    assert calls  # different step count: a new search


def test_nan_inputs_fail_closed():
    """Every comparison with NaN is false, so a check written as `x <= 0`
    would let NaN through: calibrate_sigma returned the search floor for a
    NaN target, and rdp_epsilon a NaN budget for a NaN sigma."""
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="target epsilon"):
            calibrate_sigma(bad, 1e-5, 0.05, 100)
    with pytest.raises(ValueError):
        calibrate_sigma(4.0, math.nan, 0.05, 100)
    for args in ((math.nan, 0.01, 10, 1e-5), (1.0, math.nan, 10, 1e-5), (1.0, 0.01, 10, math.nan)):
        with pytest.raises(ValueError):
            rdp_epsilon(*args)
