"""Renyi-DP accountant for the subsampled Gaussian mechanism.

Per-step Renyi divergences are computed from the binomial log-moment series
(stable, log-space) at integer orders, composed linearly over steps, and
converted to (epsilon, delta) by minimizing RDP(alpha) + log(1/delta)/(alpha
- 1) over a fixed order grid.  The grid is the integers 2-64: fractional
orders below 2 never gave the minimum for this pipeline's settings.

Every order's series is one row of an [orders x (max order + 1)] array of
terms, with the terms past a row's order masked out, so one call evaluates
the whole grid with one `gammaln` per operand and a row log-sum-exp.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 65))
_ALPHAS = np.asarray(DEFAULT_ORDERS, dtype=np.float64)


def _log_moments(q: float, sigma: float, orders: np.ndarray) -> np.ndarray:
    """log A_alpha at each (integer) order, 0 < q < 1: the log-sum-exp over
    i = 0..alpha of log C(alpha, i) + i log q + (alpha - i) log(1 - q)
    + (i^2 - i) / (2 sigma^2)."""
    a = orders[:, None]
    i = np.arange(orders.max() + 1, dtype=np.float64)[None, :]
    inside = i <= a
    log_comb = special.gammaln(a + 1) - special.gammaln(i + 1) - special.gammaln(np.where(inside, a - i, 0.0) + 1)
    terms = log_comb + i * math.log(q) + (a - i) * math.log1p(-q) + (i * i - i) / (2.0 * sigma**2)
    terms = np.where(inside, terms, -np.inf)
    top = terms.max(axis=1)
    return top + np.log(np.exp(terms - top[:, None]).sum(axis=1))


def _validate(noise_multiplier: float, sample_rate: float, steps: int, delta: float) -> None:
    # each check is written so that NaN fails it
    if not noise_multiplier > 0:
        raise ValueError("noise multiplier must be positive")
    if not 0 < sample_rate <= 1:
        raise ValueError("sample rate must lie in (0, 1]")
    if not steps >= 0:
        raise ValueError("step count must be nonnegative")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")


def rdp_epsilon(noise_multiplier: float, sample_rate: float, steps: int, delta: float) -> float:
    """Spent epsilon after `steps` compositions at failure probability delta."""
    _validate(noise_multiplier, sample_rate, steps, delta)
    if steps == 0:
        return 0.0
    if sample_rate == 1.0:
        per_step = _ALPHAS / (2.0 * noise_multiplier**2)
    else:
        per_step = _log_moments(sample_rate, noise_multiplier, _ALPHAS) / (_ALPHAS - 1.0)
    return float(np.min(steps * per_step + math.log(1.0 / delta) / (_ALPHAS - 1.0)))


SIGMA_SEARCH_RANGE = (0.3, 100.0)


@functools.lru_cache(maxsize=None)
def calibrate_sigma(target_epsilon: float, delta: float, sample_rate: float, steps: int) -> float:
    """Smallest noise multiplier (within ~1%) that stays within target_epsilon.

    Binary search over sigma in [0.3, 100]; the returned sigma never
    overspends the budget.  The search is pure, so it is memoised on its
    arguments: repeated calibrations (one per DP shadow prompt) cost nothing.
    """
    if not 0 < target_epsilon < math.inf:
        raise ValueError(f"target epsilon must be positive and finite, got {target_epsilon}")
    lo, hi = SIGMA_SEARCH_RANGE
    _validate(hi, sample_rate, steps, delta)
    if steps == 0:
        return lo

    def spent(sigma: float) -> float:
        return rdp_epsilon(sigma, sample_rate, steps, delta)

    if spent(hi) > target_epsilon:
        raise ValueError(
            f"cannot reach epsilon={target_epsilon} with sigma <= {hi} "
            f"(q={sample_rate}, steps={steps}, delta={delta}); shrink steps or sample rate"
        )
    if spent(lo) <= target_epsilon:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        eps_mid = spent(mid)
        if eps_mid > target_epsilon:
            lo = mid
        else:
            hi = mid
            if eps_mid >= 0.99 * target_epsilon:
                break
    return hi
