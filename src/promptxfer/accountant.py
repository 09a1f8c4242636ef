"""Renyi-DP accountant for the subsampled Gaussian mechanism.

Per-step Renyi divergences are computed from the log-moment series (stable,
log-space), composed linearly over steps, and converted to (epsilon, delta)
by minimizing RDP(alpha) + log(1/delta)/(alpha - 1) over a fixed order grid.
"""

from __future__ import annotations

import functools
import logging
import math

import numpy as np
from scipy import special

log = logging.getLogger(__name__)

DEFAULT_ORDERS: tuple[float, ...] = (1.25, 1.5) + tuple(float(a) for a in range(2, 65))

_MAX_FRAC_TERMS = 1000


def _log_add(logx: float, logy: float) -> float:
    a, b = min(logx, logy), max(logx, logy)
    if a == -math.inf:
        return b
    return math.log1p(math.exp(a - b)) + b


def _log_comb(n: float, k: float) -> float:
    return special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1)


def _log_erfc(x: float) -> float:
    return math.log(2.0) + special.log_ndtr(-x * 2**0.5)


def _log_moment_int(q: float, sigma: float, alpha: int) -> float:
    """log A_alpha via the binomial series, integer alpha."""
    total = -math.inf
    log_q, log_1mq = math.log(q), math.log1p(-q)
    for i in range(alpha + 1):
        term = _log_comb(alpha, i) + i * log_q + (alpha - i) * log_1mq
        total = _log_add(total, term + (i * i - i) / (2.0 * sigma**2))
    return total


def _log_moment_frac(q: float, sigma: float, alpha: float) -> float:
    """log A_alpha for fractional alpha via the two-sided tail series."""
    log_a0, log_a1 = -math.inf, -math.inf
    z0 = sigma**2 * math.log(1.0 / q - 1.0) + 0.5
    log_q, log_1mq = math.log(q), math.log1p(-q)
    last0 = last1 = -math.inf
    for i in range(_MAX_FRAC_TERMS):
        j = alpha - i
        coef = _log_comb(alpha, i)
        t0 = coef + i * log_q + j * log_1mq
        t1 = coef + j * log_q + i * log_1mq
        e0 = math.log(0.5) + _log_erfc((i - z0) / (math.sqrt(2.0) * sigma))
        e1 = math.log(0.5) + _log_erfc((z0 - j) / (math.sqrt(2.0) * sigma))
        s0 = t0 + (i * i - i) / (2.0 * sigma**2) + e0
        s1 = t1 + (j * j - j) / (2.0 * sigma**2) + e1
        log_a0 = _log_add(log_a0, s0)
        log_a1 = _log_add(log_a1, s1)
        total = _log_add(log_a0, log_a1)
        if s0 < last0 and s1 < last1 and max(s0, s1) < total - 30:
            return total
        last0, last1 = s0, s1
    # Slowly-converging corner; drop the order from the minimization (each
    # order is an independent upper bound, so excluding one stays sound).
    log.warning(
        "fractional moment series stalled (q=%s, sigma=%s, alpha=%s); order excluded", q, sigma, alpha
    )
    return math.inf


def rdp_step(noise_multiplier: float, sample_rate: float, alpha: float) -> float:
    """Renyi divergence of one subsampled Gaussian step at order alpha."""
    if sample_rate == 1.0:
        return alpha / (2.0 * noise_multiplier**2)
    if float(alpha).is_integer():
        log_a = _log_moment_int(sample_rate, noise_multiplier, int(alpha))
    else:
        log_a = _log_moment_frac(sample_rate, noise_multiplier, float(alpha))
    return log_a / (alpha - 1.0)


def _validate(noise_multiplier: float, sample_rate: float, steps: int, delta: float) -> None:
    if noise_multiplier <= 0:
        raise ValueError("noise multiplier must be positive")
    if not 0 < sample_rate <= 1:
        raise ValueError("sample rate must lie in (0, 1]")
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")


def rdp_epsilon(
    noise_multiplier: float,
    sample_rate: float,
    steps: int,
    delta: float,
    orders: tuple[float, ...] = DEFAULT_ORDERS,
) -> float:
    """Spent epsilon after `steps` compositions at failure probability delta."""
    _validate(noise_multiplier, sample_rate, steps, delta)
    if steps == 0:
        return 0.0
    log_inv_delta = math.log(1.0 / delta)
    best = math.inf
    for alpha in orders:
        eps = steps * rdp_step(noise_multiplier, sample_rate, alpha) + log_inv_delta / (alpha - 1.0)
        best = min(best, eps)
    return best


SIGMA_SEARCH_RANGE = (0.3, 100.0)


@functools.lru_cache(maxsize=None)
def calibrate_sigma(
    target_epsilon: float,
    delta: float,
    sample_rate: float,
    steps: int,
    orders: tuple[float, ...] = DEFAULT_ORDERS,
) -> float:
    """Smallest noise multiplier (within ~1%) that stays within target_epsilon.

    Binary search over sigma in [0.3, 100]; the returned sigma never
    overspends the budget.  The search is pure, so it is memoised on its
    arguments: repeated calibrations (one per DP shadow prompt) cost nothing.
    """
    if target_epsilon <= 0:
        raise ValueError("target epsilon must be positive")
    lo, hi = SIGMA_SEARCH_RANGE
    _validate(hi, sample_rate, steps, delta)
    if steps == 0:
        return lo

    def spent(sigma: float) -> float:
        return rdp_epsilon(sigma, sample_rate, steps, delta, orders=orders)

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
