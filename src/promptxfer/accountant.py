"""Renyi-DP accountant for the subsampled Gaussian mechanism.

Per-step Renyi divergences are computed from the binomial log-moment series
(stable, log-space) at integer orders, composed linearly over steps, and
converted to (epsilon, delta) by minimizing RDP(alpha) + log(1/delta)/(alpha
- 1) over a fixed order grid.  The grid is the integers 2-64: fractional
orders below 2 never gave the minimum for this pipeline's settings.
"""

from __future__ import annotations

import functools
import math

from scipy import special

DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 65))


def _log_add(logx: float, logy: float) -> float:
    a, b = min(logx, logy), max(logx, logy)
    if a == -math.inf:
        return b
    return math.log1p(math.exp(a - b)) + b


def _log_comb(n: float, k: float) -> float:
    return special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1)


def _log_moment_int(q: float, sigma: float, alpha: int) -> float:
    """log A_alpha via the binomial series, integer alpha."""
    total = -math.inf
    log_q, log_1mq = math.log(q), math.log1p(-q)
    for i in range(alpha + 1):
        term = _log_comb(alpha, i) + i * log_q + (alpha - i) * log_1mq
        total = _log_add(total, term + (i * i - i) / (2.0 * sigma**2))
    return total


def rdp_step(noise_multiplier: float, sample_rate: float, alpha: int) -> float:
    """Renyi divergence of one subsampled Gaussian step at integer order alpha."""
    if not float(alpha).is_integer() or alpha < 2:
        raise ValueError(f"RDP orders must be integers >= 2, got {alpha}")
    if sample_rate == 1.0:
        return alpha / (2.0 * noise_multiplier**2)
    return _log_moment_int(sample_rate, noise_multiplier, int(alpha)) / (alpha - 1.0)


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
    orders: tuple[int, ...] = DEFAULT_ORDERS,
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
    orders: tuple[int, ...] = DEFAULT_ORDERS,
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
