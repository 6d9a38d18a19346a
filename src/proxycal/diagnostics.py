"""Leave-one-domain-out calibration diagnostics.

True coverage cannot be checked on historical data because the primary metric
is only ever estimated. The observable stand-in: hold out one domain, build
its proxy-based interval from the remaining domains, and ask whether it
overlaps the held-out domain's own primary interval. Aggregated over domains
this yields an overlap rate and a normalized width, comparable across interval
construction methods.
"""

from __future__ import annotations

import numpy as np

from ._rng import derive_seed
from .core import DomainRecord, _diffs, _moments, _record_columns, _truncate
from .intervals import (
    DEFAULT_BOOTSTRAP_DRAWS,
    _bootstrap_draws,
    _BootWork,
    _check_alpha,
    _quantiles,
    normal_quantile,
)

METHODS = ("unadjusted", "plugin", "bootstrap")


def _wald_endpoints(z: np.ndarray, center: np.ndarray, variance: np.ndarray):
    """``center -+ z * sqrt(variance)`` with one row per quantile in ``z``."""
    half = z[:, None] * np.sqrt(variance)
    return center - half, center + half


def _loo_endpoints(
    history: list[DomainRecord],
    alphas: list[float],
    method: str,
    bootstrap_draws: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Proxy and primary interval endpoints of each held-out domain.

    Returns ``(proxy_lower, proxy_upper, primary_lower, primary_upper)``, each
    of shape ``(len(alphas), K)``. Each held-out domain's moments are fit, or
    its bootstrap replicates drawn, once for every alpha. It contributes only
    its proxy fields to the proxy-side interval; its primary estimate feeds
    the comparison interval alone. A zero mean primary width is rejected
    before any proxy interval is built.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if len(history) < 2:
        raise ValueError("leave-one-out diagnostics require at least 2 history records")
    for alpha in alphas:
        _check_alpha(alpha)

    columns = _record_columns(history)
    theta, theta_star, var_primary, var_proxy, _ = columns
    z = np.array([normal_quantile(1.0 - alpha / 2.0) for alpha in alphas])
    primary = _wald_endpoints(z, theta, var_primary)
    if (_mean_width(*primary) == 0.0).any():
        raise ValueError(
            "primary intervals have zero mean width: var_primary is too small "
            "to widen theta_hat (degenerate variances)"
        )

    d, dv = _diffs(*columns)
    if method == "unadjusted":
        proxy = _wald_endpoints(z, theta_star, var_proxy)
    elif method == "plugin":
        rho, gamma2 = np.empty(len(history)), np.empty(len(history))
        for k in range(len(history)):
            rho[k], raw = _moments(np.delete(d, k), np.delete(dv, k))
            gamma2[k] = _truncate(raw)
        proxy = _wald_endpoints(z, theta_star - rho, var_proxy + gamma2)
    else:
        levels = np.array([alpha / 2.0 for alpha in alphas] + [1.0 - alpha / 2.0 for alpha in alphas])
        q = np.empty((len(levels), len(history)))
        # every held-out fit resamples K - 1 domains, so one set of buffers serves all
        work = _BootWork.for_draws(len(history) - 1, bootstrap_draws)
        for k in range(len(history)):
            samples = _bootstrap_draws(
                np.delete(d, k), np.delete(dv, k), theta_star[k], var_proxy[k],
                bootstrap_draws, derive_seed(seed, k), work,
            )
            q[:, k] = _quantiles(samples, levels)
        proxy = q[: len(alphas)], q[len(alphas) :]
    if not np.isfinite(proxy).all():
        raise ValueError("held-out proxy interval endpoints must be finite")
    return (*proxy, *primary)


def _mean_width(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Mean width of each row's intervals, added left to right as Python's ``sum``.

    numpy's pairwise sum would round differently.
    """
    return np.cumsum(upper - lower, axis=1)[:, -1] / lower.shape[1]


def loo_table(
    history: list[DomainRecord],
    alphas: list[float],
    method: str = "plugin",
    bootstrap_draws: int = DEFAULT_BOOTSTRAP_DRAWS,
    seed: int = 0,
) -> list[tuple[float, float, float]]:
    """(alpha, overlap rate, normalized width) at each alpha, from one held-out pass.

    The overlap rate is the fraction of held-out domains whose proxy interval
    meets their primary interval (a shared endpoint counts); the normalized
    width is the mean proxy interval width over the mean primary width.
    """
    p_lo, p_hi, q_lo, q_hi = _loo_endpoints(history, alphas, method, bootstrap_draws, seed)
    k = len(history)
    hits = np.count_nonzero((p_lo <= q_hi) & (q_lo <= p_hi), axis=1)
    proxy_mean = _mean_width(p_lo, p_hi)
    primary_mean = _mean_width(q_lo, q_hi)
    return [
        (alpha, int(h) / k, float(p / q))
        for alpha, h, p, q in zip(alphas, hits, proxy_mean, primary_mean)
    ]
