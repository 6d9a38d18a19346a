"""Leave-one-domain-out calibration diagnostics.

True coverage cannot be checked on historical data because the primary metric
is only ever estimated. The observable stand-in: hold out one domain, build
its proxy-based interval from the remaining domains, and ask whether it
overlaps the held-out domain's own primary interval. Aggregated over domains
this yields an overlap rate and a normalized width, comparable across interval
construction methods.

The held-out intervals are built with the kernels that build ``adjust``'s, from
:mod:`proxycal.intervals`; this module keeps only the held-out bookkeeping: the
fits, the overlaps and the widths.
"""

from __future__ import annotations

import numpy as np

from ._rng import derive_seed
from .core import DomainRecord, _diffs, _located, _moments, _record_columns, _truncate
from .intervals import DEFAULT_BOOTSTRAP_DRAWS, _bootstrap_endpoints, _check_alpha, _wald_endpoints

METHODS = ("unadjusted", "plugin", "bootstrap")


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
    primary = _wald_endpoints(theta, var_primary, alphas)
    if (_mean_width(*primary) == 0.0).any():
        raise ValueError(
            "primary intervals have zero mean width: var_primary is too small "
            "to widen theta_hat (degenerate variances)"
        )

    d, dv = _diffs(*columns)
    if method == "unadjusted":
        proxy = _wald_endpoints(theta_star, var_proxy, alphas)
    elif method == "plugin":
        rho, gamma2 = np.empty(len(history)), np.empty(len(history))
        for k in range(len(history)):
            rho[k], raw = _moments(np.delete(d, k), np.delete(dv, k))
            gamma2[k] = _truncate(raw)
        # a center or variance beyond the float range is rejected below, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            proxy = _wald_endpoints(theta_star - rho, var_proxy + gamma2, alphas)
    else:
        proxy = np.empty((2, len(alphas), len(history)))
        for k, record in enumerate(history):
            with _located(f"held out domain {record.domain_id!r}"):
                proxy[:, :, k] = _bootstrap_endpoints(
                    np.delete(d, k), np.delete(dv, k), theta_star[k], var_proxy[k],
                    alphas, bootstrap_draws, derive_seed(seed, k),
                )
    finite = np.isfinite(proxy).all(axis=(0, 1))
    if not finite.all():
        domain_id = history[int(finite.argmin())].domain_id
        raise ValueError(f"held out domain {domain_id!r}: proxy interval endpoints must be finite")
    return (*proxy, *primary)


def _mean_width(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Mean width of each row's intervals, the widths added strictly left to right.

    numpy's pairwise ``sum`` would round differently, and so would Python's
    ``sum``, which compensates from 3.12 on.
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
