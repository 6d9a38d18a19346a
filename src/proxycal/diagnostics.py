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
from .core import DomainRecord, TargetRecord, _bias_model, diff_arrays
from .intervals import (
    DEFAULT_BOOTSTRAP_DRAWS,
    ConfidenceInterval,
    _bootstrap_draws,
    _quantile_interval,
    plugin_interval,
    wald_interval,
)

METHODS = ("unadjusted", "plugin", "bootstrap")

_Pairs = list[tuple[ConfidenceInterval, ConfidenceInterval]]


def intervals_overlap(a: ConfidenceInterval, b: ConfidenceInterval) -> bool:
    """Whether two closed intervals intersect; a shared endpoint counts."""
    return a.lower <= b.upper and b.lower <= a.upper


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def _loo_interval_pairs(
    history: list[DomainRecord],
    alphas: list[float],
    method: str,
    bootstrap_draws: int,
    seed: int,
) -> list[_Pairs]:
    """(proxy interval, primary interval) of each held-out domain, per alpha.

    Each held-out domain's model is fit, or its bootstrap replicates drawn,
    once for every alpha. It contributes only its proxy fields to the
    proxy-side interval; its primary estimate feeds the comparison interval
    alone.
    """
    _check_method(method)
    if len(history) < 2:
        raise ValueError("leave-one-out diagnostics require at least 2 history records")

    d, dv = diff_arrays(history)
    pairs: list[_Pairs] = [[] for _ in alphas]
    for k, rec in enumerate(history):
        primary = [wald_interval(rec.theta_hat, rec.var_primary, alpha) for alpha in alphas]
        held_out = TargetRecord(rec.domain_id, rec.theta_star_hat, rec.var_proxy)
        if method == "unadjusted":
            proxy = [wald_interval(rec.theta_star_hat, rec.var_proxy, alpha) for alpha in alphas]
        elif method == "plugin":
            model = _bias_model(np.delete(d, k), np.delete(dv, k))
            proxy = [plugin_interval(held_out, model, alpha) for alpha in alphas]
        else:
            samples = _bootstrap_draws(
                np.delete(d, k), np.delete(dv, k), held_out, bootstrap_draws, derive_seed(seed, k)
            )
            proxy = [_quantile_interval(samples, alpha) for alpha in alphas]
        for out, p, q in zip(pairs, proxy, primary):
            out.append((p, q))
    return pairs


def _overlap_rate(pairs: _Pairs) -> float:
    return sum(intervals_overlap(p, q) for p, q in pairs) / len(pairs)


def _width_ratio(pairs: _Pairs) -> float:
    proxy_mean = sum(p.width for p, _ in pairs) / len(pairs)
    primary_mean = sum(q.width for _, q in pairs) / len(pairs)
    if primary_mean == 0.0:
        raise ValueError("primary intervals have zero mean width (degenerate variances)")
    return proxy_mean / primary_mean


def loo_overlap_rate(
    history: list[DomainRecord],
    alpha: float,
    method: str = "plugin",
    bootstrap_draws: int = DEFAULT_BOOTSTRAP_DRAWS,
    seed: int = 0,
) -> float:
    """Fraction of held-out domains whose proxy interval meets their primary interval."""
    return _overlap_rate(_loo_interval_pairs(history, [alpha], method, bootstrap_draws, seed)[0])


def overlap_curve(
    history: list[DomainRecord],
    alphas: list[float],
    method: str = "plugin",
    bootstrap_draws: int = DEFAULT_BOOTSTRAP_DRAWS,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Overlap rate evaluated at each alpha, as (alpha, rate) pairs."""
    passes = _loo_interval_pairs(history, alphas, method, bootstrap_draws, seed)
    return [(alpha, _overlap_rate(pairs)) for alpha, pairs in zip(alphas, passes)]


def normalized_width(
    history: list[DomainRecord],
    alpha: float,
    method: str = "plugin",
    bootstrap_draws: int = DEFAULT_BOOTSTRAP_DRAWS,
    seed: int = 0,
) -> float:
    """Mean held-out proxy interval width over mean primary interval width."""
    return _width_ratio(_loo_interval_pairs(history, [alpha], method, bootstrap_draws, seed)[0])


def loo_table(
    history: list[DomainRecord],
    alphas: list[float],
    method: str = "plugin",
    bootstrap_draws: int = DEFAULT_BOOTSTRAP_DRAWS,
    seed: int = 0,
) -> list[tuple[float, float, float]]:
    """(alpha, overlap rate, normalized width) at each alpha, from one held-out pass."""
    passes = _loo_interval_pairs(history, alphas, method, bootstrap_draws, seed)
    return [(a, _overlap_rate(pairs), _width_ratio(pairs)) for a, pairs in zip(alphas, passes)]
