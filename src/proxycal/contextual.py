"""Context- and recency-aware bias estimation.

When domains carry side information (an embedded context vector, a timestamp),
the bias distribution can be estimated locally: history domains are weighted
by a squared-exponential similarity kernel, optionally damped by a Gaussian
time-decay kernel, and the moment fit runs on the weighted differences. The
similarity bandwidth is tuned by maximizing a weighted Gaussian marginal
likelihood over a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BiasModel, DomainRecord, TargetRecord, _bias_model, _check_fit, _moments,
                   _truncate, diff_arrays)
from .intervals import ConfidenceInterval, plugin_interval

# Domains below this weight are dropped from the likelihood; under the weight
# normalization this perturbs the objective by well under 1e-9.
WEIGHT_FLOOR = 1e-12

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ContextWeights:
    """Normalized nonnegative domain weights, one per history record."""

    weights: tuple[float, ...]
    beta: float
    time_bandwidth: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        _check_weights(np.array(self.weights))
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.time_bandwidth is not None and self.time_bandwidth <= 0:
            raise ValueError(f"time_bandwidth must be > 0, got {self.time_bandwidth}")


def _check_weights(w: np.ndarray) -> None:
    """Raise unless ``w`` is finite and nonnegative and, added left to right, sums to one."""
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValueError("weights must be finite and nonnegative")
    total = sum(w.tolist())
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"weights must sum to 1, got {total}")


def similarity_weights(
    history_contexts: list[tuple[float, ...]],
    target_context: tuple[float, ...],
    beta: float,
) -> ContextWeights:
    """Squared-exponential similarity of each history context to the target.

    Raw similarity is ``exp(-||c - c_k||^2 / (2 beta^2))``, normalized to sum
    to one. If every similarity underflows to zero the target sits far outside
    the history's context support and no weighting is meaningful.
    """
    w = _kernel_weights(_squared_distances(history_contexts, target_context), beta)
    return ContextWeights(weights=tuple(w), beta=beta)


def _squared_distances(
    history_contexts: list[tuple[float, ...]], target_context: tuple[float, ...]
) -> np.ndarray:
    """Squared Euclidean distance of each history context to the target's, a row's 1-D sum."""
    tgt = np.asarray(target_context, dtype=float)
    for c in history_contexts:
        if len(c) != len(tgt):
            raise ValueError(
                f"context dimension mismatch: history has {len(c)}, target has {len(tgt)}"
            )
    diff = np.array(history_contexts, dtype=float).reshape(len(history_contexts), len(tgt)) - tgt
    return np.square(diff).sum(axis=1)


def _kernel_weights(sq: np.ndarray, beta: float) -> np.ndarray:
    """Normalized squared-exponential weights at bandwidth ``beta``, checked as
    :class:`ContextWeights` checks its weights."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    raw = np.exp(-sq / (2.0 * beta * beta))
    total = raw.sum()
    if total == 0.0:
        raise ValueError("all similarities underflowed: target context lies outside history support")
    w = raw / total
    _check_weights(w)
    return w


def time_decay_weights(
    base: ContextWeights,
    history_times: list[float],
    target_time: float,
    h: float,
) -> ContextWeights:
    """Damp ``base`` by a Gaussian kernel in the time gap and renormalize."""
    if h <= 0:
        raise ValueError(f"time bandwidth h must be > 0, got {h}")
    if len(history_times) != len(base.weights):
        raise ValueError("one timestamp per history domain is required")
    if any(t is None or not math.isfinite(t) for t in history_times):
        raise ValueError("missing or non-finite timestamp in history")
    gaps = np.asarray(history_times, dtype=float) - float(target_time)
    kern = np.exp(-(gaps ** 2) / (2.0 * h * h))
    raw = np.asarray(base.weights) * kern
    total = raw.sum()
    if total == 0.0:
        raise ValueError("all time-decay weights underflowed: history too distant in time")
    return ContextWeights(weights=tuple(raw / total), beta=base.beta, time_bandwidth=h)


def fit_weighted_mom(history: list[DomainRecord], weights: ContextWeights) -> BiasModel:
    """Moment fit with externally supplied domain weights.

    ``rho`` is the weighted mean of the differences and ``gamma2`` the
    weighted mean squared deviation minus the weighted mean difference
    variance, truncated at zero. Uniform weights reproduce the unweighted fit.
    """
    if len(weights.weights) != len(history):
        raise ValueError(
            f"got {len(weights.weights)} weights for {len(history)} history records"
        )
    return _bias_model(*diff_arrays(history), np.asarray(weights.weights))


def _side_field(history: list[DomainRecord], field: str) -> list:
    """Every record's ``context`` or ``timestamp``; each record must carry it."""
    for rec in history:
        if getattr(rec, field) is None:
            raise ValueError(f"{rec.domain_id}: {field} required but missing")
    return [getattr(rec, field) for rec in history]


def _weighted_loglik(d: np.ndarray, dv: np.ndarray, w: np.ndarray, rho: float, gamma2: float) -> float:
    """Weighted Gaussian marginal log-likelihood of the differences.

    A zero total variance at a carried domain makes the likelihood degenerate;
    that bandwidth scores -inf rather than raising.
    """
    active = w > WEIGHT_FLOOR
    v = gamma2 + dv[active]
    if np.any(v == 0.0):
        return -math.inf
    terms = np.log(v) + (d[active] - rho) ** 2 / v
    return float(-0.5 * (w[active] @ terms))


def beta_profile(
    history: list[DomainRecord],
    target_context: tuple[float, ...],
    beta_grid: list[float],
) -> list[tuple[float, float]]:
    """Marginal log-likelihood at every grid bandwidth, as (beta, loglik)."""
    if not beta_grid:
        raise ValueError("beta_grid must be non-empty")
    if len(history) < 2:
        raise ValueError("bandwidth tuning requires at least 2 history records")
    sq = _squared_distances(_side_field(history, "context"), target_context)
    d, dv = diff_arrays(history)

    profile = []
    for beta in beta_grid:
        try:
            w = _kernel_weights(sq, beta)
        except ValueError:
            # nonpositive bandwidth, or weights that underflow or are not finite:
            # degenerate, not fatal
            profile.append((beta, -math.inf))
            continue
        rho, gamma2_raw = _moments(d, dv, w)
        gamma2 = _truncate(gamma2_raw)
        _check_fit(rho, gamma2)
        profile.append((beta, _weighted_loglik(d, dv, w, rho, gamma2)))
    return profile


def best_beta(profile: list[tuple[float, float]]) -> tuple[float, float]:
    """Profile entry ``(beta, loglik)`` with the largest loglik; ties go to the first."""
    best = max(range(len(profile)), key=lambda i: (profile[i][1], -i))
    return profile[best]


def default_beta_grid(num: int = 41) -> list[float]:
    """Log-spaced bandwidth grid over [1e-2, 1e2]."""
    return [float(b) for b in np.logspace(-2.0, 2.0, num)]


def contextual_interval(
    target: TargetRecord,
    history: list[DomainRecord],
    alpha: float,
    beta: float,
    h: float | None = None,
) -> ConfidenceInterval:
    """Plug-in interval from the similarity-weighted (optionally time-decayed) fit."""
    if target.context is None:
        raise ValueError(f"{target.domain_id}: target context required but missing")
    weights = similarity_weights(_side_field(history, "context"), target.context, beta)
    if h is not None:
        if target.timestamp is None:
            raise ValueError(f"{target.domain_id}: target timestamp required for time decay")
        weights = time_decay_weights(weights, _side_field(history, "timestamp"), target.timestamp, h)
    model = fit_weighted_mom(history, weights)
    return plugin_interval(target, model, alpha)
