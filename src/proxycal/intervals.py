"""Confidence intervals for the target-domain primary metric.

Three constructions share one center convention (proxy estimate minus fitted
mean bias): the plain Wald interval, the plug-in interval that widens by the
fitted between-domain bias variance, and a domain bootstrap that additionally
propagates the sampling noise of the fitted bias distribution itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ._rng import BLOCK, uniform_block
from .core import BiasModel, DomainRecord, TargetRecord, _moments, _truncate, debias, diff_arrays

DEFAULT_BOOTSTRAP_DRAWS = 4000

# Draws are materialized in chunks whose uniform block takes at most this many
# bytes (at least one draw); the per-draw stream addressing makes the result
# independent of the chunking.
_BOOT_CHUNK_BYTES = 1 << 24

# Sub-path tag for the bootstrap uniform stream.
_BOOT_PATH = (0,)


@dataclass(frozen=True)
class ConfidenceInterval:
    """Closed interval ``[lower, upper]`` at confidence ``level`` in (0, 1)."""

    lower: float
    upper: float
    level: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lower}, {self.upper}]")
        if self.lower > self.upper:
            raise ValueError(f"lower={self.lower} exceeds upper={self.upper}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def normal_quantile(p: float) -> float:
    """Standard normal quantile at probability ``p`` in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")
    return float(ndtri(p))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def wald_interval(center: float, variance: float, alpha: float) -> ConfidenceInterval:
    """Symmetric normal-approximation interval ``center +- z * sqrt(variance)``."""
    _check_alpha(alpha)
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    if not math.isfinite(variance) or variance < 0:
        raise ValueError(f"variance must be finite and >= 0, got {variance}")
    half = normal_quantile(1.0 - alpha / 2.0) * math.sqrt(variance)
    return ConfidenceInterval(center - half, center + half, 1.0 - alpha)


def plugin_interval(target: TargetRecord, model: BiasModel, alpha: float) -> ConfidenceInterval:
    """Debiased Wald interval inflated by the fitted between-domain variance.

    Centered at ``theta_star_hat - rho`` with variance
    ``var_proxy + gamma2``; appropriate when the history is large enough to
    treat the fitted bias distribution as known.
    """
    return wald_interval(debias(target, model), target.var_proxy + model.gamma2, alpha)


def _draw_stride(m: int) -> int:
    """Uniforms per draw over ``m`` domains: ``m`` indices and one normal, block-padded."""
    return BLOCK * -(-(m + 1) // BLOCK)


def _bootstrap_samples(
    d: np.ndarray,
    dv: np.ndarray,
    target: TargetRecord,
    seed: int,
    start: int,
    stop: int,
) -> np.ndarray:
    """Bootstrap replicates for draw indices ``[start, stop)``.

    Draw ``b`` consumes a fixed block of the uniform stream determined only by
    ``(seed, b)``: ``m`` uniforms select the resampled domains and one more
    feeds an inverse-CDF normal. Any split of the index range therefore
    reproduces identical values.
    """
    m = len(d)
    stride = _draw_stride(m)
    u = uniform_block(seed, _BOOT_PATH, start * stride, (stop - start) * stride)
    u = u.reshape(stop - start, stride)

    # shift keeps the uniform strictly inside (0, 1) for the inverse CDF
    z = ndtri(u[:, m] + 2.0 ** -54)
    idx = np.minimum((u[:, :m] * m).astype(np.intp), m - 1)
    # the uniforms go before the resampled arrays exist, bounding peak memory
    del u
    rho_b, gamma2_b = _moments(d[idx], dv[idx])
    return (target.theta_star_hat - rho_b) + np.sqrt(target.var_proxy + _truncate(gamma2_b)) * z


def _bootstrap_draws(
    d: np.ndarray, dv: np.ndarray, target: TargetRecord, draws: int, seed: int
) -> np.ndarray:
    """All ``draws`` bootstrap replicates, materialized chunk by chunk."""
    if draws < 2:
        raise ValueError(f"draws must be >= 2, got {draws}")
    samples = np.empty(draws)
    chunk = max(1, _BOOT_CHUNK_BYTES // (8 * _draw_stride(len(d))))
    for start in range(0, draws, chunk):
        stop = min(start + chunk, draws)
        samples[start:stop] = _bootstrap_samples(d, dv, target, seed, start, stop)
    return samples


def _quantile_interval(samples: np.ndarray, alpha: float) -> ConfidenceInterval:
    """Empirical ``alpha/2`` and ``1 - alpha/2`` quantiles of bootstrap replicates."""
    lower, upper = np.quantile(samples, [alpha / 2.0, 1.0 - alpha / 2.0])
    return ConfidenceInterval(float(lower), float(upper), 1.0 - alpha)


def domain_bootstrap_interval(
    history: list[DomainRecord],
    target: TargetRecord,
    alpha: float,
    draws: int = DEFAULT_BOOTSTRAP_DRAWS,
    seed: int = 0,
) -> ConfidenceInterval:
    """Interval from resampling historical domains with replacement.

    Each draw resamples the domains, refits the bias moments on the resample
    (same divisor and zero truncation as the full-sample fit, deviations about
    the resampled mean), then samples a hypothetical target value from the
    implied normal. Endpoints are the empirical ``alpha/2`` and ``1 - alpha/2``
    quantiles with linear interpolation between order statistics. Output is a
    pure function of ``(history, target, alpha, draws, seed)``.
    """
    _check_alpha(alpha)
    if not history:
        raise ValueError("domain_bootstrap_interval requires a non-empty history")
    d, dv = diff_arrays(history)
    return _quantile_interval(_bootstrap_draws(d, dv, target, draws, seed), alpha)
