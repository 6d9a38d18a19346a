"""Confidence intervals for the target-domain primary metric.

Three constructions share one center convention (proxy estimate minus fitted
mean bias): the plain Wald interval, the plug-in interval that widens by the
fitted between-domain bias variance, and a domain bootstrap that additionally
propagates the sampling noise of the fitted bias distribution itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._rng import BLOCK, uniform_block
from .core import BiasModel, TargetRecord, _moments, _truncate, debias

DEFAULT_BOOTSTRAP_DRAWS = 4000

# Draws are materialized in chunks whose uniform block takes at most this many
# bytes (at least one draw); the per-draw stream addressing makes the result
# independent of the chunking. Whether the allocator reuses a freed chunk
# depends on the heap's layout and moves peak RSS by up to about one chunk, so
# chunks stay small, but not so small that the allocator returns each freed
# chunk to the system and faults it in again (it did at 1 MiB).
_BOOT_CHUNK_BYTES = 1 << 21

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


# Cephes ndtri (S. L. Moshier): rational approximations in y - 1/2 on the
# central range and in 1/sqrt(-2 log y) on two tail ranges, leading
# coefficient first.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# tail with 2 <= sqrt(-2 log y) < 8
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# tail with sqrt(-2 log y) >= 8
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner's rule, as Cephes ``polevl``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner's rule with an implied leading coefficient of 1, as Cephes ``p1evl``."""
    return _polevl(x, (1.0, *coef))


def _log(a: np.ndarray) -> np.ndarray:
    # math.log is the C library's log, which Cephes calls; np.log may round differently
    return np.array(list(map(math.log, a.tolist())))


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each entry of ``y0`` in [0, 1], as Cephes ``ndtri``.

    The tails are computed elementwise with the C library's log, so results
    match a compiled Cephes bit for bit; 0 and 1 map to -inf and inf.
    """
    flip = y0 > 1.0 - _EXP_M2
    y = np.where(flip, 1.0 - y0, y0)
    x = np.empty_like(y)

    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    x[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI

    tail = ~central & (y > 0.0)
    t = np.sqrt(-2.0 * _log(y[tail]))
    t0 = t - _log(t) / t
    z = 1.0 / t
    near = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x[tail] = t0 - np.where(t < 8.0, near, far)
    x[y == 0.0] = np.inf
    # the tails are computed in the upper half; unflipped ones belong below
    lower = ~central & ~flip
    x[lower] = -x[lower]
    return x


@functools.lru_cache(maxsize=256)
def normal_quantile(p: float) -> float:
    """Standard normal quantile at probability ``p`` in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")
    return float(_ndtri(np.array([p]))[0])


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
    z = _ndtri(u[:, m] + 2.0 ** -54)
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


def bootstrap_interval(
    target: TargetRecord,
    model: BiasModel,
    alpha: float,
    draws: int = DEFAULT_BOOTSTRAP_DRAWS,
    seed: int = 0,
) -> ConfidenceInterval:
    """Interval from resampling the model's domains with replacement.

    Each draw resamples the ``(diffs, diff_vars)`` pairs, every domain with
    equal probability (the weights of a :func:`fit_weighted_mom` model are not
    carried: a :class:`BiasModel` does not hold them), refits the bias moments
    on the resample as the full fit does, then samples a hypothetical target
    value from the implied normal. Endpoints are the empirical ``alpha/2`` and
    ``1 - alpha/2`` quantiles with linear interpolation. Output is a pure
    function of ``(target, model.diffs, model.diff_vars, alpha, draws, seed)``.
    """
    _check_alpha(alpha)
    d, dv = np.array(model.diffs), np.array(model.diff_vars)
    return _quantile_interval(_bootstrap_draws(d, dv, target, draws, seed), alpha)
