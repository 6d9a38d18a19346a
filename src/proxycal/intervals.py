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

from ._rng import BLOCK, substream
from .core import BiasModel, TargetRecord, _moments, _truncate, debias

DEFAULT_BOOTSTRAP_DRAWS = 4000

# Draws are materialized in chunks whose uniform block takes at most this many
# bytes (at least one draw), read in order from one stream per call, so the
# result is independent of the chunking. A call allocates its buffers once:
# the chunk's, about three times this size, and a batch's, 16 bytes for each of
# 1/128 this many draws, whose normal quantiles _ndtri takes in one call (about
# 53 bytes a draw more while it runs). On a 2-core machine, K = 25, 60 and 800
# bootstraps ran equally fast, within the noise, at 128, 256 and 512 KiB and
# 1 MiB; the peak RSS of `proxycal loo --method bootstrap` on K = 60 read 36.3,
# 36.7 and 37.4 MB at the three smaller sizes. Without the batch, with one
# _ndtri call per chunk, 256 KiB chunks were slower at the same peak RSS: a
# K = 800, 20,000-draw bootstrap (40 draws a chunk) took 211 ms against 168 ms
# and a K = 60 `loo_table` 262 ms against 221 ms (best of 5, 10 alternating
# runs), and the CLI's K = 800 adjust and K = 60 loo 5% longer end to end.
_BOOT_CHUNK_BYTES = 1 << 18

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


class _BootWork:
    """Buffers for chunks of up to ``chunk`` bootstrap draws over ``m`` domains,
    in batches of up to ``batch`` draws.

    ``u`` holds a chunk's uniforms and, once they are turned into the indices
    ``idx``, its resampled differences; ``dv`` holds the resampled variances.
    ``un`` holds each draw of a batch's normal uniform, and ``g`` its raw
    between-domain variance, later its scale. One set serves any number of
    :func:`_bootstrap_draws` calls over ``m`` domains; every chunk and batch
    overwrites whatever an earlier one left.

    The five are views of one allocation. glibc raises its mmap threshold to
    the size of a freed mapped block, so a later block of that size is reused
    from the heap. Separate buffers each stay below a threshold that an
    earlier, smaller block set, yet together exceed its trim threshold (twice
    it); whether the heap then hands them back to the system after every call,
    and faults them in again on the next, depends on what else it holds.
    """

    def __init__(self, m: int, chunk: int, batch: int) -> None:
        self.chunk, self.batch = chunk, batch
        n_u, n, b = chunk * _draw_stride(m), chunk * m, batch
        block = np.empty(8 * (n_u + n + 2 * b) + np.dtype(np.intp).itemsize * n, dtype=np.uint8)
        floats = block[: 8 * (n_u + n + 2 * b)].view(np.float64)
        self.u, self.un, self.g = floats[:n_u], floats[n_u : n_u + b], floats[n_u + b : n_u + 2 * b]
        self.dv = floats[n_u + 2 * b :].reshape(chunk, m)
        self.idx = block[8 * (n_u + n + 2 * b) :].view(np.intp).reshape(chunk, m)

    @classmethod
    def for_draws(cls, m: int, draws: int) -> _BootWork:
        """Buffers whose chunk holds at most :data:`_BOOT_CHUNK_BYTES` of uniforms, and
        whose batch at most 1/128 of that many draws (see :data:`_BOOT_CHUNK_BYTES`)."""
        batch = max(1, min(draws, _BOOT_CHUNK_BYTES // 128))
        chunk = max(1, min(batch, _BOOT_CHUNK_BYTES // (8 * _draw_stride(m))))
        return cls(m, chunk, batch)


def _bootstrap_draws(
    d: np.ndarray,
    dv: np.ndarray,
    theta_star: float,
    var_proxy: float,
    draws: int,
    seed: int,
    work: _BootWork,
) -> np.ndarray:
    """All ``draws`` bootstrap replicates of a target ``(theta_star, var_proxy)``.

    Draw ``b`` consumes a fixed block of the uniform stream determined only by
    ``(seed, b)``: ``len(d)`` uniforms select the resampled domains and one
    more feeds an inverse-CDF normal. One stream is read in order, a chunk at
    a time, and each chunk is a whole number of blocks, so the replicates are
    the same whatever chunk and batch ``work`` holds. ``work`` must be built
    for ``len(d)`` domains; every chunk and batch overwrites its buffers.
    """
    if draws < 2:
        raise ValueError(f"draws must be >= 2, got {draws}")
    m = len(d)
    stride = _draw_stride(m)
    stream = substream(seed, *_BOOT_PATH)
    samples = np.empty(draws)
    for start in range(0, draws, work.batch):
        stop = min(start + work.batch, draws)
        for lo in range(start, stop, work.chunk):
            n = min(work.chunk, stop - lo)
            part = slice(lo - start, lo - start + n)
            u = stream.random(n * stride, out=work.u[: n * stride]).reshape(n, stride)
            work.un[part] = u[:, m]
            scaled = np.multiply(u[:, :m], m, out=u[:, :m])
            idx = work.idx[:n]
            np.copyto(idx, scaled, casting="unsafe")
            # a uniform below 1 times m truncates into [0, m - 1]; "clip" clamps to
            # that range all the same and, unlike the default "raise", writes
            # straight into ``out`` instead of a buffer
            d_b = np.take(d, idx, out=work.u[: n * m].reshape(n, m), mode="clip")
            dv_b = np.take(dv, idx, out=work.dv[:n], mode="clip")
            rho_b, work.g[part] = _moments(d_b, dv_b, scratch=d_b)
            # theta_star - rho_b now, plus scale * z once the batch is drawn
            np.subtract(theta_star, rho_b, out=samples[lo : lo + n])

        # one _ndtri call and the scale per batch; the shift keeps the normal's
        # uniform above 0 for the inverse CDF; it rounds the largest uniform
        # below 1 up to 1, so the sum is clamped below 1
        un, g = work.un[: stop - start], work.g[: stop - start]
        z = _ndtri(np.minimum(np.add(un, 2.0 ** -54, out=un), np.nextafter(1.0, 0.0), out=un))
        scale = np.sqrt(np.add(var_proxy, _truncate(g), out=g), out=g)
        samples[start:stop] += np.multiply(scale, z, out=scale)
    return samples


def _quantiles(a: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``np.quantile(a, levels)`` by its default ``linear`` rule, bit for bit.

    ``a`` is partitioned in place at the order statistics the levels need, so
    it must be the caller's own. np.quantile would also import ``numpy.ma``
    (through ``np.unique``): about 1.3 MB of RSS and 16 ms in a fresh process
    on a 2-core machine.
    """
    n = len(a)
    index = (n - 1) * levels
    # at or past the last index both neighbours are the last element, as in numpy
    top, floor = index >= n - 1, np.floor(index)
    below = np.where(top, -1, floor).astype(np.intp)
    above = np.where(top, -1, floor + 1).astype(np.intp)
    # numpy's order statistics, first and last included: the same kth list moves
    # equal values (0.0 and -0.0) alike; a NaN partitions to the end and is every quantile
    a.partition(sorted({0, -1, *below.tolist(), *above.tolist()}))
    if np.isnan(a[-1]):
        return np.full(len(levels), a[-1])
    x, y = a[below], a[above]
    gamma = index - below
    diff = y - x
    out = x + diff * gamma
    np.subtract(y, diff * (1.0 - gamma), out=out, where=gamma >= 0.5)
    return out


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
    # passed, not held, so the work set is freed before the quantiles run: held
    # through them, it adds 1.2-1.8 MB to the peak RSS, though not to the traced peak
    samples = _bootstrap_draws(d, dv, target.theta_star_hat, target.var_proxy, draws, seed,
                               _BootWork.for_draws(len(d), draws))
    lower, upper = _quantiles(samples, np.array([alpha / 2.0, 1.0 - alpha / 2.0]))
    return ConfidenceInterval(float(lower), float(upper), 1.0 - alpha)
