"""Aggregate-estimate data model and the moment fit of the cross-domain bias law.

The calibration consumes nothing but per-domain aggregate summaries: a primary
estimate, a proxy estimate, and their 2x2 sampling covariance. The proxy's
residual bias is modeled as a domain-level random effect with mean ``rho`` and
between-domain variance ``gamma2``, both recovered by a closed-form
method-of-moments fit.

Bad input raises :class:`InvalidRecordError` (a record) or :class:`SchemaError`
(a file); :func:`_located` re-raises any ``ValueError`` from inside it as a
``SchemaError`` that names where the input came from.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

# Relative slack on the covariance bound, absorbing rounding in upstream files.
_COV_SLACK = 1e-12

WARN_INSUFFICIENT_DOMAINS = "insufficient_domains_for_variance"
WARN_GAMMA2_TRUNCATED = "gamma2_truncated"


class InvalidRecordError(ValueError):
    """An aggregate record violates its variance/covariance constraints."""


class SchemaError(ValueError):
    """An input file fails validation; the message locates the offense."""


@contextlib.contextmanager
def _located(where: str):
    """Report a ``ValueError`` raised inside as bad input at ``where``: a file, row or domain."""
    try:
        yield
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _check_cov_block(domain_id: str, var_primary: float, var_proxy: float, cov: float) -> None:
    for name, v in (("var_primary", var_primary), ("var_proxy", var_proxy)):
        if not math.isfinite(v) or v < 0:
            raise InvalidRecordError(f"{domain_id}: {name} must be finite and >= 0, got {v}")
    if not math.isfinite(cov):
        raise InvalidRecordError(f"{domain_id}: cov_primary_proxy must be finite, got {cov}")
    if cov * cov > var_primary * var_proxy * (1.0 + _COV_SLACK):
        raise InvalidRecordError(
            f"{domain_id}: cov_primary_proxy^2 = {cov * cov} exceeds "
            f"var_primary * var_proxy = {var_primary * var_proxy}"
        )
    # the scalar form of the difference variance that _diffs computes
    diff_var = var_primary + var_proxy - 2.0 * cov
    if not math.isfinite(diff_var):
        raise InvalidRecordError(
            f"{domain_id}: var_primary + var_proxy - 2 * cov_primary_proxy must be finite, "
            f"got {diff_var}"
        )


def _check_finite(domain_id: str, **values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise InvalidRecordError(f"{domain_id}: {name} must be finite, got {v}")


def _check_side_info(record) -> None:
    """Store a record's context as a tuple of floats; its entries and timestamp must be finite."""
    if record.context is not None:
        object.__setattr__(record, "context", tuple(float(c) for c in record.context))
        _check_finite(record.domain_id, **{f"context[{i}]": c for i, c in enumerate(record.context)})
    if record.timestamp is not None:
        _check_finite(record.domain_id, timestamp=record.timestamp)


@dataclass(frozen=True)
class DomainRecord:
    """Aggregate summary of one fully observed historical domain.

    Holds the primary and proxy point estimates together with their sampling
    variances and covariance. This is the only per-domain input the
    calibration needs; individual-level data never enter.
    """

    domain_id: str
    theta_hat: float
    theta_star_hat: float
    var_primary: float
    var_proxy: float
    cov_primary_proxy: float
    context: tuple[float, ...] | None = None
    timestamp: float | None = None

    def __post_init__(self) -> None:
        _check_finite(self.domain_id, theta_hat=self.theta_hat, theta_star_hat=self.theta_star_hat)
        d = self.theta_star_hat - self.theta_hat  # the scalar form of the d that _diffs computes
        _check_finite(self.domain_id, **{"theta_star_hat - theta_hat": d})
        _check_cov_block(self.domain_id, self.var_primary, self.var_proxy, self.cov_primary_proxy)
        _check_side_info(self)


@dataclass(frozen=True)
class TargetRecord:
    """Proxy estimate and its sampling variance for the unlabeled target domain."""

    domain_id: str
    theta_star_hat: float
    var_proxy: float
    context: tuple[float, ...] | None = None
    timestamp: float | None = None

    def __post_init__(self) -> None:
        _check_finite(self.domain_id, theta_star_hat=self.theta_star_hat)
        if not math.isfinite(self.var_proxy) or self.var_proxy < 0:
            raise InvalidRecordError(
                f"{self.domain_id}: var_proxy must be finite and >= 0, got {self.var_proxy}"
            )
        _check_side_info(self)


def _check_fit(rho: float, gamma2: float) -> None:
    """Raise unless a fit's ``rho`` and ``gamma2`` are finite."""
    for name, value in (("rho", rho), ("gamma2", gamma2)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class BiasModel:
    """Fitted bias distribution plus the per-domain statistics it was fit on.

    ``rho`` is the mean residual bias, ``gamma2`` the between-domain bias
    variance (truncated at zero). ``diffs`` and ``diff_vars`` retain each
    domain's proxy-primary difference and its sampling variance so that
    resampling procedures can refit without the original records.
    """

    rho: float
    gamma2: float
    n_domains: int
    diffs: tuple[float, ...]
    diff_vars: tuple[float, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n_domains < 1:
            raise ValueError(f"n_domains must be >= 1, got {self.n_domains}")
        _check_fit(self.rho, self.gamma2)
        if self.gamma2 < 0:
            raise ValueError(f"gamma2 must be >= 0, got {self.gamma2}")
        if len(self.diffs) != self.n_domains or len(self.diff_vars) != self.n_domains:
            raise ValueError("diffs and diff_vars must have length n_domains")


def _record_columns(history: list[DomainRecord]) -> np.ndarray:
    """``(5, K)`` array of the records' ``theta_hat``, ``theta_star_hat``,
    ``var_primary``, ``var_proxy`` and ``cov_primary_proxy`` rows."""
    return np.array([
        (r.theta_hat, r.theta_star_hat, r.var_primary, r.var_proxy, r.cov_primary_proxy)
        for r in history
    ], dtype=float).reshape(-1, 5).T


def _diffs(theta_hat, theta_star_hat, var_primary, var_proxy, cov_primary_proxy):
    """Per-domain proxy-primary differences and their sampling variances.

    Returns ``(d, diff_var)`` with ``d = theta_star_hat - theta_hat`` and
    ``diff_var = var_primary + var_proxy - 2 * cov_primary_proxy`` over
    whole columns. Records guarantee a finite ``d`` and a finite ``diff_var
    >= 0`` up to rounding, which is clipped away; a clipped or negative-zero
    variance comes out as ``+0.0``. On other columns a difference beyond the
    float range is ``inf``, as in scalar arithmetic, without a warning.
    """
    with np.errstate(over="ignore"):
        dv = var_primary + var_proxy - 2.0 * cov_primary_proxy
        return theta_star_hat - theta_hat, np.where(dv > 0.0, dv, 0.0)


def diff_arrays(history: list[DomainRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Per-domain differences and their sampling variances (:func:`_diffs`) of records."""
    return _diffs(*_record_columns(history))


def _moments(
    d: np.ndarray, dv: np.ndarray, w: np.ndarray | None = None, scratch: np.ndarray | None = None
):
    """``(rho, gamma2 before truncation)`` of the moment fit along the last axis.

    Leading axes of ``d`` (differences) and ``dv`` (their variances) index
    independent fits. A weight vector ``w`` summing to one replaces the plain
    means; ``d`` and ``dv`` are then 1-D. When ``scratch`` (an array shaped
    like ``d``, which may be ``d`` itself) is given, the squared deviations are
    written into it.
    Differences or squared deviations beyond the float range give a
    non-finite result without a warning, which every caller rejects.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if w is None:
            rho = d.mean(axis=-1)
            dev = np.subtract(d, rho[..., None], out=scratch)
            return rho, np.square(dev, out=dev).mean(axis=-1) - dv.mean(axis=-1)
        rho = d @ w
        dev = np.subtract(d, rho, out=scratch)
        return rho, np.square(dev, out=dev) @ w - dv @ w


def _truncate(gamma2_raw):
    """Between-domain variance: the raw moment estimate clipped at zero."""
    return np.maximum(gamma2_raw, 0.0)


def _bias_model(d: np.ndarray, dv: np.ndarray, w: np.ndarray | None = None) -> BiasModel:
    """:class:`BiasModel` of the moment fit on 1-D arrays, truncated and flagged."""
    rho, raw = _moments(d, dv, w)
    flags: list[str] = []
    if len(d) == 1:
        gamma2 = 0.0
        flags.append(WARN_INSUFFICIENT_DOMAINS)
    else:
        gamma2 = float(_truncate(raw))
        if raw < 0.0:
            flags.append(WARN_GAMMA2_TRUNCATED)
    return BiasModel(
        rho=float(rho),
        gamma2=gamma2,
        n_domains=len(d),
        diffs=tuple(d.tolist()),
        diff_vars=tuple(dv.tolist()),
        warnings=tuple(flags),
    )


def fit_mom(history: list[DomainRecord]) -> BiasModel:
    """Method-of-moments fit of the bias distribution from historical records.

    ``rho`` is the plain mean of the per-domain differences. ``gamma2`` is the
    mean squared deviation of the differences (divisor equal to the domain
    count, no Bessel correction) minus the mean difference variance, truncated
    at zero. A single-domain history cannot identify a variance: the fit
    degrades to ``gamma2 = 0`` with a warning flag instead of erroring.
    """
    if not history:
        raise ValueError("fit_mom requires a non-empty history")
    return _bias_model(*diff_arrays(history))


def debias(target: TargetRecord, model: BiasModel) -> float:
    """Bias-corrected point estimate for the target domain."""
    return target.theta_star_hat - model.rho
