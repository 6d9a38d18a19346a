"""Coverage study for proxy-based inference under covariate shift and concept drift.

Domains share a Gaussian covariate model with domain-specific means (covariate
shift) and a logistic binary outcome whose feature threshold drifts across
domains (concept drift). A deterministic, deliberately misspecified proxy
score accompanies every unit. Four estimators of the target-domain prevalence
are compared, with and without the bias-distribution interval adjustments, by
their empirical coverage of the exactly enumerable target prevalence.

All randomness flows through streams addressed by ``(seed, replicate, ...)``;
the results table is bit-identical for any worker count or schedule.

A replicate draws its K domain means first and then the domains' units one
domain at a time, through two preallocated slots. While the calling thread
labels domain t and reduces it to its per-domain statistics, transport
included, a helper thread draws domain t + 1's normals and uniforms into the
other slot. The stream is still consumed by one thread at a time in the same
order, so the results do not depend on the overlap, and a replicate holds two
domains' units and one transport block whatever ``n_domains`` is.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed, substream
from .core import TargetRecord, _bias_model, _diffs
from .intervals import (
    DEFAULT_BOOTSTRAP_DRAWS,
    _check_alpha,
    bootstrap_interval,
    plugin_interval,
    wald_interval,
)

ESTIMATORS = ("primary_only", "proxy_only", "ppi", "ppi_weighted")
ADJUSTMENTS = ("none", "plugin", "bootstrap")

# Stream sub-path tags within a replicate.
_PATH_GEN = 0
_PATH_BOOT = 1

# Transport walks each source in row blocks of at most this many bytes of
# n x K float64 (at least one row). A call holds one such block of log ratios
# and a (3, rows) buffer of residual powers, so its memory is bounded whatever
# ``n_per_domain`` is. The block is a fixed part of the algorithm, not a knob.
_TRANSPORT_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    """All knobs of the simulated environment and experiment harness."""

    n_domains: int
    n_per_domain: int
    kappa: float = 0.0
    dim_p: int = 4
    lambda1: float = 0.5
    phi1: float = 2.0
    lambda2: float = 0.5
    phi2: float = 2.0
    mu_target: tuple[float, ...] = (0.5, -0.5, 0.5, -0.5)
    replicates: int = 1000
    alpha: float = 0.05
    seed: int = 0
    bootstrap_draws: int = DEFAULT_BOOTSTRAP_DRAWS
    estimators: tuple[str, ...] = ESTIMATORS
    adjustments: tuple[str, ...] = ADJUSTMENTS
    workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu_target", tuple(float(m) for m in self.mu_target))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "adjustments", tuple(self.adjustments))
        if self.dim_p < 1:
            raise ValueError(f"dim_p must be >= 1, got {self.dim_p}")
        if self.n_domains < 2:
            raise ValueError(f"n_domains must be >= 2, got {self.n_domains}")
        if self.n_per_domain < 2:
            raise ValueError(f"n_per_domain must be >= 2, got {self.n_per_domain}")
        for name in ("kappa", "lambda1", "phi1", "lambda2", "phi2", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if len(self.mu_target) != self.dim_p:
            raise ValueError(
                f"mu_target has length {len(self.mu_target)}, expected dim_p={self.dim_p}"
            )
        if not all(math.isfinite(m) for m in self.mu_target):
            raise ValueError("mu_target must be finite")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        _check_alpha(self.alpha)
        if self.bootstrap_draws < 2:
            raise ValueError(f"bootstrap_draws must be >= 2, got {self.bootstrap_draws}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.estimators or not self.adjustments:
            raise ValueError("estimators and adjustments must be non-empty")
        for e in self.estimators:
            if e not in ESTIMATORS:
                raise ValueError(f"unknown estimator {e!r}; choose from {ESTIMATORS}")
        for a in self.adjustments:
            if a not in ADJUSTMENTS:
                raise ValueError(f"unknown adjustment {a!r}; choose from {ADJUSTMENTS}")


@dataclass
class DomainData:
    """One simulated domain: covariates, binary primary labels, proxy scores.

    In a replicate the arrays are a slot's buffers, which a later domain's
    draw overwrites; a domain is reduced before that happens.
    """

    covariates: np.ndarray
    primary: np.ndarray
    proxy: np.ndarray
    mean: np.ndarray


def sample_unit_ball(p: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the Euclidean unit ball in R^p."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    while True:
        direction = rng.standard_normal(p)
        norm = np.linalg.norm(direction)
        if norm > 0.0:
            break
    radius = rng.random() ** (1.0 / p)
    return direction * (radius / norm)


def _count(x: np.ndarray, delta: float, out: np.ndarray) -> np.ndarray:
    """Number of coordinates of each row of ``x`` at or above ``delta``, counted
    into ``out`` one column at a time."""
    above = x >= delta
    out.fill(0)
    for j in range(x.shape[1]):
        out += above[:, j]
    return out


def _expit(v: float) -> float:
    """Logistic function ``1 / (1 + exp(-v))``; 0 where ``exp(-v)`` overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def _ndtr(a: float) -> float:
    """Standard normal CDF, with the branches of Cephes ``ndtr``."""
    x = a * math.sqrt(0.5)
    z = abs(x)
    if z < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(z)
    return 1.0 - y if x > 0 else y


def _outcome_table(cfg: SimConfig) -> np.ndarray:
    """Outcome probability at each count 0..p, logistic in the centered count."""
    p = cfg.dim_p
    return np.array([_expit(cfg.lambda1 * (c - p / 2.0) - cfg.phi1) for c in range(p + 1)])


def _proxy_table(cfg: SimConfig) -> np.ndarray:
    """Proxy score in (0, 1) at each count 0..p, arctan in the centered count.

    The proxy always counts at the threshold zero, so it never drifts.
    """
    p = cfg.dim_p
    t = np.arange(p + 1) - p / 2.0
    return np.arctan(cfg.lambda2 * t + cfg.phi2) / math.pi + 0.5


class _Slot:
    """One domain's unit buffers: covariates, uniforms, threshold counts, labels.

    A draw fills ``x`` with normals and ``u`` with uniforms. Labelling shifts
    ``x`` by the mean, counts into ``count``, compares ``u`` into ``fired``
    and then overwrites ``u`` with the proxies, which the labels no longer need.
    """

    def __init__(self, cfg: SimConfig) -> None:
        n = cfg.n_per_domain
        self.x = np.empty((n, cfg.dim_p))
        self.u = np.empty(n)
        self.count = np.empty(n, dtype=np.min_scalar_type(cfg.dim_p))
        self.fired = np.empty(n, dtype=bool)


def _draw(slot: _Slot, rng: np.random.Generator) -> None:
    """One domain's normals, then its uniforms, into ``slot``; allocates nothing.

    This is the only code that a replicate's helper thread runs.
    """
    rng.standard_normal(out=slot.x)
    rng.random(out=slot.u)


def _label(cfg: SimConfig, slot: _Slot, mu: np.ndarray, delta: float) -> DomainData:
    """The domain drawn into ``slot``, shifted to ``mu`` and labelled at threshold ``delta``."""
    x = slot.x
    x += mu
    count = _count(x, delta, slot.count)
    y = np.less(slot.u, _outcome_table(cfg)[count], out=slot.fired).view(np.int8)
    # the proxy thresholds at zero, which counts the same as a delta of -0.0
    if delta != 0.0:
        _count(x, 0.0, count)
    proxy = np.take(_proxy_table(cfg), count, out=slot.u)
    return DomainData(covariates=x, primary=y, proxy=proxy, mean=mu)


def cov_components(domain: DomainData) -> np.ndarray:
    """2x2 sampling covariance of the primary and proxy means in one domain."""
    n = len(domain.primary)
    if n < 2:
        raise ValueError("covariance components require at least 2 units")
    y = domain.primary.astype(float)
    ys = domain.proxy
    ybar = y.mean()
    ysbar = ys.mean()
    s_yy = float(((y - ybar) ** 2).sum()) / (n - 1)
    s_ss = float(((ys - ysbar) ** 2).sum()) / (n - 1)
    s_ys = float(((y - ybar) * (ys - ysbar)).sum()) / (n - 1)
    return np.array([[s_yy, s_ys], [s_ys, s_ss]]) / n


def _transport_block(src: DomainData, mu_targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted residual mean of ``src`` transported to each target mean.

    The per-unit log density ratio toward target ``t`` is ``x . (mu_t - mu_src)``
    up to a constant in ``x``, which the per-target normalization cancels. Pass 1
    finds each target's exact maximum log ratio ``m`` over row blocks; pass 2 sums
    ``e = exp(log ratio - m)`` in (0, 1] and ``e^2``, each times ``[1, r, r^2]``,
    block by block in row order. Returns the rectifier and its plug-in variance,
    one entry per target.

    Both passes compute each block's log ratios target-major, ``(K, rows)`` with
    one row per target mean, into one reused flat buffer, and the residual
    powers into one ``(3, rows)`` buffer. The maximum is exact in any order, so
    pass 1 walks the blocks in reverse and leaves block 0 in the buffer for
    pass 2, which does not compute it again. A zero maximum may come out with
    either sign, which moves no weight: ``exp(x - 0.0)`` and ``exp(x + 0.0)``
    are equal for every ``x``.
    """
    a = mu_targets - src.mean
    n, k = len(src.primary), len(a)
    rows = max(1, _TRANSPORT_BLOCK_BYTES // (8 * k))
    starts = range(0, n, rows)
    flat = np.empty(k * min(rows, n))
    powers = np.empty((3, min(rows, n)))
    powers[0] = 1.0

    def log_ratios(i: int) -> np.ndarray:
        x = src.covariates[i : i + rows]
        # a leading slice of the flat buffer, so a partial block is still contiguous
        return np.matmul(a, x.T, out=flat[: k * len(x)].reshape(k, len(x)))

    m = np.full(k, -np.inf)
    for i in reversed(starts):
        np.maximum(m, log_ratios(i).max(axis=1), out=m)
    s, q = np.zeros((2, 3, k))
    for i in starts:
        e = log_ratios(i) if i else flat.reshape(k, -1)
        np.subtract(e, m[:, None], out=e)
        np.exp(e, out=e)
        p = powers[:, : e.shape[1]]
        np.subtract(src.primary[i : i + rows], src.proxy[i : i + rows], out=p[1])
        np.multiply(p[1], p[1], out=p[2])
        s += p @ e.T
        q += p @ np.multiply(e, e, out=e).T
    delta = s[1] / s[0]
    # sum_i w_i^2 (r_i - delta)^2 with w = e / s[0], expanded into the sums above
    var = (q[2] - 2.0 * delta * q[1] + delta * delta * q[0]) / (s[0] * s[0])
    return delta, var


def _domain_table(
    means: np.ndarray, domains: Iterable[DomainData], estimators: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Every requested estimator with each domain in turn as the target.

    ``means`` is the ``(K, p)`` array of domain means and ``domains`` yields the
    K domains in the same order, the target last. One pass reduces each domain
    to its statistics, transport to every mean in ``means`` included, and
    keeps no reference to it, so a domain's arrays may be reused as soon as
    the next one is requested.

    Returns ``(theta_hat, var_primary, table)``: the primary mean and its
    variance per domain, and for each estimator the arrays ``(theta_star,
    var_proxy, cov)`` over all K domains. Entry ``t`` is the estimator with
    domain ``t`` as target and the *other* labeled domains as sources, so the
    last entry is the target's estimate and the first K - 1 entries are the
    history. The rectifier terms share no units with the domain's own
    means and contribute variance but no covariance.
    """
    k = len(means)
    if k < 2:
        raise ValueError("estimation requires at least one labeled domain plus the target")
    covs = np.empty((k, 2, 2))
    theta_hat, proxy_mean = np.empty((2, k))
    # row j: labeled source j; one column for ppi, one per domain for ppi_weighted
    resid_mean, resid_var = np.empty((2, k - 1, 1))
    pair_delta, pair_var = np.empty((2, k - 1, k))
    for t, dom in zip(range(k), domains, strict=True):
        covs[t] = cov_components(dom)
        theta_hat[t] = dom.primary.mean()
        proxy_mean[t] = dom.proxy.mean()
        if t == k - 1:
            continue  # the target is no source
        if "ppi" in estimators:
            r = dom.primary - dom.proxy
            resid_mean[t], resid_var[t] = r.mean(), r.var(ddof=1) / len(r)
        if "ppi_weighted" in estimators:
            pair_delta[t], pair_var[t] = _transport_block(dom, means)
    var_primary, var_proxy, cov = covs[:, 0, 0], covs[:, 1, 1], covs[:, 0, 1]

    # own[j, t]: labeled source j is domain t itself and stays out of its
    # rectifier; with one labeled domain its record has no source and no rectifier
    own = np.eye(k - 1, k, dtype=bool)
    sources = np.maximum((~own).sum(axis=0), 1)

    def rectified(delta: np.ndarray, var: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # axis-0 sums of C-ordered arrays add the sources in order, one by one
        rect = np.where(own, 0.0, delta).sum(axis=0)
        rect_var = np.where(own, 0.0, var).sum(axis=0)
        return proxy_mean + rect / sources, var_proxy + rect_var / sources ** 2, cov

    table = {}
    if "primary_only" in estimators:
        table["primary_only"] = (theta_hat, var_primary, var_primary)
    if "proxy_only" in estimators:
        table["proxy_only"] = (proxy_mean, var_proxy, cov)
    if "ppi" in estimators:
        table["ppi"] = rectified(resid_mean, resid_var)
    if "ppi_weighted" in estimators:
        table["ppi_weighted"] = rectified(pair_delta, pair_var)
    return theta_hat, var_primary, table


def exact_prevalence(cfg: SimConfig) -> float:
    """Exact target-domain prevalence from the law of the threshold count.

    Coordinates clear the zero threshold independently with probabilities
    ``Phi(mu_j)``. Folding them in one at a time gives the p + 1 probabilities
    of the count in O(p^2); the prevalence is their dot product with the
    outcome table.
    """
    law = np.zeros(cfg.dim_p + 1)
    law[0] = 1.0
    for m in cfg.mu_target:
        q = _ndtr(m)
        law[1:] = law[1:] * (1.0 - q) + law[:-1] * q
        law[0] *= 1.0 - q
    return float(law @ _outcome_table(cfg))


@dataclass(frozen=True)
class CellResult:
    """Aggregated coverage and length for one (estimator, adjustment) cell."""

    kappa: float
    n_domains: int
    n_per_domain: int
    estimator: str
    adjustment: str
    coverage: float
    mean_length: float
    replicates: int


def _domain_means(cfg: SimConfig, rng: np.random.Generator) -> tuple[np.ndarray, list[float]]:
    """The ``(K, p)`` domain means of one replicate and their thresholds, target last."""
    m = cfg.n_domains - 1
    means = np.empty((cfg.n_domains, cfg.dim_p))
    for k in range(m):
        means[k] = sample_unit_ball(cfg.dim_p, rng)
    means[m] = cfg.mu_target
    return means, [*rng.normal(0.0, cfg.kappa / math.sqrt(2.0), size=m), 0.0]


@contextmanager
def _replicate_domains(
    cfg: SimConfig, rep: int
) -> Iterator[tuple[np.ndarray, Iterator[DomainData]]]:
    """The K domain means of one replicate and its domains, from its own stream.

    The means are drawn at once. The domains come from an iterator, target
    last, through two slots: while the caller uses domain t, a helper thread
    draws domain t + 1's normals and uniforms into the other slot, and the
    next step labels it on the caller's thread. The helper draws only after
    the means and one domain at a time, so the stream gives each domain its
    normals, then its uniforms, in domain order, whatever the overlap.
    A domain's arrays are valid until the next domain is requested. The
    helper thread is joined when the block exits, also when it raises.
    """
    rng = substream(cfg.seed, rep, _PATH_GEN)
    means, deltas = _domain_means(cfg, rng)
    slots = (_Slot(cfg), _Slot(cfg))

    def domains(helper: ThreadPoolExecutor) -> Iterator[DomainData]:
        drawn = helper.submit(_draw, slots[0], rng)
        for t, (mu, delta) in enumerate(zip(means, deltas)):
            drawn.result()
            if t + 1 < len(means):
                drawn = helper.submit(_draw, slots[(t + 1) % 2], rng)
            yield _label(cfg, slots[t % 2], mu, delta)

    with ThreadPoolExecutor(max_workers=1) as helper:
        yield means, domains(helper)


def _run_replicate(cfg: SimConfig, rep: int, truth: float) -> np.ndarray:
    with _replicate_domains(cfg, rep) as (means, domains):
        theta_hat, var_primary, table = _domain_table(means, domains, cfg.estimators)

    out = np.empty((len(cfg.estimators), len(cfg.adjustments), 2))  # (covered, width) per cell
    for i, est_name in enumerate(cfg.estimators):
        theta_star, var_proxy, cov = table[est_name]
        value, variance = float(theta_star[-1]), float(var_proxy[-1])
        model = None
        if any(adj != "none" for adj in cfg.adjustments):
            # the first K - 1 entries are the history; the last is the target
            history = (theta_hat, theta_star, var_primary, var_proxy, cov)
            model = _bias_model(*_diffs(*(col[:-1] for col in history)))
        target = TargetRecord("target", theta_star_hat=value, var_proxy=variance)
        for j, adj in enumerate(cfg.adjustments):
            if adj == "none":
                iv = wald_interval(value, variance, cfg.alpha)
            elif adj == "plugin":
                iv = plugin_interval(target, model, cfg.alpha)
            else:
                # seed indexed by the canonical estimator position so cell
                # results do not depend on which estimators were requested
                boot_seed = derive_seed(cfg.seed, rep, _PATH_BOOT, ESTIMATORS.index(est_name))
                iv = bootstrap_interval(
                    target, model, cfg.alpha, draws=cfg.bootstrap_draws, seed=boot_seed
                )
            out[i, j] = iv.lower <= truth <= iv.upper, iv.width
    return out


def run_experiment(cfg: SimConfig) -> list[CellResult]:
    """Run all replicates and aggregate coverage and mean interval length.

    Replicates are independent work units on dedicated random streams;
    results are collected by replicate index and reduced in a fixed order, so
    the output is identical for any ``workers`` setting (pairwise 1-D means per cell).
    """
    truth = exact_prevalence(cfg)
    reps = range(cfg.replicates)
    if cfg.workers == 1:
        # not on a pool thread, whose own malloc arena (glibc) would stay resident too
        results = np.array([_run_replicate(cfg, r, truth) for r in reps])
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = np.array(list(pool.map(lambda r: _run_replicate(cfg, r, truth), reps)))
    return [
        CellResult(kappa=cfg.kappa, n_domains=cfg.n_domains, n_per_domain=cfg.n_per_domain,
                   estimator=est_name, adjustment=adj,
                   coverage=float(results[:, i, j, 0].mean()),
                   mean_length=float(results[:, i, j, 1].mean()), replicates=cfg.replicates)
        for i, est_name in enumerate(cfg.estimators)
        for j, adj in enumerate(cfg.adjustments)
    ]
