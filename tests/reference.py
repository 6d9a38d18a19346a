"""Independent brute-force reference computations used as test oracles.

Everything here is deliberately written with plain Python loops and stdlib
math so it shares no code path with the package: sequential sums instead of
numpy reductions, erfc-based normal CDF with bisection quantiles instead of
scipy, exhaustive enumeration instead of vectorized formulas. The
exceptions are ``mc_prevalence`` and ``domain_reference``, which draw from a
numpy generator so that a seeded stream replays exactly.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def mom_reference(ds, dvs):
    """Moment fit from the definitions, sequential-sum arithmetic."""
    m = len(ds)
    rho = sum(ds) / m
    if m == 1:
        return rho, 0.0
    spread = sum((d - rho) ** 2 for d in ds) / m
    noise = sum(dvs) / m
    return rho, max(0.0, spread - noise)


def weighted_mom_reference(ds, dvs, ws):
    rho = sum(w * d for w, d in zip(ws, ds))
    spread = sum(w * (d - rho) ** 2 for w, d in zip(ws, ds))
    noise = sum(w * v for w, v in zip(ws, dvs))
    return rho, max(0.0, spread - noise)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile_reference(p: float) -> float:
    """Bisection on the erfc-based CDF, to ~1e-13."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bootstrap_mixture_quantile(ds, dvs, theta_star, var_proxy, p):
    """Quantile of the exact resampling mixture behind the domain bootstrap.

    Enumerates every equally likely ordered resample (m^m of them), refits the
    moments on each, and treats the bootstrap distribution as the uniform
    mixture of the implied normals (point masses when the scale is zero). The
    quantile is the smallest t with CDF(t) >= p, found by bisection.
    """
    m = len(ds)
    comps = []
    for tri in itertools.product(range(m), repeat=m):
        dd = [ds[i] for i in tri]
        rho = sum(dd) / m
        spread = sum((x - rho) ** 2 for x in dd) / m
        noise = sum(dvs[i] for i in tri) / m
        gamma2 = max(0.0, spread - noise)
        comps.append((theta_star - rho, math.sqrt(var_proxy + gamma2)))

    def cdf(t):
        total = 0.0
        for center, scale in comps:
            if scale == 0.0:
                total += 1.0 if t >= center else 0.0
            else:
                total += normal_cdf((t - center) / scale)
        return total / len(comps)

    lo = min(c for c, _ in comps) - 12.0 * max(s for _, s in comps) - 1.0
    hi = max(c for c, _ in comps) + 12.0 * max(s for _, s in comps) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) >= p:
            hi = mid
        else:
            lo = mid
    return hi


def density_ratio(x, mu_src, mu_tgt):
    """Target-over-source Gaussian density ratio at the point ``x`` (unit covariance)."""
    ds = sum((a - m) ** 2 for a, m in zip(x, mu_src))
    dt = sum((a - m) ** 2 for a, m in zip(x, mu_tgt))
    return math.exp(0.5 * (ds - dt))


def transport_reference(xs, resids, mu_src, mu_tgt):
    """Importance-weighted mean residual of a source moved to ``mu_tgt``, and its variance.

    The density ratios are normalised to weights ``w``; returns
    ``delta = sum w r`` and ``sum w^2 (r - delta)^2``.
    """
    ratios = [density_ratio(x, mu_src, mu_tgt) for x in xs]
    total = sum(ratios)
    ws = [r / total for r in ratios]
    delta = sum(w * r for w, r in zip(ws, resids))
    return delta, sum(w * w * (r - delta) ** 2 for w, r in zip(ws, resids))


def count_reference(x, delta):
    """Number of coordinates of the point ``x`` at or above ``delta``."""
    return sum(1 for v in x if v >= delta)


def outcome_reference(count, p, lambda1=0.5, phi1=2.0):
    """Probability that the primary outcome fires: logistic in the centered count."""
    return 1.0 / (1.0 + math.exp(-(lambda1 * (count - p / 2.0) - phi1)))


def proxy_reference(count, p, lambda2=0.5, phi2=2.0):
    """Proxy score: arctan of the centered count, mapped into (0, 1)."""
    return math.atan(lambda2 * (count - p / 2.0) + phi2) / math.pi + 0.5


def domain_reference(rng, n, mu, delta, lambda1=0.5, phi1=2.0, lambda2=0.5, phi2=2.0):
    """One simulated domain ``(x, y, proxy)`` of ``n`` units around the mean ``mu``.

    Draws from ``rng`` the ``(n, p)`` normals, then ``n`` uniforms. Unit i
    fires (``y = 1``) when its uniform is below the outcome probability at its
    count against ``delta``; its proxy counts against zero.
    """
    p = len(mu)
    x = rng.standard_normal((n, p)) + np.asarray(mu, dtype=float)
    us = rng.random(n).tolist()
    ys, proxies = [], []
    for row, u in zip(x.tolist(), us):
        ys.append(1 if u < outcome_reference(count_reference(row, delta), p, lambda1, phi1) else 0)
        proxies.append(proxy_reference(count_reference(row, 0.0), p, lambda2, phi2))
    return x, np.array(ys, dtype=np.int8), np.array(proxies)


def enumerated_prevalence(mu, lambda1=0.5, phi1=2.0):
    """Exact prevalence by summing over all threshold indicator patterns."""
    p = len(mu)
    probs = [normal_cdf(m) for m in mu]
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=p):
        weight = 1.0
        for bit, pj in zip(pattern, probs):
            weight *= pj if bit else 1.0 - pj
        t = sum(pattern) - p / 2.0
        total += weight / (1.0 + math.exp(-lambda1 * t + phi1))
    return total


def enumerated_prevalence_sd(mu, lambda1=0.5, phi1=2.0):
    """Per-sample standard deviation of the outcome probability."""
    p = len(mu)
    probs = [normal_cdf(m) for m in mu]
    first = 0.0
    second = 0.0
    for pattern in itertools.product((0, 1), repeat=p):
        weight = 1.0
        for bit, pj in zip(pattern, probs):
            weight *= pj if bit else 1.0 - pj
        t = sum(pattern) - p / 2.0
        val = 1.0 / (1.0 + math.exp(-lambda1 * t + phi1))
        first += weight * val
        second += weight * val * val
    return math.sqrt(second - first * first)


def mc_prevalence(mu, samples, rng, lambda1=0.5, phi1=2.0):
    """Monte Carlo prevalence: the outcome probability averaged over ``samples``
    draws of ``x ~ N(mu, I)`` from ``rng``.

    Draws come in blocks of 2^18 rows, each summed on its own, so a seeded
    stream gives the same value to the last bit on every run.
    """
    chunk = 1 << 18
    p = len(mu)
    table = np.array([1.0 / (1.0 + math.exp(-lambda1 * (c - p / 2.0) + phi1))
                      for c in range(p + 1)])
    total = 0.0
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        x = rng.standard_normal((n, p)) + np.asarray(mu, dtype=float)
        total += float(table[(x >= 0.0).sum(axis=1)].sum())
        done += n
    return total / samples


def weighted_loglik_reference(ds, dvs, ws, floor=1e-12):
    """Weighted Gaussian marginal log-likelihood from the definitions."""
    rho = sum(w * d for w, d in zip(ws, ds))
    spread = sum(w * (d - rho) ** 2 for w, d in zip(ws, ds))
    noise = sum(w * v for w, v in zip(ws, dvs))
    gamma2 = max(0.0, spread - noise)
    total = 0.0
    for d, v, w in zip(ds, dvs, ws):
        if w <= floor:
            continue
        var = gamma2 + v
        if var == 0.0:
            return -math.inf
        total += w * (math.log(var) + (d - rho) ** 2 / var)
    return -0.5 * total


def gaussian_weights_reference(contexts, target, beta):
    raws = []
    for c in contexts:
        sq = sum((a - b) ** 2 for a, b in zip(c, target))
        raws.append(math.exp(-sq / (2.0 * beta * beta)))
    total = sum(raws)
    return [r / total for r in raws]
