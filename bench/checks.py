"""Output checks for every benchmark operation.

Each check raises :class:`CheckError` when an output is missing, malformed or
wrong. Fitted values are compared with a numpy recomputation from the
generated inputs that shares no code with proxycal. The SHA-256 of an output
is returned for the report; a changed digest is not a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

TOL = 1e-12


class CheckError(Exception):
    """An operation's output failed its check."""


def _close(name: str, got: float, want: float) -> None:
    if not abs(got - want) <= TOL * max(1.0, abs(want)):
        raise CheckError(f"{name} = {got!r}, expected {want!r}")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_artifacts(out: Path) -> str:
    """Output and manifest exist, the manifest parses and names the output's digest."""
    manifest_path = Path(str(out) + ".manifest.json")
    if not out.is_file():
        raise CheckError(f"missing output {out.name}")
    if not manifest_path.is_file():
        raise CheckError(f"missing manifest for {out.name}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckError(f"manifest of {out.name} does not parse: {exc}") from None
    sha = digest(out)
    if f"sha256:{sha}" not in manifest.get("outputs", {}).values():
        raise CheckError(f"manifest of {out.name} does not record its digest")
    return sha


def read_kv(path: Path) -> dict[str, str]:
    pairs = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckError(f"{path.name}: malformed line {line!r}")
        pairs[key.strip()] = value.strip()
    return pairs


def _float(pairs: dict[str, str], key: str, source: str) -> float:
    try:
        value = float(pairs[key])
    except (KeyError, ValueError):
        raise CheckError(f"{source}: missing or non-numeric {key!r}") from None
    if not math.isfinite(value):
        raise CheckError(f"{source}: {key} = {value} is not finite")
    return value


def reference_fit(h) -> tuple[float, float]:
    """(rho, gamma2) of the moment fit, recomputed from the generated columns."""
    d = h.theta_star_hat - h.theta_hat
    dv = np.maximum(h.var_primary + h.var_proxy - 2.0 * h.cov, 0.0)
    rho = float(d.mean())
    gamma2 = max(0.0, float(((d - rho) ** 2).mean() - dv.mean()))
    return rho, gamma2


def check_fit(out: Path, h) -> None:
    pairs = read_kv(out)
    rho, gamma2 = reference_fit(h)
    _close("rho", _float(pairs, "rho", out.name), rho)
    _close("gamma2", _float(pairs, "gamma2", out.name), gamma2)
    if pairs.get("n_domains") != str(len(h.theta_hat)):
        raise CheckError(f"{out.name}: n_domains = {pairs.get('n_domains')}")


def check_adjust(out: Path, h, target, method: str, alpha: float = 0.05) -> None:
    """Plug-in endpoints match the reference; bootstrap endpoints are ordered and finite."""
    pairs = read_kv(out)
    rho, gamma2 = reference_fit(h)
    if pairs.get("method") != method:
        raise CheckError(f"{out.name}: method = {pairs.get('method')!r}")
    point = target.theta_star_hat - rho
    _close("point", _float(pairs, "point", out.name), point)
    _close("level", _float(pairs, "level", out.name), 1.0 - alpha)
    lower = _float(pairs, "lower", out.name)
    upper = _float(pairs, "upper", out.name)
    if method == "plugin":
        half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * math.sqrt(target.var_proxy + gamma2)
        _close("lower", lower, point - half)
        _close("upper", upper, point + half)
    elif not lower < upper:
        raise CheckError(f"{out.name}: lower {lower} is not below upper {upper}")


def check_loo(out: Path, alphas: tuple[float, ...], methods: tuple[str, ...]) -> int:
    """Rows cover methods x alphas in order, rates in [0, 1]; returns the row count."""
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    want = [(a, m) for m in methods for a in alphas]
    got = [(float(r["alpha"]), r["method"]) for r in rows]
    if got != want:
        raise CheckError(f"{out.name}: rows {got} != {want}")
    for r in rows:
        rate = float(r["overlap_rate"])
        width = float(r["normalized_width"])
        if not 0.0 <= rate <= 1.0:
            raise CheckError(f"{out.name}: overlap_rate {rate} outside [0, 1]")
        if not (math.isfinite(width) and width > 0.0):
            raise CheckError(f"{out.name}: normalized_width {width}")
    return len(rows)


def check_tune(out: Path, grid_size: int = 41) -> None:
    pairs = read_kv(out)
    betas = [float(b) for b in pairs.get("grid_betas", "").split(",") if b]
    logliks = [float(x) for x in pairs.get("grid_logliks", "").split(",") if x]
    if len(betas) != grid_size or len(logliks) != grid_size:
        raise CheckError(f"{out.name}: grid has {len(betas)} betas, {len(logliks)} logliks")
    beta_star = _float(pairs, "beta_star", out.name)
    loglik_star = _float(pairs, "loglik_star", out.name)
    if beta_star not in betas or loglik_star != max(logliks):
        raise CheckError(f"{out.name}: beta_star {beta_star} is not the grid maximum")
    if _float(pairs, "gamma2", out.name) < 0.0:
        raise CheckError(f"{out.name}: negative gamma2")
    _float(pairs, "rho", out.name)


def check_sim(out: Path, n_estimators: int, n_adjustments: int, replicates: int) -> None:
    """One row per estimator x adjustment, coverage in [0, 1], positive finite length."""
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n_estimators * n_adjustments:
        raise CheckError(f"{out.name}: {len(rows)} rows, expected {n_estimators * n_adjustments}")
    for r in rows:
        coverage = float(r["coverage"])
        length = float(r["mean_length"])
        if not 0.0 <= coverage <= 1.0:
            raise CheckError(f"{out.name}: coverage {coverage} outside [0, 1]")
        if not (math.isfinite(length) and length > 0.0):
            raise CheckError(f"{out.name}: mean_length {length}")
        if int(r["replicates"]) != replicates:
            raise CheckError(f"{out.name}: replicates {r['replicates']} != {replicates}")
