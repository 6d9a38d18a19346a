"""Workload definitions and deterministic input generation.

Every input file is a pure function of the workload seed: history and target
tables for the CLI mix, ``key = value`` configs for the simulation workloads.
Floats are written as ``repr(float(x))`` so they round-trip exactly; a numpy
scalar repr such as ``np.float64(0.1)`` would make every command reject its
input.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Every estimator and adjustment the simulator offers (README, "Simulation config").
ESTIMATORS = ("primary_only", "proxy_only", "ppi", "ppi_weighted")
ADJUSTMENTS = ("none", "plugin", "bootstrap")

# Context vector of the generated target (two context columns).
TARGET_CONTEXT = (0.3, -0.4)

LOO_ALPHAS = "0.01,0.05,0.2"


@dataclass(frozen=True)
class SimWorkload:
    """Simulation workload: each operation is one in-process ``simulate`` run."""

    name: str
    n_domains: int
    n_per_domain: int
    kappa: float
    replicates: int  # replicates per operation
    estimators: tuple[str, ...] = ESTIMATORS
    adjustments: tuple[str, ...] = ADJUSTMENTS
    bootstrap_draws: int = 4000


@dataclass(frozen=True)
class Command:
    """One CLI command of the history-cli mix."""

    name: str
    kind: str  # fit, adjust_plugin, adjust_bootstrap, loo, tune
    small: bool
    argv: tuple[str, ...]  # arguments after ``proxycal``; {dir} is the work dir
    output: str  # output file name inside the work dir
    history: str | None = None  # history file the command reads
    alphas: tuple[float, ...] = ()
    methods: tuple[str, ...] = ()


@dataclass(frozen=True)
class CliWorkload:
    """CLI workload: each operation is one command of a fixed mix, run in order."""

    name: str
    histories: dict[str, int]  # file name -> number of domains K
    commands: tuple[Command, ...]


SIM_TRANSPORT = SimWorkload(
    name="sim-transport",
    n_domains=25,
    n_per_domain=50_000,
    kappa=0.0,
    replicates=1,
    estimators=("ppi_weighted",),
    adjustments=("plugin",),
)

SIM_GRID = SimWorkload(
    name="sim-grid",
    n_domains=25,
    n_per_domain=5_000,
    kappa=1.0,
    replicates=4,
)


def _cmd(name, kind, small, argv, output, history=None, alphas="", methods=""):
    return Command(
        name=name,
        kind=kind,
        small=small,
        argv=tuple(argv),
        output=output,
        history=history,
        alphas=tuple(float(a) for a in alphas.split(",") if a),
        methods=tuple(m for m in methods.split(",") if m),
    )


_CTX = ",".join(repr(c) for c in TARGET_CONTEXT)

HISTORY_CLI = CliWorkload(
    name="history-cli",
    histories={"h25.csv": 25, "h60.csv": 60, "h800.csv": 800},
    commands=(
        # small commands on K = 25, bound by interpreter and import start-up
        _cmd("fit", "fit", True, ["fit", "{dir}/h25.csv", "--out", "{dir}/model.txt"],
             "model.txt", history="h25.csv"),
        _cmd("adjust-plugin", "adjust_plugin", True,
             ["adjust", "--model", "{dir}/model.txt", "--target", "{dir}/target.csv",
              "--method", "plugin", "--out", "{dir}/adjust_plugin.txt"],
             "adjust_plugin.txt", history="h25.csv"),
        _cmd("adjust-bootstrap", "adjust_bootstrap", True,
             ["adjust", "--history", "{dir}/h25.csv", "--target", "{dir}/target.csv",
              "--method", "bootstrap", "--draws", "4000", "--seed", "{seed}",
              "--out", "{dir}/adjust_boot.txt"],
             "adjust_boot.txt", history="h25.csv"),
        _cmd("loo", "loo", True,
             ["loo", "{dir}/h25.csv", "--alpha", LOO_ALPHAS, "--out", "{dir}/loo.csv"],
             "loo.csv", history="h25.csv", alphas=LOO_ALPHAS, methods="unadjusted,plugin"),
        _cmd("tune-context", "tune", True,
             ["tune-context", "{dir}/h25.csv", "--target-context", _CTX,
              "--out", "{dir}/tune.txt"],
             "tune.txt", history="h25.csv"),
        # large commands
        _cmd("loo-large", "loo", False,
             ["loo", "{dir}/h800.csv", "--alpha", LOO_ALPHAS, "--method", "unadjusted,plugin",
              "--out", "{dir}/loo_large.csv"],
             "loo_large.csv", history="h800.csv", alphas=LOO_ALPHAS, methods="unadjusted,plugin"),
        _cmd("loo-bootstrap", "loo", False,
             ["loo", "{dir}/h60.csv", "--method", "bootstrap", "--seed", "{seed}",
              "--out", "{dir}/loo_boot.csv"],
             "loo_boot.csv", history="h60.csv", alphas="0.05", methods="bootstrap"),
        _cmd("tune-context-large", "tune", False,
             ["tune-context", "{dir}/h800.csv", "--target-context", _CTX,
              "--out", "{dir}/tune_large.txt"],
             "tune_large.txt", history="h800.csv"),
        _cmd("adjust-bootstrap-large", "adjust_bootstrap", False,
             ["adjust", "--history", "{dir}/h800.csv", "--target", "{dir}/target.csv",
              "--method", "bootstrap", "--draws", "20000", "--seed", "{seed}",
              "--out", "{dir}/adjust_boot_large.txt"],
             "adjust_boot_large.txt", history="h800.csv"),
    ),
)

WORKLOADS = {w.name: w for w in (SIM_TRANSPORT, SIM_GRID, HISTORY_CLI)}


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _fmt(x) -> str:
    return repr(float(x))


@dataclass
class History:
    """Generated history columns, kept to recompute fits independently."""

    theta_hat: np.ndarray
    theta_star_hat: np.ndarray
    var_primary: np.ndarray
    var_proxy: np.ndarray
    cov: np.ndarray
    context: np.ndarray
    timestamp: np.ndarray


@dataclass
class Target:
    theta_star_hat: float
    var_proxy: float


def make_history(seed: int, tag: int, k: int) -> History:
    """K domains whose proxy bias drifts with the first context coordinate."""
    rng = _rng(seed, tag)
    theta = rng.uniform(0.2, 0.6, k)
    context = rng.normal(size=(k, len(TARGET_CONTEXT)))
    var_p = rng.uniform(2e-5, 4e-4, k)
    var_x = rng.uniform(1e-5, 3e-4, k)
    cov = rng.uniform(-0.3, 0.8, k) * np.sqrt(var_p * var_x)
    diff_var = var_p + var_x - 2.0 * cov
    bias = 0.02 + 0.03 * np.tanh(context[:, 0]) + rng.normal(0.0, 0.01, k)
    theta_star = theta + bias + rng.normal(size=k) * np.sqrt(diff_var)
    return History(theta, theta_star, var_p, var_x, cov, context, np.arange(k, dtype=float))


def make_target(seed: int) -> Target:
    rng = _rng(seed, 0)
    return Target(float(rng.uniform(0.3, 0.5)), float(rng.uniform(5e-5, 2e-4)))


def write_history(path: Path, h: History) -> None:
    ctx_cols = [f"context_{j}" for j in range(h.context.shape[1])]
    lines = [",".join(["domain_id", "theta_hat", "theta_star_hat", "var_primary", "var_proxy",
                       "cov_primary_proxy", *ctx_cols, "timestamp"])]
    for i in range(len(h.theta_hat)):
        values = [h.theta_hat[i], h.theta_star_hat[i], h.var_primary[i], h.var_proxy[i], h.cov[i],
                  *h.context[i], h.timestamp[i]]
        lines.append(",".join([f"d{i:04d}", *(_fmt(v) for v in values)]))
    path.write_text("\n".join(lines) + "\n")


def write_target(path: Path, t: Target, timestamp: float) -> None:
    ctx_cols = [f"context_{j}" for j in range(len(TARGET_CONTEXT))]
    header = ",".join(["domain_id", "theta_star_hat", "var_proxy", *ctx_cols, "timestamp"])
    values = [t.theta_star_hat, t.var_proxy, *TARGET_CONTEXT, timestamp]
    path.write_text(header + "\n" + ",".join(["target", *(_fmt(v) for v in values)]) + "\n")


def generate_cli_inputs(w: CliWorkload, seed: int, workdir: Path) -> tuple[dict[str, History], Target]:
    """Write every history and the target table; return the generated values."""
    histories = {}
    for tag, (fname, k) in enumerate(sorted(w.histories.items()), start=1):
        histories[fname] = make_history(seed, tag, k)
        write_history(workdir / fname, histories[fname])
    target = make_target(seed)
    write_target(workdir / "target.csv", target, float(max(w.histories.values())))
    return histories, target


def op_seed(seed: int, op: int) -> int:
    """Seed of the ``op``-th simulation run; distinct runs never share replicates."""
    return seed * 1_000_003 + op


def write_sim_config(path: Path, w: SimWorkload, seed: int) -> None:
    lines = [
        f"n_domains = {w.n_domains}",
        f"n_per_domain = {w.n_per_domain}",
        f"kappa = {_fmt(w.kappa)}",
        f"replicates = {w.replicates}",
        f"seed = {seed}",
        f"bootstrap_draws = {w.bootstrap_draws}",
        "workers = 1",
        "estimators = " + ",".join(w.estimators),
        "adjustments = " + ",".join(w.adjustments),
    ]
    path.write_text("\n".join(lines) + "\n")


def command_argv(cmd: Command, workdir: Path, seed: int) -> list[str]:
    return [a.format(dir=workdir, seed=seed) for a in cmd.argv]
