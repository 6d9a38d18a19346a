"""Command-line interface.

Commands: ``fit`` (moment fit from a history table), ``adjust`` (target
interval via plug-in or domain bootstrap), ``loo`` (leave-one-out overlap and
width table), ``simulate`` (coverage experiment from a config file) and
``tune-context`` (similarity bandwidth search). Exit status 0 on success, 2
for bad input or a path that cannot be opened, 1 for internal errors.

Each command returns its input and output paths by role (an input that was
not given is ``None``); ``main`` then writes the run manifest, whose
``params`` are every parsed argument, defaults included.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from . import dataio
from .contextual import (
    best_beta,
    beta_profile,
    default_beta_grid,
    fit_weighted_mom,
    similarity_weights,
)
from .core import debias, fit_mom
from .diagnostics import METHODS, loo_table
from .intervals import DEFAULT_BOOTSTRAP_DRAWS, bootstrap_interval, plugin_interval

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _emit_model_warnings(model) -> None:
    for flag in model.warnings:
        _warn(flag.replace("_", " "))


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise dataio.SchemaError(f"cannot parse {flag} value {text!r}") from None
    if not values:
        raise dataio.SchemaError(f"{flag} needs at least one value, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise dataio.SchemaError(f"{flag} values must be finite, got {text!r}")
    return values


def _check_alphas(alphas: list[float], text: str | float) -> None:
    if not all(0.0 < a < 1.0 for a in alphas):
        raise dataio.SchemaError(f"--alpha values must lie in (0, 1), got {text!r}")


def _check_draws(draws: int) -> None:
    if draws < 2:
        raise dataio.SchemaError(f"--draws must be >= 2 for the bootstrap, got {draws}")


@contextlib.contextmanager
def _values_of(path: str):
    """Report a ``ValueError`` raised on a file's values as bad input in that file."""
    try:
        yield
    except ValueError as exc:
        raise dataio.SchemaError(f"{path}: {exc}") from None


def _load_history_of_two(args: argparse.Namespace) -> list:
    """History for a command that compares rows with each other: at least 2 rows."""
    history = dataio.load_history(args.history)
    if len(history) < 2:
        raise dataio.SchemaError(
            f"{args.history}: {args.command} needs at least 2 history rows, found {len(history)}"
        )
    return history


def _cmd_fit(args: argparse.Namespace) -> tuple[dict, dict]:
    history = dataio.load_history(args.history)
    with _values_of(args.history):
        model = fit_mom(history)
    _emit_model_warnings(model)
    dataio.write_model(args.out, model)
    print(f"rho = {model.rho!r}")
    print(f"gamma2 = {model.gamma2!r}")
    return {"history": args.history}, {"model": args.out}


def _cmd_adjust(args: argparse.Namespace) -> tuple[dict, dict]:
    _check_alphas([args.alpha], args.alpha)
    if args.method == "bootstrap":
        _check_draws(args.draws)
    if (args.history is None) == (args.model is None):
        raise dataio.SchemaError("give exactly one of --history or --model")
    target = dataio.load_target(args.target)
    if args.history is not None:
        history = dataio.load_history(args.history)
        with _values_of(args.history):
            model = fit_mom(history)
    else:
        model = dataio.load_model(args.model)
    _emit_model_warnings(model)

    if args.method == "plugin":
        interval = plugin_interval(target, model, args.alpha)
    else:
        interval = bootstrap_interval(target, model, args.alpha, draws=args.draws, seed=args.seed)

    lines = dataio.write_kv(args.out, {
        "point": debias(target, model),
        "lower": interval.lower,
        "upper": interval.upper,
        "level": interval.level,
        "method": args.method,
    })
    print("\n".join(lines))
    inputs = {"target": args.target, "history": args.history, "model": args.model}
    return inputs, {"interval": args.out}


def _cmd_loo(args: argparse.Namespace) -> tuple[dict, dict]:
    history = _load_history_of_two(args)
    alphas = _parse_float_list(args.alpha, "--alpha")
    _check_alphas(alphas, args.alpha)
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        raise dataio.SchemaError(f"--method needs at least one value, got {args.method!r}")
    for m in methods:
        if m not in METHODS:
            raise dataio.SchemaError(f"unknown method {m!r}; choose from {METHODS}")
    if "bootstrap" in methods:
        _check_draws(args.draws)

    # the flags are checked above, so what is left is the history's values
    with _values_of(args.history):
        rows = [
            (alpha, method, rate, width)
            for method in methods
            for alpha, rate, width in loo_table(
                history, alphas, method, bootstrap_draws=args.draws, seed=args.seed
            )
        ]

    dataio.write_loo_table(args.out, rows)
    for alpha, method, rate, width in rows:
        print(f"alpha={alpha} method={method} overlap_rate={rate!r} normalized_width={width!r}")
    return {"history": args.history}, {"table": args.out}


def _cmd_simulate(args: argparse.Namespace) -> tuple[dict, dict]:
    from .simulation import run_experiment  # only simulate loads the simulator

    cells = []
    for cfg in dataio.load_sim_configs(args.config):
        cells.extend(run_experiment(cfg))
    dataio.write_results(args.out, cells)
    print(f"wrote {len(cells)} result rows to {args.out}")
    return {"config": args.config}, {"results": args.out}


def _cmd_tune_context(args: argparse.Namespace) -> tuple[dict, dict]:
    history = _load_history_of_two(args)
    target_context = tuple(_parse_float_list(args.target_context, "--target-context"))
    if args.beta_grid is not None:
        grid = _parse_float_list(args.beta_grid, "--beta-grid")
        if not all(beta > 0 for beta in grid):
            raise dataio.SchemaError(f"--beta-grid values must be > 0, got {args.beta_grid!r}")
    else:
        grid = default_beta_grid()
    if any(rec.context is None for rec in history):
        raise dataio.SchemaError(f"{args.history}: context_* columns required for tuning")
    n_context = len(history[0].context)
    if len(target_context) != n_context:
        raise dataio.SchemaError(
            f"--target-context {args.target_context!r} has {len(target_context)} value(s), "
            f"but {args.history} has {n_context} context_* column(s)"
        )

    with _values_of(args.history):
        profile = beta_profile(history, target_context, grid)
    beta_star, ll_star = best_beta(profile)
    try:
        weights = similarity_weights([r.context for r in history], target_context, beta_star)
    except ValueError as exc:  # unusable weights score -inf, so every bandwidth did
        raise dataio.SchemaError(
            f"{args.history}: every --beta-grid bandwidth scores -inf at --target-context "
            f"{args.target_context!r}, and the first, {beta_star!r}, has no usable weights: {exc}"
        ) from None
    model = fit_weighted_mom(history, weights)
    _emit_model_warnings(model)

    lines = dataio.write_kv(args.out, {
        "beta_star": beta_star,
        "loglik_star": ll_star,
        "rho": model.rho,
        "gamma2": model.gamma2,
        "grid_betas": [b for b, _ in profile],
        "grid_logliks": [ll for _, ll in profile],
    })
    print("\n".join(lines[:4]))
    return {"history": args.history}, {"tuning": args.out}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxycal",
        description="Calibrate proxy-based confidence intervals from historical aggregates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the bias distribution from a history table")
    p_fit.add_argument("history", help="history CSV path")
    p_fit.add_argument("--out", required=True, help="output model file")
    p_fit.set_defaults(func=_cmd_fit)

    p_adj = sub.add_parser("adjust", help="adjusted interval for a target record")
    p_adj.add_argument("--history", help="history CSV")
    p_adj.add_argument("--model", help="fitted model file")
    p_adj.add_argument("--target", required=True, help="target CSV path")
    p_adj.add_argument("--alpha", type=float, default=0.05)
    p_adj.add_argument("--method", choices=("plugin", "bootstrap"), default="plugin")
    p_adj.add_argument("--draws", type=int, default=DEFAULT_BOOTSTRAP_DRAWS)
    p_adj.add_argument("--seed", type=int, default=0)
    p_adj.add_argument("--out", required=True)
    p_adj.set_defaults(func=_cmd_adjust)

    p_loo = sub.add_parser("loo", help="leave-one-out overlap/width diagnostics")
    p_loo.add_argument("history", help="history CSV path")
    p_loo.add_argument("--alpha", default="0.05", help="comma-separated alpha grid")
    p_loo.add_argument(
        "--method", default="unadjusted,plugin", help="comma-separated interval methods"
    )
    p_loo.add_argument("--draws", type=int, default=DEFAULT_BOOTSTRAP_DRAWS)
    p_loo.add_argument("--seed", type=int, default=0)
    p_loo.add_argument("--out", required=True)
    p_loo.set_defaults(func=_cmd_loo)

    p_sim = sub.add_parser("simulate", help="run the coverage experiment")
    p_sim.add_argument("config", help="key = value config file")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_tune = sub.add_parser("tune-context", help="tune the similarity bandwidth")
    p_tune.add_argument("history", help="history CSV with context_* columns")
    p_tune.add_argument("--target-context", required=True, help="comma-separated vector")
    p_tune.add_argument("--beta-grid", help="comma-separated bandwidths")
    p_tune.add_argument("--out", required=True)
    p_tune.set_defaults(func=_cmd_tune_context)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs, outputs = args.func(args)
        params = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
        given = {role: path for role, path in inputs.items() if path is not None}
        dataio.write_manifest(args.out, args.command, params, inputs=given, outputs=outputs)
        return EXIT_OK
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
