"""Calibration of proxy-based confidence intervals from historical aggregates.

The library fits the cross-domain distribution of residual proxy bias from
per-domain aggregate estimates alone, then widens (and re-centers) target
intervals accordingly: by a plug-in rule when many historical domains exist,
or by a domain bootstrap when they are scarce. Leave-one-out overlap
diagnostics make the calibration observable on real data, and a simulation
harness measures coverage under covariate shift and concept drift.
"""

from importlib import import_module

from .dataio import TOOL_VERSION

__version__ = TOOL_VERSION

# Each public name, by the module that defines it. A module is imported on the
# first use of one of its names, so the plain fit and adjust paths never load
# the simulator.
_HOMES = {
    "contextual": (
        "ContextWeights",
        "contextual_interval",
        "default_beta_grid",
        "fit_weighted_mom",
        "similarity_weights",
        "time_decay_weights",
    ),
    "core": (
        "WARN_GAMMA2_TRUNCATED",
        "WARN_INSUFFICIENT_DOMAINS",
        "BiasModel",
        "DomainRecord",
        "InvalidRecordError",
        "TargetRecord",
        "debias",
        "fit_mom",
    ),
    "diagnostics": ("loo_table",),
    "intervals": (
        "DEFAULT_BOOTSTRAP_DRAWS",
        "ConfidenceInterval",
        "bootstrap_interval",
        "normal_quantile",
        "plugin_interval",
        "wald_interval",
    ),
    "simulation": (
        "ADJUSTMENTS",
        "ESTIMATORS",
        "CellResult",
        "DomainData",
        "SimConfig",
        "cov_components",
        "exact_prevalence",
        "run_experiment",
        "sample_unit_ball",
    ),
}
_HOME = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # not cached in globals(), so a name always reads its defining module
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
