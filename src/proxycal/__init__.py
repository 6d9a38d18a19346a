"""Calibration of proxy-based confidence intervals from historical aggregates.

The library fits the cross-domain distribution of residual proxy bias from
per-domain aggregate estimates alone, then widens (and re-centers) target
intervals accordingly: by a plug-in rule when many historical domains exist,
or by a domain bootstrap when they are scarce. Leave-one-out overlap
diagnostics make the calibration observable on real data, and a simulation
harness measures coverage under covariate shift and concept drift.
"""

from .contextual import (
    ContextWeights,
    contextual_interval,
    default_beta_grid,
    fit_weighted_mom,
    similarity_weights,
    time_decay_weights,
)
from .core import (
    WARN_GAMMA2_TRUNCATED,
    WARN_INSUFFICIENT_DOMAINS,
    BiasModel,
    DomainRecord,
    InvalidRecordError,
    TargetRecord,
    debias,
    fit_mom,
)
from .dataio import TOOL_VERSION
from .diagnostics import loo_table
from .intervals import (
    DEFAULT_BOOTSTRAP_DRAWS,
    ConfidenceInterval,
    bootstrap_interval,
    normal_quantile,
    plugin_interval,
    wald_interval,
)
from .simulation import (
    ADJUSTMENTS,
    ESTIMATORS,
    CellResult,
    DomainData,
    SimConfig,
    cov_components,
    exact_prevalence,
    gen_domain,
    outcome_prob,
    proxy_score,
    run_experiment,
    sample_unit_ball,
    threshold_count,
)

__version__ = TOOL_VERSION

__all__ = [
    "ADJUSTMENTS",
    "BiasModel",
    "CellResult",
    "ConfidenceInterval",
    "ContextWeights",
    "DEFAULT_BOOTSTRAP_DRAWS",
    "DomainData",
    "DomainRecord",
    "ESTIMATORS",
    "InvalidRecordError",
    "SimConfig",
    "TargetRecord",
    "WARN_GAMMA2_TRUNCATED",
    "WARN_INSUFFICIENT_DOMAINS",
    "bootstrap_interval",
    "contextual_interval",
    "cov_components",
    "debias",
    "default_beta_grid",
    "exact_prevalence",
    "fit_mom",
    "fit_weighted_mom",
    "gen_domain",
    "loo_table",
    "normal_quantile",
    "outcome_prob",
    "plugin_interval",
    "proxy_score",
    "run_experiment",
    "sample_unit_ball",
    "similarity_weights",
    "threshold_count",
    "time_decay_weights",
    "wald_interval",
]
