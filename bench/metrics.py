"""Summary statistics and the per-layer metric table. Standard library only."""

from __future__ import annotations

import math
import statistics
from collections import Counter

from tracing import ratio

# Tail percentiles tried from the highest down; see tail_percentile.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(samples: list[float], p: float) -> float:
    """Linear interpolation between order statistics (numpy's default method)."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(samples: list[float]) -> float:
    return percentile(samples, 50.0)


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (p, value).

    ``None`` when even the 75th percentile has fewer than ten samples above it;
    the median is then the only order statistic reported.
    """
    n = len(samples)
    for p in _TAILS:
        if n - math.ceil(n * p / 100.0) >= 10:
            return p, percentile(samples, p)
    return None


def quartile_spread(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median.

    Quartiles follow ``statistics.quantiles(values, n=4)`` (exclusive method).
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# Functions whose self time is reported, per operation.
SELF_TIMED = (
    "simulation.gen_domain",
    "simulation.run_experiment",
    "simulation.build_history",
    "simulation.cov_components",
    "intervals.domain_bootstrap_interval",
    "rng.uniform_block",
    "core.fit_mom",
    "diagnostics.loo_overlap_rate",
    "diagnostics.normalized_width",
    "contextual.beta_profile",
    "contextual.tune_beta",
    "dataio.load_history",
    "dataio.write_manifest",
    "cli.main",
)

# Functions whose calls are reported, per operation.
CALLED = (
    "simulation.gen_domain",
    "simulation.build_history",
    "intervals.domain_bootstrap_interval",
    "intervals.plugin_interval",
    "intervals.wald_interval",
    "core.fit_mom",
    "contextual.similarity_weights",
)

# Work counted at function boundaries (tracing.WORK_COUNTS), per operation.
WORK = (
    "simulation.units_generated",
    "simulation.transport_weights",
    "intervals.bootstrap_domain_draws",
    "core.fit_mom.records",
    "dataio.rows_parsed",
)

# Functions whose call counts feed a reported metric; the tracer always wraps them.
COUNTED = frozenset(CALLED) | {
    "simulation.cov_components",
    "diagnostics.loo_overlap_rate",
    "diagnostics.normalized_width",
    "contextual.beta_profile",
}

LAYER_TOTALS = ("cli", "dataio", "core", "intervals", "diagnostics", "contextual", "simulation", "rng")


def layer_metrics(
    own: Counter,
    counts: Counter,
    ops: int,
    loo_rows: int,
    tune_commands: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as name -> (value, unit).

    ``own`` holds the self time of each traced function summed over all spans
    (``tracing.self_by_name``) and ``counts`` the traced call and work counts.
    ``ops`` is the number of traced operations: replicates on the simulation
    workloads, CLI commands on history-cli. ``loo_rows`` and
    ``tune_commands`` are the rows of every traced ``loo`` table and the
    number of traced ``tune-context`` commands.
    """
    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (own[name] / ops, "s/op")
    for name in CALLED:
        out[f"{name}.calls"] = (counts[f"{name}.calls"] / ops, "1/op")
    for name in WORK:
        out[name] = (counts[name] / ops, "1/op")
    for layer in LAYER_TOTALS:
        total = sum(s for name, s in own.items() if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = (total / ops, "s/op")
    out["simulation.run_experiment.self_ns_per_weight"] = (
        1e9 * ratio(own["simulation.run_experiment"], counts["simulation.transport_weights"]),
        "ns",
    )
    out["simulation.cov_components.calls_per_domain"] = (
        ratio(counts["simulation.cov_components.calls"], counts["simulation.domains"]),
        "count",
    )
    passes = counts["diagnostics.loo_overlap_rate.calls"] + counts["diagnostics.normalized_width.calls"]
    out["diagnostics.loo_passes_per_row"] = (ratio(passes, loo_rows), "count")
    out["contextual.profiles_per_command"] = (
        ratio(counts["contextual.beta_profile.calls"], tune_commands),
        "count",
    )
    return out
