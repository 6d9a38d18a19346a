"""One-way imports between proxycal's modules, read from the source with ``ast``.

Layers, lowest first: ``core`` and ``_rng``; ``intervals``; ``diagnostics``,
``contextual`` and ``simulation``; ``dataio``; ``cli``. A module imports only
from lower layers, and only ``cli`` imports ``simulation``. The package's
public names are pinned as well.
"""

import ast
from pathlib import Path

import pytest

import proxycal

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "proxycal"

LAYER = {
    "_rng": 0,
    "core": 0,
    "intervals": 1,
    "diagnostics": 2,
    "contextual": 2,
    "simulation": 2,
    "dataio": 3,
    "cli": 4,
}

# dataio reads and writes simulation configs and results, so it imports the
# simulator. The edge costs about 11 ms of start-up: any proxycal import runs
# the package __init__, which imports every module; proxycal imports nothing
# from scipy, so numpy is the only heavy import. ROADMAP, "Simulation config
# I/O next to simulation", moves that I/O and removes this edge.
SIMULATION_IMPORTERS = {"cli", "dataio"}


def package_imports(module: str) -> set[str]:
    """Sibling modules that ``module`` imports, at any depth of its source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.level == 0 and (node.module or "").startswith("proxycal."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("proxycal.")
            )
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)


@pytest.mark.parametrize("module", sorted(LAYER))
def test_imports_flow_one_way(module):
    for imported in package_imports(module):
        assert LAYER[imported] < LAYER[module], f"{module} imports {imported}"


@pytest.mark.parametrize("module", ["diagnostics", "contextual"])
def test_diagnostics_and_contextual_stay_apart(module):
    assert not package_imports(module) & {"diagnostics", "contextual", "simulation"}


def test_only_named_modules_import_simulation():
    importers = {m for m in LAYER if "simulation" in package_imports(m)}
    assert importers == SIMULATION_IMPORTERS


def test_parser_sees_every_import_form():
    imports = package_imports("cli")
    assert {"dataio", "contextual", "core", "diagnostics", "intervals", "simulation"} <= imports


# The public API. A change to it edits this list on purpose.
PUBLIC_API = [
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
    "build_history",
    "contextual_interval",
    "cov_components",
    "debias",
    "default_beta_grid",
    "diff_stats",
    "estimate_all",
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
    "tune_beta",
    "wald_interval",
]


def test_public_api_pinned():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert proxycal.__all__ == PUBLIC_API
    assert [name for name in PUBLIC_API if not hasattr(proxycal, name)] == []
