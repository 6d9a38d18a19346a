"""One-way imports between proxycal's modules, read from the source with ``ast``.

Layers, lowest first: ``core`` and ``_rng``; ``intervals``; ``diagnostics``,
``contextual`` and ``simulation``; ``dataio``; ``cli``. A module imports only
from lower layers, and only ``cli`` and ``dataio`` import ``simulation``, each
inside the one function that runs it. The package's public names are pinned as
well.
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

# cli imports the simulator only inside _cmd_simulate, and dataio only inside
# load_sim_configs, so the plain commands never load it. Moving the config I/O
# into simulation would drop dataio from this set; it waits until the
# benchmark stops calling dataio.load_sim_configs (ROADMAP direction 3).
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


def constructed_names(module: str) -> set[str]:
    """Names that ``module`` calls directly, as ``f(...)`` or ``x.f(...)``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


# The simulator builds its target record to call the public interval functions.
@pytest.mark.parametrize("record, builders", [
    ("DomainRecord", {"core", "dataio"}),
    ("TargetRecord", {"core", "dataio", "simulation"}),
], ids=["DomainRecord", "TargetRecord"])
def test_only_core_and_dataio_construct_domain_records(record, builders):
    # records are what the user hands in; computed statistics stay arrays
    constructing = {m for m in LAYER if record in constructed_names(m)}
    assert constructing <= builders


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
    "contextual_interval",
    "cov_components",
    "debias",
    "default_beta_grid",
    "exact_prevalence",
    "fit_mom",
    "fit_weighted_mom",
    "loo_table",
    "normal_quantile",
    "plugin_interval",
    "run_experiment",
    "sample_unit_ball",
    "similarity_weights",
    "time_decay_weights",
    "wald_interval",
]


def test_public_api_pinned():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert proxycal.__all__ == PUBLIC_API
    assert [name for name in PUBLIC_API if not hasattr(proxycal, name)] == []
