"""Golden output pins for every CLI command.

Each test runs one command on small fixed inputs and compares the SHA-256 of
its output file (never the manifest, which records paths) with a pinned
digest. A pin changes only in a commit whose purpose is a deliberate numeric
change; that commit states the largest absolute and relative output
difference in CHANGES.md.

The same commands also run in a fresh interpreter that cannot import scipy,
which only the tests need, and must reproduce the pinned digests there.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import proxycal
from proxycal.cli import main

# Twelve domains with two context columns and a timestamp. Domain d07 is an
# outlier whose proxy sits far above its primary estimate.
HISTORY_HEADER = (
    "domain_id,theta_hat,theta_star_hat,var_primary,var_proxy,cov_primary_proxy,"
    "context_0,context_1,timestamp"
)
TARGET_CSV = (
    "domain_id,theta_star_hat,var_proxy,context_0,context_1,timestamp\n"
    "target,0.437,0.00013,0.25,-0.5,12.0\n"
)
TARGET_CONTEXT = "0.25,-0.5"

SIM_CONFIG = """\
n_domains = 4
n_per_domain = 300
kappa = 0.0,1.0
replicates = 3
seed = 5
bootstrap_draws = 300
workers = 1
estimators = primary_only,proxy_only,ppi,ppi_weighted
adjustments = none,plugin,bootstrap
"""

# Nine labeled sources: the weighted rectifier sums eight or more terms.
SIM_WEIGHTED_CONFIG = """\
n_domains = 10
n_per_domain = 200
replicates = 3
bootstrap_draws = 200
estimators = ppi_weighted
adjustments = none,plugin,bootstrap
"""

# Forty replicates: numpy's pairwise mean of a cell's replicate column and a
# one-by-one sum of the replicates round differently, so this pin tells them apart.
SIM_MANY_CONFIG = """\
n_domains = 5
n_per_domain = 200
kappa = 0.5
replicates = 40
seed = 13
bootstrap_draws = 200
workers = 2
"""

PINS = {
    "fit": "25df978e73162bed4015af18af6bfb70397f49074319d9b9eeab513f14c3e10d",
    "adjust-plugin": "b7572a11cba0f324ed5f1abbf81c5c190aaad71ecf05528b5287c8991ba863dc",
    "adjust-bootstrap": "1af7b02993d28c9db483dbf251e15238581c52c352edc0c238aa4a189414ea50",
    "loo": "7833335caa206a520298bcc6bc309e30faeb137d9c3d0f765720419a60a8b51e",
    "tune-context": "1213154a309939bb4568cfcfc01a942ebde26e42717b4fc8995de4db9bc09b17",
    "simulate": "28502ecde25b451b50fdc7c6250bdc1cb6744d7275754dae3edc5dd9a0df21e7",
    "simulate-many": "30e499b1fd441788fb86ef5cd0cfac442d7fabd34d2c552abf5948de2e580f63",
    "simulate-weighted": "5c055030196bd89e0ed1c38078edfbecd64fe9fe9907282d807e0ccceffae268",
}


def _history_rows() -> list[str]:
    rows = []
    for i in range(12):
        theta = 0.30 + 0.02 * ((7 * i) % 11)
        bias = 0.015 + 0.004 * ((5 * i) % 7) + (0.2 if i == 7 else 0.0)
        var_p = 1e-4 * (1 + (3 * i) % 5)
        var_x = 5e-5 * (1 + (2 * i) % 3)
        cov = 0.25 * min(var_p, var_x)
        ctx0 = -1.0 + 0.2 * i
        ctx1 = 0.5 - 0.1 * ((4 * i) % 9)
        values = (theta, theta + bias, var_p, var_x, cov, ctx0, ctx1, float(i))
        rows.append(",".join([f"d{i:02d}", *(repr(v) for v in values)]))
    return rows


@pytest.fixture
def files(tmp_path):
    history = tmp_path / "history.csv"
    history.write_text(HISTORY_HEADER + "\n" + "\n".join(_history_rows()) + "\n")
    target = tmp_path / "target.csv"
    target.write_text(TARGET_CSV)
    config = tmp_path / "sim.txt"
    config.write_text(SIM_CONFIG)
    weighted = tmp_path / "sim_weighted.txt"
    weighted.write_text(SIM_WEIGHTED_CONFIG)
    many = tmp_path / "sim_many.txt"
    many.write_text(SIM_MANY_CONFIG)
    return {"history": str(history), "target": str(target), "config": str(config),
            "weighted": str(weighted), "many": str(many), "dir": tmp_path}


COMMANDS = {
    "fit": ["fit", "{history}"],
    "adjust-plugin": ["adjust", "--history", "{history}", "--target", "{target}",
                      "--method", "plugin"],
    "adjust-bootstrap": ["adjust", "--history", "{history}", "--target", "{target}",
                         "--method", "bootstrap", "--draws", "2000", "--seed", "11"],
    "loo": ["loo", "{history}", "--alpha", "0.01,0.05,0.2",
            "--method", "unadjusted,plugin,bootstrap", "--draws", "500", "--seed", "3"],
    "tune-context": ["tune-context", "{history}", "--target-context", TARGET_CONTEXT],
    "simulate": ["simulate", "{config}"],
    "simulate-many": ["simulate", "{many}"],
    "simulate-weighted": ["simulate", "{weighted}"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_digest_pinned(files, name, capsys):
    out = files["dir"] / f"{name}.out"
    argv = [a.format(**files) for a in COMMANDS[name]] + ["--out", str(out)]
    assert main(argv) == 0, capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS[name]


# each replicate draws one domain ahead on a helper thread whatever the worker count
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name, config", [("simulate", "config"), ("simulate-many", "many")])
def test_simulate_pinned_at_any_worker_count(files, name, config, workers, capsys):
    text = Path(files[config]).read_text()
    assert re.search(r"^workers = \d+$", text, flags=re.M)
    path = files["dir"] / f"workers{workers}.txt"
    path.write_text(re.sub(r"^workers = \d+$", f"workers = {workers}", text, flags=re.M))
    out = files["dir"] / f"{name}-workers{workers}.out"
    assert main(["simulate", str(path), "--out", str(out)]) == 0, capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS[name]


def test_bootstrap_from_model_file_pinned(files, capsys):
    model = files["dir"] / "model.txt"
    out = files["dir"] / "adjust-bootstrap-model.out"
    assert main(["fit", files["history"], "--out", str(model)]) == 0
    argv = [a.format(**files) for a in COMMANDS["adjust-bootstrap"]]
    i = argv.index("--history")
    argv[i : i + 2] = ["--model", str(model)]
    assert main(argv + ["--out", str(out)]) == 0, capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS["adjust-bootstrap"]


def run_python(code: str, *args: str) -> str:
    """Stdout of ``python -c code args`` with this proxycal importable."""
    src = str(Path(proxycal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True, env=env).stdout


WITHOUT_SCIPY = """\
import hashlib, json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from proxycal.cli import main
digests = {}
for name, argv in json.loads(sys.argv[1]).items():
    assert main(argv) == 0, name
    with open(argv[-1], "rb") as fh:
        digests[name] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(digests))
"""


def command_runs(files, names) -> dict[str, list[str]]:
    """argv of each named command, writing ``<name>.out`` in the test directory."""
    return {
        name: [a.format(**files) for a in COMMANDS[name]] + ["--out", str(files["dir"] / f"{name}.out")]
        for name in names
    }


def test_outputs_pinned_without_scipy(files):
    stdout = run_python(WITHOUT_SCIPY, json.dumps(command_runs(files, COMMANDS)))
    assert json.loads(stdout.splitlines()[-1]) == PINS


def test_cli_import_loads_no_scipy():
    code = "import sys, proxycal.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    assert run_python(code).strip() == "[]"


SIMULATOR = ["proxycal.simulation", "concurrent.futures"]

# after each command, which of the given modules are loaded
MODULES_LOADED = """\
import json, sys
from proxycal.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append([m for m in json.loads(sys.argv[2]) if m in sys.modules])
print(json.dumps(loaded))
"""


def test_only_simulate_loads_the_simulator(files):
    # fit runs first and writes the model that adjust --model reads
    plain = [*command_runs(files, [n for n, argv in COMMANDS.items() if argv[0] != "simulate"]).values(),
             [a.format(**files) for a in ["adjust", "--model", "{dir}/fit.out", "--target", "{target}",
                                          "--method", "plugin", "--out", "{dir}/adjust-model.out"]]]
    argv = [*plain, *command_runs(files, ["simulate"]).values()]
    stdout = run_python(MODULES_LOADED, json.dumps(argv), json.dumps(SIMULATOR))
    assert json.loads(stdout.splitlines()[-1]) == [[]] * len(plain) + [SIMULATOR]


def test_no_command_loads_numpy_ma(files):
    # np.quantile would, through np.unique: bootstrap adjust, loo and simulate take quantiles
    argv = list(command_runs(files, COMMANDS).values())
    stdout = run_python(MODULES_LOADED, json.dumps(argv), json.dumps(["numpy.ma"]))
    assert json.loads(stdout.splitlines()[-1]) == [[]] * len(argv)


def test_package_root_imports_a_module_on_first_use():
    code = (
        "import sys, proxycal; loaded = lambda: 'proxycal.simulation' in sys.modules; "
        "print(loaded(), set(proxycal.__all__) <= set(dir(proxycal))); "
        "proxycal.SimConfig; print(loaded())"
    )
    assert run_python(code).split() == ["False", "True", "True"]


def test_package_root_reads_each_name_from_its_module(monkeypatch):
    monkeypatch.setattr(proxycal.core, "fit_mom", lambda history: None)
    assert proxycal.fit_mom is proxycal.core.fit_mom
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        proxycal.no_such_name
