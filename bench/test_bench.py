"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

import checks
import workloads as W
from metrics import COUNTED, layer_metrics, percentile, quartile_spread, tail_percentile
from tracing import Tracer, self_by_name, self_times
from worker import CliRunner

ROOT = Path(__file__).resolve().parent.parent


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 7.0, 0),
        _span("b", 7.5, 8.0, 0),
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 1.0, 2.0, 0.5])
    assert self_by_name(spans) == pytest.approx({"root": 4.5, "a": 2.0, "a.inner": 1.0, "b": 2.5})
    # self times partition the root span
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_tracer_nests_cross_module_calls_and_folds_sibling_calls():
    from proxycal import core, intervals

    history = [core.DomainRecord(f"d{i}", 0.1 * i, 0.1 * i + 0.01, 1e-4, 1e-4, 0.0) for i in range(5)]
    target = core.TargetRecord("t", 0.3, 1e-4)
    originals = (core.fit_mom, intervals.plugin_interval, intervals.debias)
    tracer = Tracer(COUNTED)
    tracer.install()
    try:
        model = core.fit_mom(history)
        intervals.plugin_interval(target, model, 0.05)
    finally:
        tracer.uninstall()
    assert (core.fit_mom, intervals.plugin_interval, intervals.debias) == originals

    names = [(s[0], s[3]) for s in tracer.spans]
    # plugin_interval -> debias crosses into core and opens a child span;
    # plugin_interval -> wald_interval stays in intervals and only counts
    assert names == [("core.fit_mom", -1), ("intervals.plugin_interval", -1), ("core.debias", 1)]
    counts = tracer.call_counts()
    assert counts["intervals.wald_interval.calls"] == 1
    assert counts["core.fit_mom.records"] == 5
    own = self_by_name(tracer.spans)
    plugin, debias = tracer.spans[1], tracer.spans[2]
    assert own["intervals.plugin_interval"] == pytest.approx(
        (plugin[2] - plugin[1]) - (debias[2] - debias[1])
    )


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n)]
    tail = tail_percentile(samples)
    if expected is None:
        assert tail is None
    else:
        p, value = tail
        assert p == expected
        assert value == pytest.approx(percentile(samples, p))
        assert sum(x > value for x in samples) >= 10


def test_percentile_and_spread():
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert percentile([1.0, 2.0], 25.0) == 1.25
    # statistics.quantiles, exclusive method: q1 = 1.75, q2 = 3.5, q3 = 5.25
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) == pytest.approx(3.5 / 3.5)


def test_ratio_metrics():
    counts = Counter({
        "simulation.cov_components.calls": 97,
        "simulation.domains": 25,
        "diagnostics.loo_overlap_rate.calls": 6,
        "diagnostics.normalized_width.calls": 6,
        "contextual.beta_profile.calls": 4,
    })
    m = layer_metrics(Counter(), counts, ops=1, loo_rows=6, tune_commands=2)
    assert m["simulation.cov_components.calls_per_domain"] == (3.88, "count")
    assert m["diagnostics.loo_passes_per_row"] == (2.0, "count")
    assert m["contextual.profiles_per_command"] == (2.0, "count")
    # a workload that never does the work reports zero, not a division error
    empty = layer_metrics(Counter(), Counter(), ops=1, loo_rows=0, tune_commands=0)
    assert empty["diagnostics.loo_passes_per_row"] == (0.0, "count")
    assert empty["simulation.run_experiment.self_ns_per_weight"] == (0.0, "ns")


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(layer_metrics(Counter(), Counter(), 1, 0, 0))
    names |= {"cli.interpreter_s", "cli.import_s", "cli.modules_loaded",
              "cli.scipy_special_loaded", "trace.op_s", "trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)


def test_inputs_depend_only_on_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        W.generate_cli_inputs(W.HISTORY_CLI, seed, d)
    for fname in [*W.HISTORY_CLI.histories, "target.csv"]:
        text = (dirs[0] / fname).read_text()
        assert text == (dirs[1] / fname).read_text()
        assert text != (dirs[2] / fname).read_text()
        assert "np." not in text


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A history-cli work dir in which ``fit`` ran once and passed its check."""
    workdir = tmp_path_factory.mktemp("cli")
    runner = CliRunner(W.HISTORY_CLI, 3, workdir)
    runner.histories, runner.target = W.generate_cli_inputs(W.HISTORY_CLI, 3, workdir)
    runner.command(W.HISTORY_CLI.commands[0], None)
    return runner


def test_checker_accepts_real_fit_output(fitted):
    out = fitted.workdir / "model.txt"
    checks.check_artifacts(out)
    checks.check_fit(out, fitted.histories["h25.csv"])


def test_checker_fails_corrupted_fit(fitted, tmp_path):
    src = fitted.workdir / "model.txt"
    out = tmp_path / "model.txt"
    shutil.copy(src, out)
    shutil.copy(str(src) + ".manifest.json", str(out) + ".manifest.json")
    pairs = checks.read_kv(out)
    text = out.read_text().replace(f"rho = {pairs['rho']}", f"rho = {float(pairs['rho']) * (1 + 1e-9)!r}")
    out.write_text(text)
    with pytest.raises(checks.CheckError, match="rho"):
        checks.check_fit(out, fitted.histories["h25.csv"])
    with pytest.raises(checks.CheckError, match="digest"):
        checks.check_artifacts(out)


def test_corrupted_command_output_counts_as_failed_operation(fitted, monkeypatch):
    fit = W.HISTORY_CLI.commands[0]
    again = W.Command("fit-again", fit.kind, fit.small, fit.argv, fit.output, fit.history)
    monkeypatch.setattr(fitted, "w", W.CliWorkload("fit-twice", W.HISTORY_CLI.histories, (fit, again)))
    real_spawn = fitted.spawn
    spawned = []

    def spawn_corrupting_first(argv, trace_out):
        result = real_spawn(argv, trace_out)
        if not spawned:
            out = fitted.workdir / fit.output
            out.write_text(out.read_text().replace("gamma2 = ", "gamma2 = 1"))
        spawned.append(argv)
        return result

    monkeypatch.setattr(fitted, "spawn", spawn_corrupting_first)
    with pytest.raises(checks.CheckError):
        fitted.command(fit, None)
    spawned.clear()
    run, (metrics, _) = fitted.run(seconds=0.0, trace=False)
    assert (run.attempted, run.failed) == (2, 1)
    assert "fit (round 1)" in run.errors[0]
    assert metrics["ops_per_s"][0] > 0.0


def test_loo_check_rejects_rate_outside_unit_interval(tmp_path):
    out = tmp_path / "loo.csv"
    out.write_text("alpha,method,overlap_rate,normalized_width\n0.05,plugin,1.5,2.0\n")
    with pytest.raises(checks.CheckError, match="overlap_rate"):
        checks.check_loo(out, (0.05,), ("plugin",))


def test_sim_check_rejects_wrong_shape(tmp_path):
    out = tmp_path / "results.csv"
    header = "kappa,K,n,estimator,adjustment,coverage,mean_length,replicates\n"
    out.write_text(header + "0.0,25,5000,ppi,plugin,0.95,0.01,4\n")
    checks.check_sim(out, 1, 1, 4)
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_sim(out, 4, 3, 4)
    out.write_text(header + "0.0,25,5000,ppi,plugin,0.95,0.0,4\n")
    with pytest.raises(checks.CheckError, match="mean_length"):
        checks.check_sim(out, 1, 1, 4)
