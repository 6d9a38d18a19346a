"""Benchmark worker: set up one workload, then run its timed operations.

Started by ``run.py`` with the environment it fixes (source path, BLAS
threads)::

    python3 bench/worker.py --workload NAME --seed N --seconds T --trace 0|1 \
        --workdir DIR [--setup-only]

It prints ``READY`` once set-up (imports, input generation, loading every
generated input through ``proxycal.dataio``, one untimed warm-up operation)
is done. With ``--setup-only`` it then exits; otherwise it runs operations
for ``T`` seconds and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import checks
import workloads as W
from metrics import COUNTED, layer_metrics, median
from tracing import Tracer, self_by_name

BENCH = Path(__file__).resolve().parent

# Exactly what the ``proxycal`` console script runs.
CLI_ENTRY = "import sys; from proxycal.cli import main; sys.exit(main())"

STARTUP_SAMPLES = 5


class Run:
    """Tallies of one measuring phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, list[str]] = defaultdict(list)
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.own: Counter = Counter()
        self.counts: Counter = Counter()

    def fail(self, label: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {exc!r}")

    def trace_overhead_pct(self) -> float:
        traced = sum(self.traced) / len(self.traced)
        untraced = sum(self.untraced) / len(self.untraced)
        return 100.0 * (traced / untraced - 1.0)


def _time_up(start: float, seconds: float, trace: bool, done: int) -> bool:
    """Time is up; in a traced run, only after equal numbers of traced and plain passes."""
    return time.perf_counter() - start >= seconds and (not trace or done % 2 == 0)


class SimRunner:
    """Each operation is one in-process ``proxycal simulate`` call."""

    def __init__(self, w: W.SimWorkload, seed: int, workdir: Path) -> None:
        import proxycal.cli
        import proxycal.dataio

        self.w = w
        self.seed = seed
        self.workdir = workdir
        self.cli = proxycal.cli
        self.dataio = proxycal.dataio
        self.config = workdir / "sim.txt"
        self.out = workdir / "results.csv"

    def setup(self) -> None:
        W.write_sim_config(self.config, self.w, W.op_seed(self.seed, 0))
        (cell,) = self.dataio.load_sim_configs(self.config)
        if cell.replicates != self.w.replicates:
            raise checks.CheckError(f"config round trip lost replicates: {cell}")
        self.op(0)

    def op(self, i: int) -> tuple[float, str]:
        """Run the ``i``-th simulation; returns (seconds, output SHA-256)."""
        W.write_sim_config(self.config, self.w, W.op_seed(self.seed, i))
        for stale in (self.out, Path(str(self.out) + ".manifest.json")):
            stale.unlink(missing_ok=True)
        argv = ["simulate", str(self.config), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            raise checks.CheckError(f"simulate exited with {code}")
        sha = checks.check_artifacts(self.out)
        checks.check_sim(self.out, len(self.w.estimators), len(self.w.adjustments), self.w.replicates)
        return elapsed, sha

    def run(self, seconds: float, trace: bool) -> tuple[Run, dict]:
        run = Run()
        tracer = Tracer(COUNTED)
        start = time.perf_counter()
        i = 1
        while True:
            traced = trace and i % 2 == 1
            run.attempted += 1
            if traced:
                tracer.op = i
                tracer.install()
            try:
                elapsed, sha = self.op(i)
                (run.traced if traced else run.untraced).append(elapsed)
                run.digests["simulate"].append(sha)
            except Exception as exc:  # an operation's failure is counted, not fatal
                run.fail(f"simulate #{i}", exc)
            finally:
                tracer.uninstall()
            if _time_up(start, seconds, trace, i):
                break
            i += 1
        if not trace:
            return run, self.metrics(run)
        run.own = self_by_name(tracer.spans)
        run.counts = tracer.call_counts()
        replicates = len(run.traced) * self.w.replicates
        return run, traced_metrics(run, replicates, loo_rows=0, tune_commands=0)

    def metrics(self, run: Run) -> tuple[dict, dict]:
        if not run.untraced:
            raise RuntimeError(f"no operation succeeded: {run.errors}")
        per_rep = [t / self.w.replicates for t in run.untraced]
        return {
            "ops_per_s": (len(per_rep) / sum(per_rep), "1/s"),
            "op_mean_ms": (1000.0 * sum(per_rep) / len(per_rep), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }, {"op_ms": [1000.0 * t for t in per_rep], "replicates_per_run": self.w.replicates}


class CliRunner:
    """Each operation is one ``proxycal`` command in a fresh interpreter."""

    def __init__(self, w: W.CliWorkload, seed: int, workdir: Path) -> None:
        self.w = w
        self.seed = seed
        self.workdir = workdir
        self.histories: dict = {}
        self.target = None
        self.peak_rss_mb = 0.0

    def setup(self) -> None:
        import proxycal.dataio as dataio

        self.histories, self.target = W.generate_cli_inputs(self.w, self.seed, self.workdir)
        for fname, k in self.w.histories.items():
            records = dataio.load_history(self.workdir / fname)
            if len(records) != k or records[0].context is None:
                raise checks.CheckError(f"{fname}: loaded {len(records)} records, expected {k}")
        dataio.load_target(self.workdir / "target.csv")
        self.command(self.w.commands[0], None)

    def spawn(self, argv: list[str], trace_out: Path | None) -> tuple[float, int, str]:
        """Run one command; returns (wall seconds, exit code, log tail)."""
        if trace_out is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        else:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_out), *argv]
        log_path = self.workdir / "command.log"
        with log_path.open("wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=log, stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return elapsed, proc.returncode, log_path.read_text(errors="replace")[-300:]

    def command(self, cmd: W.Command, trace_out: Path | None) -> tuple[float, str, int]:
        """Run and check one command; returns (seconds, output SHA-256, loo rows)."""
        out = self.workdir / cmd.output
        for stale in (out, Path(str(out) + ".manifest.json")):
            stale.unlink(missing_ok=True)
        elapsed, code, log = self.spawn(W.command_argv(cmd, self.workdir, self.seed), trace_out)
        if code != 0:
            raise checks.CheckError(f"exit code {code}: {log}")
        sha = checks.check_artifacts(out)
        rows = 0
        history = self.histories.get(cmd.history)
        if cmd.kind == "fit":
            checks.check_fit(out, history)
        elif cmd.kind == "adjust_plugin":
            checks.check_adjust(out, history, self.target, "plugin")
        elif cmd.kind == "adjust_bootstrap":
            checks.check_adjust(out, history, self.target, "bootstrap")
        elif cmd.kind == "loo":
            rows = checks.check_loo(out, cmd.alphas, cmd.methods)
        else:
            checks.check_tune(out)
        return elapsed, sha, rows

    def run(self, seconds: float, trace: bool) -> tuple[Run, dict]:
        """Run the mix in order, round after round.

        A plain run stops after the command in flight once time is up and
        every command has run; a traced run alternates traced and plain
        rounds and stops only after whole pairs of rounds, so the traced
        commands are always whole mixes.
        """
        run = Run()
        self.peak_rss_mb = 0.0
        by_command: dict[str, list[float]] = defaultdict(list)
        loo_rows = tune_commands = 0
        trace_out = self.workdir / "spans.json"
        start = time.perf_counter()
        rnd = 1
        while True:
            traced = trace and rnd % 2 == 1
            for cmd in self.w.commands:
                run.attempted += 1
                trace_out.unlink(missing_ok=True)
                try:
                    elapsed, sha, rows = self.command(cmd, trace_out if traced else None)
                except Exception as exc:  # an operation's failure is counted, not fatal
                    run.fail(f"{cmd.name} (round {rnd})", exc)
                    continue
                run.digests[cmd.name].append(sha)
                if not traced:
                    run.untraced.append(elapsed)
                    by_command[cmd.name].append(elapsed)
                    if not trace and rnd > 1 and time.perf_counter() - start >= seconds:
                        return run, self.metrics(run, by_command)
                    continue
                run.traced.append(elapsed)
                dump = json.loads(trace_out.read_text())
                run.own.update(self_by_name(dump["spans"]))
                run.counts.update(dump["counts"])
                loo_rows += rows
                tune_commands += cmd.kind == "tune"
            if _time_up(start, seconds, trace, rnd):
                if trace:
                    return run, traced_metrics(run, len(run.traced), loo_rows, tune_commands)
                return run, self.metrics(run, by_command)
            rnd += 1

    def metrics(self, run: Run, by_command: dict[str, list[float]]) -> tuple[dict, dict]:
        """Closed-loop rate of the mix from each command's median time.

        A command that never succeeded drops out of the mix; the run is then
        reported as incorrect through its failure count.
        """
        done = [c for c in self.w.commands if by_command[c.name]]
        small = [t for c in done if c.small for t in by_command[c.name]]
        if not small:
            raise RuntimeError(f"no small command succeeded: {run.errors}")
        mix_s = sum(median(by_command[c.name]) for c in done)
        return {
            "ops_per_s": (len(done) / mix_s, "1/s"),
            "op_mean_ms": (1000.0 * sum(small) / len(small), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }, {
            "op_ms": [1000.0 * t for t in small],
            "command_ms": {name: [1000.0 * t for t in ts] for name, ts in by_command.items()},
        }


def startup_metrics() -> dict:
    """Interpreter start, cold import of ``proxycal.cli`` and what it loads."""

    def wall(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        return time.perf_counter() - start

    interp, imported = [], []
    for _ in range(STARTUP_SAMPLES):
        interp.append(wall("pass"))
        imported.append(wall("import proxycal.cli"))
    probe = (
        "import sys; n = len(sys.modules); import proxycal.cli; "
        "print(len(sys.modules) - n, int('scipy.special' in sys.modules))"
    )
    loaded, special = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True, text=True
    ).stdout.split()
    return {
        "cli.interpreter_s": (median(interp), "s"),
        "cli.import_s": (median(imported) - median(interp), "s"),
        "cli.modules_loaded": (float(loaded), "count"),
        "cli.scipy_special_loaded": (float(special), "flag"),
    }


def traced_metrics(run: Run, ops: int, loo_rows: int, tune_commands: int) -> tuple[dict, dict]:
    """Per-layer metrics; ``ops`` counts replicates or commands that ran traced."""
    if not (run.traced and run.untraced):
        raise RuntimeError(f"no traced or no plain operation succeeded: {run.errors}")
    metrics = layer_metrics(run.own, run.counts, ops, loo_rows, tune_commands)
    metrics.update(startup_metrics())
    metrics["trace.op_s"] = (sum(run.traced) / ops, "s/op")
    metrics["trace.overhead_pct"] = (run.trace_overhead_pct(), "%")
    return metrics, {"traced_ops": ops, "untraced_ops": len(run.untraced)}


def blas_threads() -> int | None:
    """Thread count the BLAS bundled with numpy is using, if it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    w = W.WORKLOADS[args.workload]
    runner_cls = SimRunner if isinstance(w, W.SimWorkload) else CliRunner
    runner = runner_cls(w, args.seed, args.workdir)
    runner.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    run, (metrics, samples) = runner.run(args.seconds, bool(args.trace))
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "metrics": metrics,
        "samples": samples,
        "digests": {name: sorted(set(shas)) for name, shas in run.digests.items()},
        "environment": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
