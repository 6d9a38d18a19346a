"""proxycal benchmark: simulation throughput and CLI command latency.

Run from the repository root::

    python3 bench/run.py --workload sim-transport --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads: ``sim-transport``, ``sim-grid``, ``history-cli`` (see
``bench/README.md``), or ``all`` to run the three in turn. With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it reports the
per-layer metrics of a traced run instead. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric with its unit and sample
count, and name the JSON report (environment, samples, output digests)
written under ``.bench_work/``.

The program is taken from ``src/`` of the checkout holding this directory;
without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from metrics import median, tail_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sim-transport", "sim-grid", "history-cli")

# BLAS threads are fixed at one: on a shared two-core machine two threads ran
# the n = 50,000 transport slower and less steadily than one.
FIXED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Fresh set-ups per untraced run; setup_s is their median.
SETUP_SAMPLES = 4

# Every process this run starts is killed after this long.
DEADLINE_S = 170.0

# What each shared metric measures on each kind of workload, as labelled in
# the text output; "op_p50_ms" is printed there only.
ALIASES = {
    "sim": {"ops_per_s": "replicates_per_s", "op_mean_ms": "replicate_mean_ms",
            "op_p50_ms": "replicate_p50_ms"},
    "cli": {"ops_per_s": "cmds_per_s", "op_mean_ms": "cmd_small_mean_ms",
            "op_p50_ms": "cmd_small_p50_ms"},
}


class WorkerError(RuntimeError):
    """A worker process failed or produced no result."""


def _worker(args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run ``worker.py``; returns (seconds until it reported READY, rest of stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), os.killpg,
                               (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"worker {' '.join(args[:2])} exited with {code} before finishing")
    return ready_s, rest


def run_workload(name: str, seed: int, seconds: int, trace: int, env: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", str(workdir)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker([*args, "--setup-only"], env, deadline)[0])
    ready_s, out = _worker(args, env, deadline)
    setups.append(ready_s)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise WorkerError(f"worker for {name} printed no result")
    result = json.loads(lines[-1])
    result["samples"]["setup_s"] = setups
    if not trace:
        result["metrics"]["setup_s"] = (median(setups), "s")
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace)
    return result


def describe(result: dict) -> list[str]:
    """Human-readable lines: each metric with its unit and sample count."""
    kind = "cli" if result["workload"] == "history-cli" else "sim"
    samples = result["samples"]
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"seconds {result['seconds']}  trace {result['trace']}"]
    rows = list(result["metrics"].items())
    if "op_mean_ms" in result["metrics"]:
        rows.append(("op_p50_ms", (median(samples["op_ms"]), "ms")))
    for name, (value, unit) in rows:
        label = name
        if name in ALIASES[kind]:
            label = f"{name} ({ALIASES[kind][name]})"
        note = ""
        if name == "op_mean_ms":
            note = f"mean of n={len(samples['op_ms'])}"
        elif name == "op_p50_ms":
            tail = tail_percentile(samples["op_ms"])
            note = f"median of n={len(samples['op_ms'])}"
            note += f", p{tail[0]:g} = {tail[1]:.4g} ms" if tail else ", too few for a tail percentile"
        elif name == "ops_per_s" and kind == "sim":
            note = f"{len(samples['op_ms'])} simulate calls x {samples['replicates_per_run']} replicate(s)"
        elif name == "ops_per_s":
            runs = samples["command_ms"]
            note = (f"{len(runs)} commands, each the median of "
                    f"{min(map(len, runs.values()))}-{max(map(len, runs.values()))} runs")
        elif name == "setup_s":
            note = f"median of n={len(samples['setup_s'])} set-ups"
        lines.append(f"  {label:52s} {value:14.6g} {unit:5s} {note}")
    if not result["trace"]:
        rate = result["failed"] / result["attempted"]
        lines.append(f"  {'error_rate':52s} {rate:14.6g} {'':5s} "
                     f"{result['failed']} of {result['attempted']} operations failed")
    for err in result["errors"]:
        lines.append(f"  failure: {err}")
    return lines


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="proxycal benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "proxycal" / "__init__.py").is_file():
        print(f"error: no proxycal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, **FIXED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace, env) for n in names]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    machine = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "env_set": FIXED_ENV,
    }
    for result in results:
        result["environment"].update(machine)
        report = ROOT / ".bench_work" / (
            f"report-{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        )
        report.write_text(json.dumps(result, indent=1) + "\n")
        print("\n".join(describe(result)))
        print(f"  environment: {json.dumps(result['environment'], sort_keys=True)}")
        print(f"  report: {report.relative_to(ROOT)}")

    def key(result: dict, metric: str) -> str:
        return metric if len(results) == 1 else f"{result['workload']}.{metric}"

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key(r, name): {"value": value, "unit": unit}
            for r in results
            for name, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
