"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload sim-grid --seeds 1-10

Runs ``bench/run.py`` once per seed with the settings in ``BENCHMARK.json``
and prints, for each end-to-end metric, the median of the runs and the
distance between their first and third quartiles as a share of the median,
next to the metric's bound. A benchmark is steady when each spread (except
that of ``setup_s``) stays well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from metrics import median, quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="range 1-10 or list 1,5,9")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", file=sys.stderr)
        line = []
        for name in values:
            values[name].append(result["metrics"][name]["value"])
            line.append(f"{name}={values[name][-1]:.5g}")
        wall = time.perf_counter() - start
        print(f"seed {seed} ({wall:.0f} s): " + "  ".join(line), flush=True)
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        spread = quartile_spread(xs) if len(xs) >= 2 else float("nan")
        print(f"{m['name']:14s} median {median(xs):12.6g} {m['unit']:4s} "
              f"spread {spread:7.4f}  bound {m['bound']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
