"""Measure every workload on several seeds and append a trajectory point.

Usage, from the repository root::

    python3 perfbench/trajectory.py --label "<commit> <what changed>" \\
        --seeds 1-10

Each (workload, seed) run is one ``perfbench/run.py --trace 0`` process that
measures for ``run_seconds`` of ``BENCHMARK.json``; the runs go one after
another.  For every end-to-end metric the point records the median, the
first and third quartiles (``statistics.quantiles(n=4)``), the spread
(quartile distance over median) and the number of runs, plus the median
number of answers per run, and appends it to ``perfbench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def _seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    point = {"label": args.label, "seeds": args.seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        samples, attempted = {}, []
        for seed in seeds:
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} answered wrongly:\n{completed.stdout}")
            attempted.append(result["attempted"])
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
                flush=True)
        summary = {"answers_per_run": statistics.median(attempted)}
        for name, values in samples.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "n": len(values),
            }
        point["workloads"][workload] = summary
    points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    points.append(point)
    TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
