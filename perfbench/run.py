"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload table2|teams|churn --seed N \\
        --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout; there is nothing to
build.  One run is one process driven by a closed-loop single client (every
policy serial, ``workers=0``).  It sets up ``SETUPS_BEFORE`` times, then runs
passes of the workload, each from a fresh set-up, until the measured time
reaches ``--seconds``.  Every later pass must reproduce the first pass's
answers exactly, and on a seed listed in ``digests.json`` the first pass must
match the stored digest.  After the passes the runner reads the peak memory,
then checks the answers (see ``workloads.py``), then sets up
``SETUPS_AFTER`` more times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (at least one of each), prints the per-layer
metrics of the traced passes, and writes their spans to
``.perfbench_out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

#: Set-ups timed before the first pass and after the checks; each later
#: pass adds one more.  Timing them at both ends of the run samples the
#: machine's speed at two times rather than one.
SETUPS_BEFORE = 5
SETUPS_AFTER = 5

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Traced keys reported as ``<key>_s`` and ``<key>_calls``.
TIMED_AND_COUNTED = (
    "signed.search_exact",
    "signed.search_heuristic",
    "signed.bfs",
    "exec.map_kernel",
    "compatibility.compatible_with",
    "distance.distance",
    "distance.batch_to_set",
    "skill_compat.skill_degree",
    "engine.compatible_from_many",
    "engine.distances_to_team_many",
)

#: Traced keys reported as ``<key>_s`` only.
TIMED = (
    "datasets.load",
    "signed.churn_apply",
    "compatibility.exact_pair_stats",
    "compatibility.sampled_pair_stats",
    "compatibility.avg_distance",
    "compatibility.skill_pair_stats",
    "compatibility.overlap",
    "engine.refresh",
    "teams.form_team",
    "teams.baseline",
)

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    **{f"{key}_s": "s" for key in TIMED_AND_COUNTED + TIMED},
    **{f"{key}_calls": "count" for key in TIMED_AND_COUNTED},
    "signed.edge_events": "count",
    "exec.sources_per_call": "count",
    "compatibility.compatible_with_distinct": "count",
    "skill_compat.pair_degree_calls": "count",
    "teams.self_s": "s",
    "teams.solved_ratio": "ratio",
    "update_p50_ms": "ms",
    "trace.overhead_s": "s",
}


def _p95(values) -> float:
    """Inclusive 95th percentile; a single value is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def layer_metrics(tracer, result) -> dict:
    """Per-layer metrics of one traced pass."""
    totals = tracer.totals()
    metrics = {}
    for key in TIMED_AND_COUNTED:
        metrics[f"{key}_s"] = totals[key]["s"]
        metrics[f"{key}_calls"] = totals[key]["calls"]
    for key in TIMED:
        metrics[f"{key}_s"] = totals[key]["s"]
    metrics["signed.edge_events"] = totals["signed.churn_apply"]["calls"]
    kernel_calls = totals["exec.map_kernel"]["calls"]
    metrics["exec.sources_per_call"] = tracer.kernel_sources / kernel_calls if kernel_calls else 0.0
    metrics["compatibility.compatible_with_distinct"] = len(tracer.compatible_with_args)
    metrics["skill_compat.pair_degree_calls"] = totals["skill_compat.pair_degree"]["calls"]
    metrics["teams.self_s"] = totals["teams.form_team"]["self_s"]
    answered = [answer for _relation, _task, answer in result.teams]
    solved = sum(1 for answer in answered if answer.solved)
    metrics["teams.solved_ratio"] = solved / len(answered) if answered else 0.0
    return metrics


def measure(workload, seconds: float, trace: bool, recorded_digest):
    """Set up, run passes, read the peak memory, check the answers, set up again.

    Returns the untraced ``(pass, None)`` and traced ``(pass, tracer)``
    pairs, the set-up times and the peak resident memory in MB.
    """
    import spans
    from workloads import Clock

    setup_times = []

    def setup(timed: bool = True):
        gc.collect()
        start = time.perf_counter()
        state = workload.setup()
        if timed:
            setup_times.append(time.perf_counter() - start)
        return state

    state = None
    for _ in range(SETUPS_BEFORE):
        state = None
        state = setup()
    untraced, traced = [], []
    reference = None
    measured = 0.0
    while True:
        tracer = None
        if trace and len(traced) < len(untraced):
            state = None
            tracer = spans.Tracer()
            tracer.install()
            tracer.resume(-1)
            state = setup(timed=False)
            tracer.pause()
        gc.collect()
        clock = Clock(tracer)
        try:
            result = workload.run(state, clock)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.wall_s = clock.elapsed
        if reference is None:
            reference = result.digest()
            if recorded_digest is not None and reference != recorded_digest:
                result.failed = result.attempted
                result.notes.append(f"digest {reference} differs from the recorded {recorded_digest}")
        elif result.digest() != reference:
            result.failed = result.attempted
            result.notes.append("answers differ from the first pass")
        (traced if tracer is not None else untraced).append((result, tracer))
        # The budget counts measured time only, not set-ups.
        measured += result.wall_s
        if measured >= seconds and (not trace or traced):
            break
        state = None
        if not trace or len(traced) >= len(untraced):
            state = setup()
    # Every pass reproduced the first one's answers (or already failed), so
    # checking the last pass, whose state is still alive, checks them all.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = workload.check(result, state)
    result.failed = min(result.failed + len(failures), result.attempted)
    result.notes.extend(failures)
    state = None
    for _ in range(SETUPS_AFTER):
        state = None
        state = setup()
    return untraced, traced, setup_times, peak_rss_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table2", "teams", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({src})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # The loader's parse-once cache would write outside the checkout.
    os.environ.pop("REPRO_SNAPSHOT_CACHE_DIR", None)
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    recorded = json.loads(DIGESTS.read_text()).get(args.workload, {})
    recorded_digest = recorded.get(str(args.seed))
    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare(OUT_DIR)
    untraced, traced, setup_times, peak_rss_mb = measure(
        workload, args.seconds, bool(args.trace), recorded_digest
    )

    passes = [result for result, _tracer in untraced + traced]
    attempted = sum(result.attempted for result in passes)
    failed = sum(result.failed for result in passes)
    queries = [s for result, _ in untraced for s in result.query_s]
    updates = [s for result, _ in untraced for s in result.update_s]
    walls = [result.wall_s for result, _ in untraced]
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {len(setup_times)} set-ups, digest {passes[0].digest()}")
    for result in passes:
        for note in result.notes[:5]:
            print(f"  FAILED: {note}")
    print(f"  failed_ratio = {failed / attempted:.4f} ({failed} of {attempted} answers)")
    print(f"  queries timed: {len(queries)}, updates timed: {len(updates)}")
    if updates:
        print(f"  update_p50_ms = {1000 * statistics.median(updates):.3f} ms")

    if args.trace:
        per_pass = [layer_metrics(tracer, result) for result, tracer in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["update_p50_ms"] = 1000 * statistics.median(updates) if updates else 0.0
        values["trace.overhead_s"] = (
            statistics.median(result.wall_s for result, _ in traced) - statistics.median(walls)
        )
        for index, (_result, tracer) in enumerate(traced):
            path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}-pass{index}.npz"
            tracer.save(path)
            print(f"  spans: {path.relative_to(ROOT)} ({len(tracer.starts)} spans)")
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "query_p50_ms": 1000 * statistics.median(queries),
            "query_p95_ms": 1000 * _p95(queries),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
