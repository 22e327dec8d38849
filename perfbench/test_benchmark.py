"""Self-test of the benchmark.

Run from the repository root (takes about two minutes)::

    python3 -m pytest perfbench/test_benchmark.py -q

It runs each workload once on the recorded seed and checks that the printed
metric names and units match ``BENCHMARK.json`` and that the answers
reproduce the digest stored in ``perfbench/digests.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = json.loads((HERE / "digests.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == ["table2", "teams", "churn"]
    assert set(DIGESTS) == {w["name"] for w in SPEC["workloads"]}


def test_every_per_layer_metric_names_what_it_should_move():
    mapped = {entry["metric"] for entry in LAYERS["map"]}
    assert mapped == {metric["name"] for metric in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", ["table2", "teams", "churn"])
def test_recorded_seed_reproduces_digest_and_metric_names(workload):
    (seed,) = [int(seed) for seed in DIGESTS[workload]]
    result = _result(_run(workload, seed, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    seed = int(next(iter(DIGESTS["churn"])))
    result = _result(_run("churn", seed, trace=1))
    assert result["correct"]
    expected = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("churn", 1, trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
