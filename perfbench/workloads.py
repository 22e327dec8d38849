"""The three benchmark workloads: ``table2``, ``teams`` and ``churn``.

Each workload is a class with

* ``prepare(out_dir)`` — input generation that is neither set-up nor
  measured (``churn`` writes its edge list here);
* ``setup()`` — dataset load plus context build; returns a state object;
* ``run(state, clock)`` — one closed-loop pass by a single client; returns
  a :class:`Pass` with the answers, per-query and per-update latencies;
* ``check(result, state)`` — the answer checks of a pass, run after it (and
  after the runner has read the peak memory); returns the failures.

The graphs are the stand-ins at their registry seeds on every run.  The
workload seed draws everything else: sampled sources and skill pairs, tasks,
the RANDOM policy's choices and the churn stream.  Runs on different seeds
thus do comparable graph work, and their spread measures the program rather
than the luck of the generated graph.  Each pass starts from a fresh set-up,
so every pass does the same work from cold caches, like one run of the
reproduction does.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

import repro.datasets as datasets
from repro.compatibility import DistanceOracle, make_relation
from repro.datasets import loaders
from repro.exec import ExecutionPolicy
from repro.experiments import streaming, table3
from repro.experiments import table2 as table2_experiment
from repro.experiments.config import DatasetConfig, ExperimentConfig
from repro.experiments.table2 import Table2DatasetResult, Table2Result, run_table2
from repro.experiments.workloads import DatasetContext
from repro.signed.io import write_edge_list
from repro.skills.task import random_tasks
from repro.teams import TeamFormationProblem, algorithms, validate_team
from repro.utils.rng import ensure_rng


class Clock:
    """Accumulates only the timed segments of a pass.

    Work between segments (drawing tasks, building problems) is therefore
    left out of ``wall_s``, which is the time from the end of set-up to the
    last answer.
    With a tracer, spans are recorded only inside timed segments, and each
    segment (one query or one update) gets its own query id.
    """

    def __init__(self, tracer=None) -> None:
        self.elapsed = 0.0
        self.segments = 0
        self._tracer = tracer
        self._start = 0.0

    def start(self) -> None:
        if self._tracer is not None:
            self._tracer.resume(self.segments)
        self.segments += 1
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Close the open segment; returns its length in seconds."""
        segment = time.perf_counter() - self._start
        if self._tracer is not None:
            self._tracer.pause()
        self.elapsed += segment
        return segment


@dataclass
class Pass:
    """What one pass produced."""

    answers: List[object] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    update_s: List[float] = field(default_factory=list)
    #: Human-readable outputs covered by the digest (Table 2 / Table 3 text).
    text: str = ""
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    #: (relation name, task, TeamFormationResult) of each answered team query.
    teams: List[tuple] = field(default_factory=list)
    #: Length of ``teams`` at the end of each churn round.
    round_ends: List[int] = field(default_factory=list)
    #: Sum of the timed segments (set by the runner).
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.answers)

    def digest(self) -> str:
        payload = json.dumps([self.text, self.answers], sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Generation seeds of the stand-ins (their registry defaults).
GRAPH_SEEDS = {"slashdot": 13, "epinions": 17, "wikipedia": 19, "million": 43}


def _context(dataset_config: DatasetConfig) -> DatasetContext:
    """Load a stand-in at its registry seed; ``dataset_config.seed`` drives sampling."""
    dataset = datasets.load_dataset(
        dataset_config.name, seed=GRAPH_SEEDS[dataset_config.name], scale=dataset_config.scale
    )
    return DatasetContext(dataset, dataset_config)


def _team_key(team) -> Optional[List[str]]:
    return None if team is None else sorted(repr(member) for member in team)


# --------------------------------------------------------------------- table2


class Table2Workload:
    """Table 2 on the three stand-ins, all six relations.

    Slashdot stays on the exact per-pair branch (including exact SBP),
    wikipedia is exact too, and epinions sits above 1024 nodes so it takes
    the sampled engine / CSR branch.  The one query of a pass is the whole
    table.  It is timed in segments, one per (dataset, relation) cell
    answered by :func:`repro.experiments.table2.run_table2` on the shared
    contexts and one per SBP~SBPH agreement, so that traced spans carry the
    cell they belong to; each cell is one answer.  The cells are merged
    back into one table for the digest.

    Quantiles over the cells would be the times of single cells of a few
    hundred milliseconds, which the machine's second-scale speed swings
    move by up to 1.7x; the whole table is a sum over half a minute.
    """

    name = "table2"

    def __init__(self, seed: int) -> None:
        self.config = ExperimentConfig(
            datasets=(
                DatasetConfig(
                    name="slashdot",
                    seed=seed,
                    scale=0.5,
                    num_sampled_skill_pairs=300,
                    compute_exact_sbp=True,
                    sbp_max_expansions=20_000,
                ),
                DatasetConfig(
                    name="epinions",
                    seed=seed,
                    scale=0.036,
                    num_sampled_sources=60,
                    num_sampled_skill_pairs=300,
                ),
                DatasetConfig(
                    name="wikipedia",
                    seed=seed,
                    scale=0.06,
                    num_sampled_sources=60,
                    num_sampled_skill_pairs=300,
                ),
            ),
            workload_seed=2020 + seed,
        )

    def prepare(self, out_dir: Path) -> None:
        pass

    def setup(self):
        contexts = {}
        for dataset in self.config.datasets:
            context = _context(dataset)
            for relation in self.config.table2_relations:
                context.relation_context(relation)
            contexts[dataset.name] = context
        return contexts

    def run(self, contexts, clock: Clock) -> Pass:
        result = Pass()
        blocks = []
        for dataset in self.config.datasets:
            context = contexts[dataset.name]
            block = Table2DatasetResult(dataset=dataset.name)
            for relation in self.config.table2_relations:
                block.cells[relation] = None
                if relation == "SBP" and not dataset.compute_exact_sbp:
                    continue
                single = replace(self.config, datasets=(dataset,), table2_relations=(relation,))
                clock.start()
                try:
                    cell = run_table2(single, {dataset.name: context}).datasets[0].cells[relation]
                except Exception as error:  # noqa: BLE001 - a failed cell is counted
                    clock.stop()
                    _failed(result, [dataset.name, relation], f"{dataset.name}/{relation}: {error!r}")
                    continue
                clock.stop()
                block.cells[relation] = cell
                result.answers.append([dataset.name, relation, cell.compatible_users_pct])
            if dataset.compute_exact_sbp:
                clock.start()
                try:
                    block.sbp_sbph_agreement = table2_experiment.relation_overlap(
                        context.relation_context("SBP").relation,
                        context.relation_context("SBPH").relation,
                        seed=dataset.seed,
                    )
                except Exception as error:  # noqa: BLE001 - a failed cell is counted
                    clock.stop()
                    _failed(result, [dataset.name, "SBP~SBPH"], f"{dataset.name} overlap: {error!r}")
                else:
                    clock.stop()
                    result.answers.append([dataset.name, "SBP~SBPH", block.sbp_sbph_agreement])
            blocks.append(block)
        result.query_s.append(clock.elapsed)
        table = Table2Result(relations=tuple(self.config.table2_relations), datasets=blocks)
        result.text = table.as_text()
        return result

    def check(self, result: Pass, contexts) -> List[str]:
        """SPA <= SPM <= SPO <= NNE on users %, for every dataset."""
        users: Dict[str, dict] = {}
        for name, relation, value in result.answers:
            if value is not None:
                users.setdefault(name, {})[relation] = value
        failures = []
        for name, values in users.items():
            chain = [values.get(relation) for relation in ("SPA", "SPM", "SPO", "NNE")]
            if None in chain:
                continue
            if any(a > b + 1e-9 for a, b in zip(chain, chain[1:])):
                failures.append(f"{name}: users % not contained {chain}")
        return failures


# ---------------------------------------------------------------------- teams


class TeamsWorkload:
    """Figure 2(a)-(d) plus Table 3 as one query stream on epinions."""

    name = "teams"
    relations = ("SPA", "SPM", "SPO", "NNE")
    algorithm_names = ("LCMD", "LCMC", "RFMD", "RFMC", "RANDOM")
    task_sizes = (2, 5, 10, 15, 20)
    task_size = 5
    num_tasks = 50

    def __init__(self, seed: int) -> None:
        self.config = ExperimentConfig(
            datasets=(DatasetConfig(name="epinions", seed=seed, scale=0.05),),
            team_dataset="epinions",
            team_relations=self.relations,
            num_tasks=self.num_tasks,
            workload_seed=2020 + seed,
        )

    def prepare(self, out_dir: Path) -> None:
        pass

    def setup(self):
        context = _context(self.config.datasets[0])
        for relation in self.relations:
            context.relation_context(relation)
        seed = self.config.workload_seed
        tasks = {
            k: context.generate_tasks(size=k, count=self.num_tasks, seed=seed + k)
            for k in self.task_sizes
        }
        # Figure 2(a)(b) and Table 3 share the k=5 tasks drawn at the workload seed.
        tasks["ab"] = context.generate_tasks(
            size=self.task_size, count=self.num_tasks, seed=seed
        )
        return context, tasks

    def batches(self, tasks):
        """(relation, algorithm, batch label, tasks) in stream order."""
        for relation in self.relations:
            for algorithm in self.algorithm_names:
                yield relation, algorithm, "ab", tasks["ab"]
            for k in self.task_sizes:
                if k != self.task_size:
                    yield relation, "LCMD", k, tasks[k]

    def run(self, state, clock: Clock) -> Pass:
        context, tasks = state
        dataset = context.dataset
        result = Pass()
        for relation, algorithm, label, batch in self.batches(tasks):
            relation_context = context.relation_context(relation)
            rng = ensure_rng(self.config.workload_seed)
            for index, task in enumerate(batch):
                clock.start()
                try:
                    problem = TeamFormationProblem(
                        dataset.graph,
                        dataset.skills,
                        relation_context.relation,
                        task,
                        skill_index=relation_context.skill_index,
                        engine=relation_context.engine,
                    )
                    answer = algorithms.run_algorithm(
                        algorithm, problem, max_seeds=self.config.max_seeds, seed=rng
                    )
                except Exception as error:  # noqa: BLE001 - a failed query is counted
                    result.query_s.append(clock.stop())
                    _failed(result, [relation, algorithm, label, index],
                            f"{relation}/{algorithm}/{label}: {error!r}")
                    continue
                result.query_s.append(clock.stop())
                result.answers.append(
                    [relation, algorithm, label, index, answer.solved,
                     repr(answer.cost), _team_key(answer.team)]
                )
                result.teams.append((relation, task, answer))
        clock.start()
        try:
            result.text = table3.run_table3(self.config, context, tasks["ab"]).as_text()
        except Exception as error:  # noqa: BLE001 - a failed query is counted
            result.failed += 1
            result.notes.append(f"table3: {error!r}")
        clock.stop()
        return result

    def check(self, result: Pass, state) -> List[str]:
        dataset = state[0].dataset
        return _check_teams(result.teams, dataset.graph, dataset.skills)


def _failed(result: Pass, answer: list, note: str) -> None:
    """Count a query that raised; its answer is ``answer + [None]``."""
    result.failed += 1
    result.notes.append(note)
    result.answers.append(answer + [None])


def _check_teams(teams, graph, skills) -> List[str]:
    """Validate every solved team (each distinct one once); returns the failures.

    Each relation is rebuilt fresh on the dict backend, with small BFS
    caches, and dropped before the next one is built.
    """
    failures = []
    by_relation: Dict[str, dict] = {}
    for relation, task, answer in teams:
        if answer.solved:
            key = (task.skills, answer.team, answer.cost)
            by_relation.setdefault(relation, {})[key] = (task, answer)
    for relation_name, answers in by_relation.items():
        relation = make_relation(
            relation_name,
            graph,
            policy=ExecutionPolicy(backend="dict", bfs_cache_size=16),
        )
        oracle = DistanceOracle(relation)
        for task, answer in answers.values():
            report = validate_team(answer.team, task, skills, relation, oracle=oracle)
            if not report.is_valid or report.cost != answer.cost:
                failures.append(
                    f"{answer.algorithm}/{relation_name}: invalid team "
                    f"(covers={report.covers_task}, compatible={report.is_compatible}, "
                    f"cost {answer.cost} vs {report.cost})"
                )
    return failures


# ---------------------------------------------------------------------- churn


class ChurnWorkload:
    """Edge churn beside team queries on a CSR-only facade.

    The graph is the ``million`` stand-in at 2k nodes, written as an edge list
    before timing and loaded with ``load_snap_dataset(csr_only=True)``.  Each
    round applies an edge-churn batch, refreshes the problem, then answers
    its tasks under SPO.  One query is one task answered by each of
    LCMD/LCMC/RFMD/RFMC: the RF* answers reuse what the LC* answers cached,
    so timing them apart would split the latencies into two modes with the
    median falling in the gap between them.
    """

    name = "churn"
    relation = "SPO"
    algorithm_names = ("LCMD", "LCMC", "RFMD", "RFMC")
    rounds = 50
    tasks_per_round = 4
    task_size = 3
    churn_per_round = 40
    max_seeds = 10

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.edges_path: Optional[Path] = None

    def prepare(self, out_dir: Path) -> None:
        source = datasets.load_dataset("million", seed=GRAPH_SEEDS["million"], scale=0.002)
        self.edges_path = out_dir / "churn-edges.txt"
        write_edge_list(source.graph, self.edges_path)

    def setup(self):
        dataset = self._load()
        from repro.compatibility import (
            CompatibilityEngine,
            SkillCompatibilityIndex,
        )

        relation = make_relation(
            self.relation, dataset.graph, policy=ExecutionPolicy(backend="auto")
        )
        oracle = DistanceOracle(relation)
        engine = CompatibilityEngine(relation, oracle=oracle)
        skill_index = SkillCompatibilityIndex(relation, dataset.skills, count_cap=None)
        return dataset, relation, engine, skill_index

    def run(self, state, clock: Clock) -> Pass:
        dataset, relation, engine, skill_index = state
        graph = dataset.graph
        rng = self._churn_rng()
        result = Pass()
        for round_index in range(self.rounds):
            tasks = random_tasks(
                dataset.skills,
                size=self.task_size,
                count=self.tasks_per_round,
                seed=2020 + self.seed + 7919 * (round_index + 1),
            )
            problems = [
                TeamFormationProblem(
                    graph, dataset.skills, relation, task,
                    engine=engine, skill_index=skill_index,
                )
                for task in tasks
            ]
            clock.start()
            streaming.apply_edge_churn(graph, self.churn_per_round, rng)
            problems[0].refresh()
            result.update_s.append(clock.stop())
            for task_index, problem in enumerate(problems):
                # One query asks for this task's team from each algorithm.
                clock.start()
                for algorithm in self.algorithm_names:
                    try:
                        answer = algorithms.run_algorithm(
                            algorithm,
                            problem,
                            max_seeds=self.max_seeds,
                            seed=2020 + self.seed + round_index,
                        )
                    except Exception as error:  # noqa: BLE001 - a failed answer is counted
                        _failed(result, [round_index, algorithm, task_index],
                                f"round {round_index}/{algorithm}: {error!r}")
                        continue
                    result.answers.append(
                        [round_index, algorithm, task_index, answer.solved,
                         repr(answer.cost), _team_key(answer.team)]
                    )
                    result.teams.append((self.relation, problem.task, answer))
                result.query_s.append(clock.stop())
            result.round_ends.append(len(result.teams))
        if graph.materialised:
            result.failed += 1
            result.notes.append("the CSR-only facade materialised its dict adjacency")
        return result

    def _churn_rng(self):
        return ensure_rng(2020 + self.seed)

    def _load(self):
        return loaders.load_snap_dataset("million", self.edges_path, csr_only=True)

    def check(self, result: Pass, state) -> List[str]:
        """Replays the churn on a fresh facade and checks each round's teams.

        The graph changes every round, so each round's teams are validated
        against a dict copy of that round's graph, rebuilt by replaying the
        same churn stream; the replay must end on the pass's final graph.
        """
        replay = self._load().graph
        rng = self._churn_rng()
        failures, start = [], 0
        for end in result.round_ends:
            streaming.apply_edge_churn(replay, self.churn_per_round, rng)
            snapshot = replay.csr_view().to_signed_graph()
            failures += _check_teams(result.teams[start:end], snapshot, state[0].skills)
            start = end
        if snapshot != state[0].graph.csr_view().to_signed_graph():
            failures.append("the replayed churn does not end on the pass's graph")
        return failures


WORKLOADS = {
    workload.name: workload
    for workload in (Table2Workload, TeamsWorkload, ChurnWorkload)
}
