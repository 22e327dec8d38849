"""In-memory span recorder that times calls into the program's layers.

The benchmark never edits the program.  Instead, :class:`Tracer` replaces each
public function or method listed in :data:`TARGETS` with a thin wrapper, at the
place where its callers look the name up: the class for methods, and every
module that imported the function by name.  Functions imported inside a
function body (``from repro.signed.csr import x`` at call time) are looked up
on their defining module, so patching that module covers them.

Each wrapped call records one span: metric key, start, end, parent span and
query id.  A call made while a span of the same key is open (recursion, or a
BFS wrapper calling the BFS kernel) joins the open span instead of starting a
new one, so call counts and times are not counted twice.  Spans opened inside
an *opaque* span (dataset generation) are not recorded at all: the synthetic
generators build graphs with ``add_edge``, which is not churn.

Spans stay in arrays until :meth:`Tracer.save` writes them out once, at the
end of the run.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Callable, Dict, List, Tuple

# (metric key, kind, [(module, attribute path)]).  Kind "span" times the call;
# "count" only counts it (for calls too hot and too short to time usefully).
# An attribute path "Class.method" patches the method on the class.
TARGETS: Tuple[Tuple[str, str, Tuple[Tuple[str, str], ...]], ...] = (
    ("datasets.load", "span", (
        ("repro.datasets", "load_dataset"),
        ("repro.datasets.loaders", "load_snap_dataset"),
    )),
    ("signed.search_exact", "span", (
        ("repro.signed.paths", "BalancedPathSearch.search_exact"),
    )),
    ("signed.search_heuristic", "span", (
        ("repro.signed.paths", "BalancedPathSearch.search_heuristic"),
        ("repro.signed.paths", "BalancedPathSearch.search_heuristic_indexed"),
        ("repro.signed.csr", "balanced_heuristic_depths"),
        ("repro.signed.csr", "balanced_heuristic_search_csr"),
    )),
    ("signed.bfs", "span", (
        ("repro.signed.paths", "signed_bfs"),
        ("repro.signed.paths", "shortest_path_lengths"),
        ("repro.signed.paths", "shortest_signed_walk_lengths"),
        ("repro.compatibility.shortest_path", "signed_bfs"),
        ("repro.compatibility.distance", "shortest_path_lengths"),
        ("repro.compatibility.balanced", "shortest_signed_walk_lengths"),
        ("repro.signed.csr", "signed_bfs_csr"),
        ("repro.signed.csr", "shortest_path_lengths_csr"),
        ("repro.signed.csr", "shortest_signed_walk_lengths_csr"),
        ("repro.signed.csr", "signed_bfs_dense_batch"),
        ("repro.signed.csr", "signed_bfs_dense_batch_into"),
        ("repro.signed.csr", "multi_source_signed_bfs"),
        ("repro.signed.csr", "shortest_path_lengths_dense_batch"),
        ("repro.signed.csr", "shortest_path_lengths_dense_batch_into"),
        ("repro.signed.csr", "multi_source_shortest_path_lengths_csr"),
    )),
    ("signed.churn_apply", "span", (
        ("repro.signed.graph", "SignedGraph.add_edge"),
        ("repro.signed.graph", "SignedGraph.remove_edge"),
        ("repro.signed.graph", "SignedGraph.set_sign"),
        ("repro.signed.lazy", "CSRBackedSignedGraph.add_edge"),
        ("repro.signed.lazy", "CSRBackedSignedGraph.remove_edge"),
        ("repro.signed.lazy", "CSRBackedSignedGraph.set_sign"),
    )),
    ("exec.map_kernel", "span", (
        ("repro.exec.serial", "SerialExecutor.map_kernel"),
    )),
    ("compatibility.exact_pair_stats", "span", (
        ("repro.experiments.table2", "exact_pair_statistics"),
    )),
    ("compatibility.sampled_pair_stats", "span", (
        ("repro.experiments.table2", "source_sampled_pair_statistics"),
    )),
    ("compatibility.avg_distance", "span", (
        ("repro.experiments.table2", "average_compatible_distance"),
    )),
    ("compatibility.skill_pair_stats", "span", (
        ("repro.experiments.table2", "skill_pair_statistics"),
    )),
    ("compatibility.overlap", "span", (
        ("repro.experiments.table2", "relation_overlap"),
    )),
    ("compatibility.compatible_with", "span", (
        ("repro.compatibility.base", "CompatibilityRelation.compatible_with"),
    )),
    ("distance.distance", "span", (
        ("repro.compatibility.distance", "DistanceOracle.distance"),
    )),
    ("distance.batch_to_set", "span", (
        ("repro.compatibility.distance", "DistanceOracle.batch_distance_to_set"),
    )),
    ("skill_compat.skill_degree", "span", (
        ("repro.compatibility.skill_compat", "SkillCompatibilityIndex.skill_degree"),
    )),
    ("skill_compat.pair_degree", "count", (
        ("repro.compatibility.skill_compat", "SkillCompatibilityIndex.pair_degree"),
    )),
    ("engine.compatible_from_many", "span", (
        ("repro.compatibility.engine", "CompatibilityEngine.compatible_from_many"),
    )),
    ("engine.distances_to_team_many", "span", (
        ("repro.compatibility.engine", "CompatibilityEngine.distances_to_team_many"),
    )),
    ("engine.refresh", "span", (
        ("repro.compatibility.engine", "CompatibilityEngine.refresh"),
    )),
    ("teams.form_team", "span", (
        ("repro.teams.algorithms", "run_algorithm"),
    )),
    ("teams.baseline", "span", (
        ("repro.experiments.table3", "run_unsigned_baseline"),
    )),
)

#: Keys whose nested calls are not recorded (see the module docstring).
OPAQUE = frozenset({"datasets.load"})


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.keys: List[str] = [key for key, _kind, _targets in TARGETS]
        self._key_id: Dict[str, int] = {key: i for i, key in enumerate(self.keys)}
        self.key_ids = array("i")
        self.parents = array("i")
        self.query_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Dict[str, int] = {}
        #: Distinct (relation, node) arguments of compatible_with.
        self.compatible_with_args: set = set()
        #: Sources handed to map_kernel, summed over calls.
        self.kernel_sources = 0
        self.query_id = -1
        self._stack: List[int] = []
        # Recording is off while this is non-zero: inside an opaque span, or
        # while paused between the timed segments of a pass.
        self._suppress = 1
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _open(self, key_id: int) -> int:
        index = len(self.starts)
        self.key_ids.append(key_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.query_ids.append(self.query_id)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def _wrap_span(self, key: str, function: Callable) -> Callable:
        key_id = self._key_id[key]
        opaque = key in OPAQUE
        hook = _HOOKS.get(key)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if tracer._suppress or (stack and tracer.key_ids[stack[-1]] == key_id):
                return function(*args, **kwargs)
            if hook is not None:
                hook(tracer, args)
            index = tracer._open(key_id)
            if opaque:
                tracer._suppress += 1
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if opaque:
                    tracer._suppress -= 1
                stack.pop()
                tracer.starts[index] = start
                tracer.ends[index] = end

        return traced

    def _wrap_count(self, key: str, function: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(key, 0)
        tracer = self

        def counted(*args, **kwargs):
            if not tracer._suppress:
                counts[key] += 1
            return function(*args, **kwargs)

        return counted

    def resume(self, query_id: int) -> None:
        """Start recording; spans opened from now on carry ``query_id``."""
        self.query_id = query_id
        self._suppress -= 1

    def pause(self) -> None:
        """Stop recording (a tracer starts paused)."""
        self._suppress += 1

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        """Replace every target with its wrapper (idempotent per instance)."""
        if self._patches:
            return
        for key, kind, targets in TARGETS:
            wrap = self._wrap_span if kind == "span" else self._wrap_count
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *owner_path, attribute = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attribute]
                self._patches.append((owner, attribute, original))
                setattr(owner, attribute, wrap(key, original))

    def uninstall(self) -> None:
        """Restore every patched name."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------ reporting

    def arrays(self):
        """The recorded spans as numpy arrays plus per-span self time."""
        import numpy as np

        key_ids = np.frombuffer(self.key_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        durations = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(
            self.starts, dtype=np.float64
        )
        child_time = np.zeros_like(durations)
        nested = parents >= 0
        np.add.at(child_time, parents[nested], durations[nested])
        return key_ids, parents, durations, durations - child_time

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per key: calls, total seconds and self seconds."""
        import numpy as np

        key_ids, _parents, durations, self_times = self.arrays()
        totals = {}
        for key_id, key in enumerate(self.keys):
            mask = key_ids == key_id
            totals[key] = {
                "calls": int(mask.sum()),
                "s": float(durations[mask].sum()),
                "self_s": float(self_times[mask].sum()),
            }
        for key, count in self.counts.items():
            totals[key] = {"calls": count, "s": 0.0, "self_s": 0.0}
        return totals

    def save(self, path) -> None:
        """Write every span (compressed numpy arrays) and the key names."""
        import numpy as np

        np.savez_compressed(
            path,
            keys=np.array(self.keys),
            key_ids=np.frombuffer(self.key_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            query_ids=np.frombuffer(self.query_ids, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )


def _compatible_with_hook(tracer: Tracer, args) -> None:
    tracer.compatible_with_args.add((id(args[0]), args[1]))


def _map_kernel_hook(tracer: Tracer, args) -> None:
    tracer.kernel_sources += len(args[3])


#: Per-key argument hooks, run before a span opens.
_HOOKS: Dict[str, Callable[[Tracer, tuple], None]] = {
    "compatibility.compatible_with": _compatible_with_hook,
    "exec.map_kernel": _map_kernel_hook,
}
