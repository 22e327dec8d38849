"""Distances between users, per compatibility relation (Section 4 of the paper).

The communication cost of a team is defined on pairwise distances, and the
paper defines the distance *per relation*:

* **DPE, SPA, SPM, SPO** — the length of the shortest path between the users
  (for compatible pairs a positive shortest path of that length exists);
* **SBP, SBPH** — the length of the shortest positive structurally balanced
  path (exact or heuristic, matching the relation);
* **NNE** — the length of the shortest path ignoring signs (there may be no
  positive path at all).

:class:`DistanceOracle` hides these differences behind a single ``distance``
call and caches one single-source computation per queried source node.  The
"avg distance" row of Table 2 is the mean oracle distance over compatible
pairs.

With ``ExecutionPolicy(distance_index="auto"|"labels")`` the oracle consults
a precomputed distance-label index (:mod:`repro.signed.labels`) before
running any BFS: exact 2-hop hub labels answer in microseconds independent of
graph size, landmark sketches answer when their bounds are provably tight,
and everything else falls back to the exact BFS paths below — so answers are
bit-identical to the BFS backend in every mode.  Batched entry points build
and delta-refresh the index lazily per graph generation; per-pair queries
only consult an index that is already fresh (a stale generation is a
fallback, never a wrong answer).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.compatibility.balanced import _BalancedPathRelation
from repro.compatibility.base import CacheSize, CompatibilityRelation, resolve_cache_size
from repro.compatibility.shortest_path import CSR_AUTO_THRESHOLD, _ShortestPathRelation
from repro.exec.policy import (
    POLICY_DEFAULT,
    ExecutionPolicy,
    executor_for,
    resolve_policy,
)
from repro.signed.graph import Node, SignedGraph
from repro.signed.paths import INFINITY, shortest_path_lengths
from repro.utils.generational import GenerationalLRUCache
from repro.utils.lru import APPROX_BYTES_PER_NODE, fetch_batched
from repro.utils.optional import numpy_available, warn_numpy_missing
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import require_positive

#: Default bound on the number of cached single-source distance maps (the
#: ceiling the byte-aware ``"auto"`` sizing starts from).
DEFAULT_DISTANCE_CACHE_SIZE = 2048


class DistanceOracle:
    """Pairwise user distances consistent with a compatibility relation.

    Single-source distance maps are cached in a bounded LRU (``cache_size``
    entries, a legacy override for the policy's ``distance_cache_size``; the
    default ``"auto"`` scales the bound by graph size, ``None`` disables
    eviction).  The oracle inherits the relation's
    :class:`~repro.exec.ExecutionPolicy` unless given one explicitly, so its
    sign-agnostic BFS follows the relation's backend choice (an SP* relation
    built with ``backend="dict"`` keeps the oracle on the dict BFS too) and
    its batched sweeps run on the same executor — under a pool policy the
    team's distance maps are computed by worker processes.  Otherwise it
    switches to the indexed CSR backend at
    :data:`~repro.compatibility.shortest_path.CSR_AUTO_THRESHOLD` nodes when
    numpy is available.  :meth:`warm` and :meth:`batch_distance_to_set` are
    the batched entry points the :class:`~repro.compatibility.engine.CompatibilityEngine`
    uses to resolve many candidates against a team in one batched sweep.
    """

    def __init__(
        self,
        relation: CompatibilityRelation,
        cache_size: CacheSize = POLICY_DEFAULT,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        self._relation = relation
        self._graph = relation.graph
        self._policy = resolve_policy(
            policy if policy is not None else relation.policy,
            distance_cache_size=cache_size,
        )
        num_nodes = self._graph.number_of_nodes()
        # Generation-keyed like the relations' caches: distance maps are
        # per-source BFS results, so mutations invalidate by component.
        self._bfs_cache: GenerationalLRUCache[Node, object] = GenerationalLRUCache(
            self._graph,
            maxsize=resolve_cache_size(
                self._policy.distance_cache_size, DEFAULT_DISTANCE_CACHE_SIZE, num_nodes
            ),
            bytes_per_entry=num_nodes * APPROX_BYTES_PER_NODE,
        )
        #: The distance-label index (None until built) and its usage counters.
        self._label_index = None
        self._index_served = 0
        self._index_fallbacks = 0
        self._index_builds = 0
        self._index_patches = 0

    @property
    def relation(self) -> CompatibilityRelation:
        """The compatibility relation whose distance definition is used."""
        return self._relation

    @property
    def policy(self) -> ExecutionPolicy:
        """The execution policy the oracle's sweeps run under."""
        return self._policy

    def distance(self, u: Node, v: Node) -> float:
        """Distance from ``u`` to ``v`` under the relation's definition.

        Returns ``inf`` when the relevant kind of path does not exist (e.g. no
        positive balanced path under SBP, or disconnected nodes under NNE).
        """
        if u == v:
            return 0.0
        if isinstance(self._relation, _BalancedPathRelation):
            return self._relation.positive_balanced_distance(u, v)
        index = self._fresh_index()
        if index is not None:
            from repro.signed.csr import UNREACHABLE

            csr = self._graph.csr_view()
            iu = csr._index.get(u)
            iv = csr._index.get(v)
            if iu is not None and iv is not None:
                if index.mode == "exact":
                    self._index_served += 1
                    value = index.query(iu, iv)
                    return INFINITY if value == UNREACHABLE else float(value)
                upper, exact = index.bounds(iu, iv)
                if exact:
                    self._index_served += 1
                    return INFINITY if upper == UNREACHABLE else float(upper)
            self._index_fallbacks += 1
        lengths = self._shortest_paths_from(u)
        return float(lengths.get(v, INFINITY))

    def max_pairwise_distance(self, nodes: Iterable[Node]) -> float:
        """Largest pairwise distance among ``nodes`` (the team's communication cost)."""
        node_list = list(nodes)
        best = 0.0
        for index, u in enumerate(node_list):
            for v in node_list[index + 1 :]:
                best = max(best, self.distance(u, v))
                if best == INFINITY:
                    return INFINITY
        return best

    def sum_pairwise_distance(self, nodes: Iterable[Node]) -> float:
        """Sum of pairwise distances among ``nodes`` (alternative cost function)."""
        node_list = list(nodes)
        total = 0.0
        for index, u in enumerate(node_list):
            for v in node_list[index + 1 :]:
                distance = self.distance(u, v)
                if distance == INFINITY:
                    return INFINITY
                total += distance
        return total

    def distance_to_set(self, node: Node, team: Iterable[Node]) -> float:
        """Largest distance from ``node`` to any member of ``team`` (0 for an empty team).

        Distances are queried *from the team members* so that their cached
        single-source computations are reused across the many candidate nodes
        the team-formation policies evaluate.
        """
        best = 0.0
        for member in team:
            best = max(best, self.distance(member, node))
            if best == INFINITY:
                return INFINITY
        return best

    def warm(self, sources: Iterable[Node]) -> List[object]:
        """Prefetch the single-source distance maps of ``sources``, batched.

        On the CSR backend every uncached source joins one batched
        multi-source BFS
        (:func:`repro.signed.csr.multi_source_shortest_path_lengths_csr`)
        instead of running its own traversal.  Under a pool policy the
        workers write the dense distance maps straight into the dispatch's
        shared-memory result arena; the parent copies each row out of the
        mapped segment (cache entries must own their bytes) — no per-source
        array ever crosses the pipe pickled.  Returns the maps in input
        order; they are also written through to the cache.  All requested
        maps are computed and held for the duration of the call (callers pass
        team-sized lists); prefetch-only sweeps larger than the cache bound
        should warm in cache-sized chunks — see
        :func:`average_compatible_distance` — or the excess entries evict
        each other before they are read.  For balanced-path relations the
        oracle distance is not a plain BFS distance, so this is a no-op
        returning an empty list.
        """
        if isinstance(self._relation, _BalancedPathRelation):
            return []
        source_list = list(sources)

        def compute_missing(missing: List[Node]) -> List[object]:
            executor = executor_for(self._policy)
            if self._use_csr():
                from repro.signed.csr import CSRLengths

                csr = self._graph.csr_view()
                arrays = executor.map_kernel(
                    "csr_path_lengths", csr, [csr.index_of(source) for source in missing]
                )
                return [CSRLengths(csr, lengths) for lengths in arrays]
            if self._policy.parallel:
                return executor.map_kernel("dict_path_lengths", self._graph, missing)
            return [shortest_path_lengths(self._graph, source) for source in missing]

        return fetch_batched(self._bfs_cache, source_list, compute_missing)

    def batch_distance_to_set(
        self, candidates: Sequence[Node], team: Iterable[Node]
    ) -> List[float]:
        """:meth:`distance_to_set` for many candidates at once.

        The team members' distance maps are prefetched in one batched sweep
        (:meth:`warm`) and, on the CSR backend, the per-candidate maximum over
        members is computed with array indexing instead of a Python loop per
        pair.  Values are identical to calling :meth:`distance_to_set` per
        candidate.  Balanced-path relations — whose distance is the balanced
        path length, not a BFS level — delegate to the relation's own
        :meth:`~repro.compatibility.balanced._BalancedPathRelation.batch_distance_to_set`
        (shared forward searches plus one chunked reverse sweep, pool-parallel
        under a worker policy) instead of the per-candidate loop.
        """
        candidate_list = list(candidates)
        team_list = list(team)
        if not candidate_list:
            return []
        if not team_list:
            return [0.0] * len(candidate_list)
        if isinstance(self._relation, _BalancedPathRelation):
            return self._relation.batch_distance_to_set(candidate_list, team_list)
        indexed = self._indexed_batch_distance_to_set(candidate_list, team_list)
        if indexed is not None:
            return indexed
        if not self._use_csr():
            if self._policy.parallel:
                # Prefetch the members' distance maps through the pool; the
                # per-candidate loop below then reads cached maps.
                self.warm(team_list)
            return [self.distance_to_set(c, team_list) for c in candidate_list]
        import numpy as np

        from repro.signed.csr import CSRLengths, UNREACHABLE

        maps = self.warm(team_list)
        if not all(isinstance(view, CSRLengths) for view in maps):
            # Mixed cache contents (e.g. maps computed before a backend
            # switch): the per-candidate loop handles every map type.
            return [self.distance_to_set(c, team_list) for c in candidate_list]
        csr = maps[0]._graph
        if not all(view._graph.shares_index_with(csr) for view in maps):
            # Maps from incompatible CSR snapshots (the node set changed):
            # dense ids are not comparable, let the per-candidate loop resolve
            # each map through its own view.  Snapshots produced by delta
            # maintenance of an unchanged node set share their index, so maps
            # that survived targeted invalidation stay on the batched path.
            return [self.distance_to_set(c, team_list) for c in candidate_list]
        dense = [csr._index.get(c) for c in candidate_list]
        if any(position is None for position in dense):
            # A candidate missing from the snapshot (graph mutated since the
            # maps were built): legacy lookups treat it as unreachable — keep
            # that behaviour via the per-candidate loop.
            return [self.distance_to_set(c, team_list) for c in candidate_list]
        ids = np.asarray(dense, dtype=np.int64)
        best = np.zeros(len(candidate_list), dtype=np.float64)
        for view in maps:
            values = view._lengths[ids].astype(np.float64)
            values[values == UNREACHABLE] = INFINITY
            np.maximum(best, values, out=best)
        return [float(value) for value in best]

    def sync(self) -> None:
        """Eagerly re-key the distance-map cache to the current generation.

        Optional — the cache syncs lazily on its next access; see
        :meth:`CompatibilityRelation.sync_caches`.  Also delta-refreshes the
        distance-label index, if one was built, so the engine's ``refresh()``
        leaves the oracle fully warm for the new generation.
        """
        self._bfs_cache.sync()
        self.refresh_index()

    def clear_cache(self) -> None:
        """Drop all cached distance maps and the distance-label index.

        Not required after graph mutations (the cache is generation-keyed);
        kept as the full reset for memory pressure or tests.
        """
        self._bfs_cache.clear()
        self._label_index = None

    # ------------------------------------------------------- label index

    def _labels_enabled(self) -> bool:
        """True iff the policy lets this oracle consult the label index."""
        mode = self._policy.distance_index
        if mode == "bfs" or isinstance(self._relation, _BalancedPathRelation):
            return False
        if not numpy_available():
            if mode == "labels":
                warn_numpy_missing("distance_index='labels'")
            return False
        if mode == "labels":
            return True
        return self._use_csr()

    def _fresh_index(self, build: bool = False):
        """The label index valid for the current generation, or ``None``.

        ``build=False`` (per-pair queries) never constructs anything — a
        missing or stale index is simply a BFS fallback.  ``build=True``
        (batched entry points) builds the index lazily and delta-refreshes a
        stale one, like ``csr_view`` does for the CSR snapshot.
        """
        if not self._labels_enabled():
            return None
        index = self._label_index
        if (
            index is not None
            and index.generation == self._graph.generation
            and index.num_nodes == self._graph.number_of_nodes()
        ):
            return index
        if not build:
            if index is not None:
                self._index_fallbacks += 1
            return None
        return self._build_or_refresh()

    def _build_or_refresh(self):
        from repro.signed.labels import (
            build_label_index,
            refresh_label_index,
            register_snapshot_labels,
        )

        executor = executor_for(self._policy)
        if self._label_index is None:
            self._label_index = build_label_index(
                self._graph.csr_view(),
                budget_bytes=self._policy.label_budget_bytes,
                executor=executor,
            )
            self._index_builds += 1
        else:
            self._label_index, how = refresh_label_index(
                self._label_index,
                self._graph,
                budget_bytes=self._policy.label_budget_bytes,
                executor=executor,
            )
            if how == "patched":
                self._index_patches += 1
            elif how == "rebuilt":
                self._index_builds += 1
        # Record the index against the snapshot it serves, so snapshot_store
        # publishes and cache writes persist the label section for free.
        register_snapshot_labels(self._graph.csr_view(), self._label_index)
        return self._label_index

    def build_index(self):
        """Build (or delta-refresh) the distance-label index now.

        The batched query paths do this lazily; call it explicitly to pay the
        build cost up front (e.g. before a latency-sensitive serving phase).
        Returns the fresh :class:`~repro.signed.labels.LabelIndex`.  Raises
        for balanced-path relations, whose distances the index cannot serve.
        """
        if isinstance(self._relation, _BalancedPathRelation):
            raise ValueError(
                "the distance-label index serves BFS distances; "
                f"{type(self._relation).__name__} distances are balanced-path "
                "lengths and keep their own search machinery"
            )
        return self._build_or_refresh()

    def attach_index(self, index) -> None:
        """Adopt a prebuilt index (e.g. loaded from a ``.store`` snapshot).

        The index must cover the same dense-id space as the current graph;
        it is re-stamped to the graph's current generation — the caller
        asserts that the graph content matches what the index was built from
        (the cold-start contract: load the snapshot and its labels from the
        same store file).
        """
        if index.num_nodes != self._graph.number_of_nodes():
            raise ValueError(
                f"label index covers {index.num_nodes} nodes; the graph has "
                f"{self._graph.number_of_nodes()}"
            )
        self._label_index = index.stamped(self._graph.generation)
        from repro.signed.labels import register_snapshot_labels

        register_snapshot_labels(self._graph.csr_view(), self._label_index)

    def refresh_index(self) -> None:
        """Delta-refresh the label index to the current generation, if built."""
        if self._label_index is not None and self._labels_enabled():
            self._build_or_refresh()

    def index_stats(self) -> Optional[dict]:
        """Label-index observability: structure stats plus serve/fallback counts.

        ``None`` when no index has been built.
        """
        if self._label_index is None:
            return None
        stats = self._label_index.stats()
        stats.update(
            served=self._index_served,
            fallbacks=self._index_fallbacks,
            builds=self._index_builds,
            patches=self._index_patches,
        )
        return stats

    def _indexed_batch_distance_to_set(
        self, candidates: List[Node], team: List[Node]
    ) -> Optional[List[float]]:
        """The label-index fast path of :meth:`batch_distance_to_set`.

        Returns ``None`` to hand the query back to the BFS paths (index
        disabled, a node missing from the snapshot, or mixed cache state).
        Landmark members whose bounds are not provably tight for every
        candidate fall back to a warmed BFS map per member — values stay
        bit-identical to the pure BFS path either way.
        """
        index = self._fresh_index(build=True)
        if index is None:
            return None
        import numpy as np

        from repro.signed.csr import CSRLengths, UNREACHABLE

        csr = self._graph.csr_view()
        dense_candidates = [csr._index.get(c) for c in candidates]
        dense_team = [csr._index.get(m) for m in team]
        if any(d is None for d in dense_candidates) or any(
            d is None for d in dense_team
        ):
            return None
        ids = np.asarray(dense_candidates, dtype=np.int64)
        best = np.zeros(len(candidates), dtype=np.float64)
        pending: List[Node] = []
        for member, member_id in zip(team, dense_team):
            if index.mode == "exact":
                values = index.batch_query_from(member_id, ids).astype(np.float64)
                values[values == UNREACHABLE] = INFINITY
                np.maximum(best, values, out=best)
                self._index_served += 1
                continue
            upper, exact = index.batch_bounds_from(member_id, ids)
            if bool(exact.all()):
                values = upper.astype(np.float64)
                values[values == UNREACHABLE] = INFINITY
                np.maximum(best, values, out=best)
                self._index_served += 1
            else:
                pending.append(member)
                self._index_fallbacks += 1
        if pending:
            maps = self.warm(pending)
            if not all(
                isinstance(view, CSRLengths) and view._graph.shares_index_with(csr)
                for view in maps
            ):
                # Mixed or re-indexed cache contents; the legacy paths sort
                # every map type out per candidate.
                return None
            for view in maps:
                values = view._lengths[ids].astype(np.float64)
                values[values == UNREACHABLE] = INFINITY
                np.maximum(best, values, out=best)
        return [float(value) for value in best]

    def _use_csr(self) -> bool:
        if isinstance(self._relation, _ShortestPathRelation):
            return self._relation._use_csr()
        return numpy_available() and (
            self._graph.prefers_csr
            or self._graph.number_of_nodes() >= CSR_AUTO_THRESHOLD
        )

    def _shortest_paths_from(self, source: Node):
        lengths = self._bfs_cache.get(source)
        if lengths is None:
            if self._use_csr():
                from repro.signed.csr import CSRLengths, shortest_path_lengths_csr

                csr = self._graph.csr_view()
                lengths = CSRLengths(csr, shortest_path_lengths_csr(csr, source))
            else:
                lengths = shortest_path_lengths(self._graph, source)
            self._bfs_cache[source] = lengths
        return lengths


def average_compatible_distance(
    relation: CompatibilityRelation,
    oracle: Optional[DistanceOracle] = None,
    max_exact_nodes: int = 500,
    num_sampled_sources: int = 200,
    seed: RandomState = None,
) -> Tuple[float, int]:
    """Average distance over compatible pairs (the "avg distance" row of Table 2).

    Returns ``(average, pairs_counted)``; the average is ``0.0`` when no
    compatible pair with a finite distance was evaluated.  Small graphs are
    enumerated exhaustively; larger graphs are estimated by averaging over all
    compatible pairs anchored at ``num_sampled_sources`` random source nodes
    (the same sampling scheme as
    :func:`repro.compatibility.matrix.source_sampled_pair_statistics`).
    """
    oracle = oracle or DistanceOracle(relation)
    nodes = relation.graph.nodes()
    if len(nodes) < 2:
        return 0.0, 0

    total = 0.0
    count = 0
    if len(nodes) <= max_exact_nodes:
        for index, u in enumerate(nodes):
            compatible = relation.compatible_with(u)
            for v in nodes[index + 1 :]:
                if v not in compatible:
                    continue
                distance = oracle.distance(u, v)
                if distance != INFINITY:
                    total += distance
                    count += 1
    else:
        require_positive(num_sampled_sources, "num_sampled_sources")
        rng = ensure_rng(seed)
        sources = rng.sample(nodes, min(num_sampled_sources, len(nodes)))
        # Balanced relations resolve a whole sample in one shared reverse
        # sweep; pre-warming makes the per-source compatible_with calls below
        # cache hits instead of repeating the sweep under LRU pressure.
        relation.batch_compatible_sets(sources)
        # On the CSR backend the oracle's distance maps are warmed in
        # cache-bound-sized chunks, consumed chunk by chunk: warming the
        # whole sample at once would evict every map beyond the LRU bound
        # before the loop reads it.  On the dict backend (or for balanced
        # relations, whose distance is served by the search results) warming
        # has no batching benefit, so maps stay lazy — sources with an empty
        # compatible set never compute one, as before.
        warm = oracle._use_csr() and not isinstance(relation, _BalancedPathRelation)
        bound = oracle._bfs_cache.maxsize
        chunk = len(sources) if bound is None else max(1, min(len(sources), bound))
        for start in range(0, len(sources), chunk):
            chunk_sources = sources[start : start + chunk]
            if warm:
                oracle.warm(chunk_sources)
            for u in chunk_sources:
                compatible = relation.compatible_with(u)
                for v in compatible:
                    if v == u:
                        continue
                    distance = oracle.distance(u, v)
                    if distance != INFINITY:
                        total += distance
                        count += 1
    if count == 0:
        return 0.0, 0
    return total / count, count
