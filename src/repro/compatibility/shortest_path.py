"""Shortest-path compatibility relations: SPA, SPM, SPO (Definition 3.3).

All three are computed from the output of **Algorithm 1**
(:func:`repro.signed.paths.signed_bfs`), which counts the positive and
negative shortest paths from a query node to every other node in one BFS:

* **SPA** — *all* shortest paths between the pair are positive;
* **SPM** — at least as many positive as negative shortest paths (majority);
* **SPO** — at least *one* shortest path between the pair is positive.

Two interchangeable backends run Algorithm 1:

* ``"dict"`` — the pure-Python BFS over the adjacency dictionary; lowest
  latency on small graphs, the reference implementation, and the only backend
  available on numpy-free installs;
* ``"csr"`` — the indexed array BFS over the graph's
  :meth:`~repro.signed.graph.SignedGraph.csr_view`
  (:func:`repro.signed.csr.signed_bfs_csr`); an order of magnitude faster per
  source on SNAP-scale graphs, with a word-parallel multi-source kernel
  (:func:`repro.signed.csr.multi_source_signed_bfs`) behind :meth:`batch_bfs`.

``backend="auto"`` (the default) is **size- and diameter-adaptive**: the CSR
backend is considered once the graph has at least :data:`CSR_AUTO_THRESHOLD`
nodes, but because the level-synchronous CSR BFS pays ~20 array operations per
level, high-diameter graphs (paths, grids, meshes) run faster on the dict
backend.  The first BFS in auto mode therefore runs on the dict backend and
counts its levels: if the probe's eccentricity exceeds
:data:`CSR_AUTO_LEVEL_THRESHOLD`, the relation commits to the dict backend;
otherwise it commits to CSR.  The probe result is cached like any other BFS,
so the work is never wasted.  On numpy-free installs ``"auto"`` falls back to
the dict backend with a one-time warning, while an explicit ``backend="csr"``
raises :class:`ImportError` at construction time.  All backends produce
identical relations — the equivalence tests compare them bit for bit.

The per-source BFS result is cached in a bounded LRU
(:class:`repro.utils.lru.LRUCache`); the default ``bfs_cache_size="auto"``
scales the entry bound down on huge graphs so the cache stays within a fixed
byte budget (entries are O(n) — see :func:`repro.utils.lru.scaled_cache_size`).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Set, Union

from repro.compatibility.base import (
    CacheSize,
    CompatibilityRelation,
    resolve_cache_size,
)
from repro.exec.policy import POLICY_DEFAULT, ExecutionPolicy, resolve_policy
from repro.signed.graph import Node, SignedGraph
from repro.signed.paths import SignedBFSResult, signed_bfs
from repro.utils.generational import GenerationalLRUCache
from repro.utils.lru import APPROX_BYTES_PER_NODE, fetch_batched
from repro.utils.optional import numpy_available, require_numpy, warn_numpy_missing

#: ``backend="auto"`` considers the CSR BFS from this graph size upward.
CSR_AUTO_THRESHOLD = 1024

#: ``backend="auto"`` commits to the dict backend when the probe BFS observes
#: more levels than this.  The level-synchronous CSR BFS pays a fixed ~20
#: array operations per level, so beyond a few dozen levels (paths, grids,
#: meshes — the probe's eccentricity is at least half the diameter) the
#: per-edge dict BFS wins despite its interpreter overhead.
CSR_AUTO_LEVEL_THRESHOLD = 32

#: Default bound on the number of cached per-source BFS results (the ceiling
#: the ``"auto"`` byte-aware sizing starts from).
DEFAULT_BFS_CACHE_SIZE = 2048

# The CSR result type is imported lazily (numpy-free installs never load it).
_BFSResult = Union[SignedBFSResult, "CSRSignedBFSResult"]  # noqa: F821


class _ShortestPathRelation(CompatibilityRelation):
    """Shared machinery: one cached signed BFS per source node.

    Parameters
    ----------
    graph:
        The signed graph the relation is defined over.
    backend:
        Legacy override for ``policy.backend``: ``"dict"``, ``"csr"`` or
        ``"auto"`` (size- and diameter-adaptive).  Prefer setting it on the
        policy.
    bfs_cache_size:
        Legacy override for ``policy.bfs_cache_size`` — the LRU bound on
        cached per-source BFS results; ``"auto"`` (the policy default)
        scales :data:`DEFAULT_BFS_CACHE_SIZE` down by graph size so the cache
        respects a byte budget, an ``int`` is used as-is, ``None`` disables
        eviction.
    policy:
        The :class:`~repro.exec.ExecutionPolicy` governing backend choice,
        worker-pool execution and cache budgets.  With ``workers >= 2`` the
        batched entry points (:meth:`batch_bfs`, :meth:`batch_compatible_sets`)
        dispatch their per-source traversals to a process pool; results are
        bit-identical to serial execution.
    """

    def __init__(
        self,
        graph: SignedGraph,
        backend: Optional[str] = None,
        bfs_cache_size: CacheSize = POLICY_DEFAULT,
        compatible_cache_size: CacheSize = POLICY_DEFAULT,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        policy = resolve_policy(
            policy,
            backend=backend,
            bfs_cache_size=bfs_cache_size,
            compatible_cache_size=compatible_cache_size,
        )
        super().__init__(graph, policy=policy)
        graph = self._graph  # the base may have adapted a bare CSR snapshot
        if policy.backend == "csr":
            require_numpy("backend='csr'")
        #: Lazily decided by the diameter probe in auto mode (None = undecided).
        self._auto_prefer_dict: Optional[bool] = None
        num_nodes = graph.number_of_nodes()
        # Generation-keyed: mutating the graph drops only the BFS results
        # whose component a mutation touched; the rest stay valid (results
        # against an older CSR snapshot keep working through the snapshot's
        # shared index — see CSRSignedGraph.shares_index_with).
        self._bfs_cache: GenerationalLRUCache[Node, _BFSResult] = GenerationalLRUCache(
            graph,
            maxsize=resolve_cache_size(
                policy.bfs_cache_size, DEFAULT_BFS_CACHE_SIZE, num_nodes
            ),
            bytes_per_entry=num_nodes * APPROX_BYTES_PER_NODE,
        )

    def _level_threshold(self) -> int:
        """The auto-mode probe eccentricity cut-over (policy override or default)."""
        override = self._policy.csr_auto_level_threshold
        return CSR_AUTO_LEVEL_THRESHOLD if override is None else override

    def _use_csr(self) -> bool:
        if self._policy.backend == "csr":
            return True
        if self._policy.backend == "dict":
            return False
        if self._graph.prefers_csr:
            # CSR-first graphs never pay the dict diameter probe — probing
            # would materialise the adjacency dicts the facade exists to avoid.
            if numpy_available():
                return True
            warn_numpy_missing(f"{self.name} backend='auto'")
            return False
        if self._graph.number_of_nodes() < CSR_AUTO_THRESHOLD:
            return False
        if not numpy_available():
            warn_numpy_missing(f"{self.name} backend='auto'")
            return False
        if self._auto_prefer_dict is None:
            self._probe_diameter()
        return not self._auto_prefer_dict

    #: Maximum dict-BFS probes ``_probe_diameter`` runs before deciding.
    _MAX_DIAMETER_PROBES = 4

    def _probe_diameter(self) -> None:
        """Run a few dict BFS probes and commit auto mode by their level counts.

        A probe's eccentricity is at least half its component's diameter,
        which cleanly separates the social-network regime (a handful of
        levels) from the path/grid regime (hundreds).  One probe per
        *component* (in insertion order, capped) guards against the first
        node being isolated or sitting in a tiny component that says nothing
        about the bulk of the graph; probing stops early once any probe
        crosses the threshold or half the graph is covered.  Probe results
        land in the BFS cache, so the work is reused if those nodes are ever
        queried.
        """
        levels = 0
        seen: Set[Node] = set()
        probes = 0
        half = self._graph.number_of_nodes() / 2
        for node in self._graph:
            if node in seen:
                continue
            result = self._bfs_cache.get(node)
            if result is None:
                result = signed_bfs(self._graph, node)
                self._bfs_cache[node] = result
            if isinstance(result, SignedBFSResult):
                reached = result.lengths
                levels = max(levels, max(reached.values(), default=0))
                seen.update(reached)
            else:  # a cached CSR result (backend switched mid-life)
                import numpy as np

                levels = max(levels, max(0, int(result.lengths_array.max())))
                csr = result.graph
                seen.update(
                    csr.node_at(dense)
                    for dense in np.flatnonzero(result.lengths_array >= 0)
                )
            probes += 1
            if (
                levels > self._level_threshold()
                or len(seen) >= half
                or probes >= self._MAX_DIAMETER_PROBES
            ):
                break
        self._auto_prefer_dict = levels > self._level_threshold()

    def _bfs(self, source: Node) -> _BFSResult:
        result = self._bfs_cache.get(source)
        if result is None:
            if self._use_csr():
                from repro.signed.csr import signed_bfs_csr

                try:
                    result = signed_bfs_csr(self._graph.csr_view(), source)
                except OverflowError:
                    # Counts past the int64 guard need the dict backend's
                    # arbitrary-precision integers; fall back per source.
                    result = signed_bfs(self._graph, source)
            else:
                result = signed_bfs(self._graph, source)
            self._bfs_cache[source] = result
        return result

    def batch_bfs(self, sources: Sequence[Node]) -> List[_BFSResult]:
        """One Algorithm-1 result per source, batched through the executor.

        On the CSR backend, uncached sources are resolved by the policy's
        executor running the ``csr_signed_bfs`` kernel — in-process for a
        serial policy (word-parallel traversals of up to 64 sources at a
        time), or fanned out in chunks over the worker pool for
        ``workers >= 2``.  Sources whose counts overflow int64 fall back to
        the dict backend's arbitrary-precision BFS individually, in the
        parent process.  Results
        are held locally for the duration of the call, so a batch larger than
        the LRU bound is still computed exactly once; they are also written
        through to the cache for follow-up per-pair queries.  Every result is
        bit-identical to what :meth:`_bfs` would have produced, whatever the
        executor.
        """
        source_list = list(sources)
        self._require_nodes(*source_list)
        if not self._use_csr():
            if not self._policy.parallel:
                return [self._bfs(source) for source in source_list]

            def compute_missing_dict(missing: List[Node]) -> List[_BFSResult]:
                return self._executor().map_kernel(
                    "dict_signed_bfs", self._graph, missing
                )

            return fetch_batched(self._bfs_cache, source_list, compute_missing_dict)

        def compute_missing(missing: List[Node]) -> List[_BFSResult]:
            from repro.signed.csr import CSRSignedBFSResult

            csr = self._graph.csr_view()
            triples = self._executor().map_kernel(
                "csr_signed_bfs",
                csr,
                [csr.index_of(source) for source in missing],
                params={"skip_overflow": True},
            )
            return [
                # None marks an int64 overflow: that source needs the dict
                # backend's arbitrary-precision counts.
                signed_bfs(self._graph, source)
                if triple is None
                else CSRSignedBFSResult(
                    source=source,
                    graph=csr,
                    lengths_array=triple[0],
                    positive_array=triple[1],
                    negative_array=triple[2],
                )
                for source, triple in zip(missing, triples)
            ]

        return fetch_batched(self._bfs_cache, source_list, compute_missing)

    def _clear_subclass_cache(self) -> None:
        self._bfs_cache.clear()
        self._auto_prefer_dict = None

    def _sync_subclass_caches(self) -> None:
        self._bfs_cache.sync()

    def _compute_compatible_set(self, u: Node) -> Set[Node]:
        result = self._bfs(u)
        if isinstance(result, SignedBFSResult):
            compatible: Set[Node] = set()
            for node in result.lengths:
                if node == u:
                    continue
                positive, negative = result.counts(node)
                if self._pair_rule(positive, negative):
                    compatible.add(node)
            return compatible
        rule_mask = self._pair_rule_mask(result.positive_array, result.negative_array)
        return set(result.compatible_nodes(rule_mask))

    def are_compatible(self, u: Node, v: Node) -> bool:
        # Use the cached BFS directly instead of materialising the whole
        # compatible set when only pair queries are needed.
        self._require_nodes(u, v)
        if u == v:
            return True
        source, target = (u, v) if u in self._bfs_cache or v not in self._bfs_cache else (v, u)
        result = self._bfs(source)
        if not isinstance(result, SignedBFSResult) and target not in result.graph:
            # The cached result survived a mutation elsewhere but predates
            # ``target``'s addition to the graph: a node outside the result's
            # snapshot cannot be in the source's (untouched) component, hence
            # unreachable and incompatible.
            return False
        if not result.reachable(target):
            return False
        positive, negative = result.counts(target)
        return self._pair_rule(positive, negative)

    def batch_compatible_sets(self, sources: Sequence[Node]) -> List[FrozenSet[Node]]:
        """Compatible sets for many sources from one batched sweep.

        On the CSR backend the uncached sources share one multi-source BFS
        (:meth:`batch_bfs`) and the pair rule is applied as a vectorised mask;
        each returned set equals :meth:`compatible_with` exactly and is
        written into the compatible-set cache.  Results are held locally, so
        samples larger than the cache bound still cost one batched pass.

        Under a pool policy the sweep routes through the
        ``csr_compatible_masks`` kernel instead: the pair rule is applied
        *inside* the workers and each source comes back as a packed
        ``ceil(n/8)``-byte bitmap (through the shared-memory result arena
        when enabled) rather than O(n) BFS arrays — the parent materialises
        the frozensets straight from the bitmap rows.  Sources whose counts
        trip the int64 guard are resolved on the dict backend in the parent,
        exactly like the serial path, without bypassing shipping for the
        rest of the batch.
        """
        source_list = list(sources)
        self._require_nodes(*source_list)
        if not self._use_csr():
            if self._policy.parallel:
                # Prefetch the per-source BFS results through the worker
                # pool; the base-class per-source loop below then reads them
                # from the cache instead of traversing serially.
                self.batch_bfs(source_list)
            return super().batch_compatible_sets(source_list)
        if self._policy.parallel:
            return fetch_batched(
                self._compatible_cache, source_list, self._compute_mask_sets
            )

        def compute_missing(missing: List[Node]) -> List[FrozenSet[Node]]:
            sets: List[FrozenSet[Node]] = []
            for source, result in zip(missing, self.batch_bfs(missing)):
                if isinstance(result, SignedBFSResult):
                    computed = self._compute_compatible_set(source)
                else:
                    rule_mask = self._pair_rule_mask(
                        result.positive_array, result.negative_array
                    )
                    computed = set(result.compatible_nodes(rule_mask))
                computed.add(source)
                sets.append(frozenset(computed))
            return sets

        return fetch_batched(self._compatible_cache, source_list, compute_missing)

    def _batch_compatible_masks(self, sources: Sequence[Node]) -> List:
        """Packed compatible bitmaps per source via the executor.

        One ``uint8`` row of ``ceil(n/8)`` bytes per source (``None`` marks
        an int64 overflow) — ``rule & reachable`` over the snapshot's dense
        ids with the source's own bit set.  Under a pool policy the rows ship
        through the result arena and come back as zero-copy views; under the
        degraded/serial executor the plain kernel computes the same bytes
        in-process (the arena's no-op path).
        """
        csr = self._graph.csr_view()
        return self._executor().map_kernel(
            "csr_compatible_masks",
            csr,
            [csr.index_of(source) for source in sources],
            params={"rule": self.name},
        )

    def _compute_mask_sets(self, missing: List[Node]) -> List[FrozenSet[Node]]:
        """Pool path of :meth:`batch_compatible_sets`: bitmaps in, frozensets out."""
        import numpy as np

        from repro.utils.bitset import unpack_mask

        csr = self._graph.csr_view()
        nodes = csr._nodes
        sets: List[FrozenSet[Node]] = []
        for source, packed in zip(missing, self._batch_compatible_masks(missing)):
            if packed is None:
                # int64 overflow: this source needs the dict backend's
                # arbitrary-precision counts (computed in the parent); the
                # rest of the batch keeps its worker-side bitmaps.
                computed = self._compute_compatible_set(source)
                computed.add(source)
                sets.append(frozenset(computed))
                continue
            mask = unpack_mask(packed, len(nodes))
            sets.append(frozenset(nodes[dense] for dense in np.flatnonzero(mask)))
        return sets

    def batch_compatibility_degrees(self, sources: Sequence[Node]) -> List[int]:
        """Number of *other* compatible nodes for every source, batched.

        On the CSR backend every uncached source shares the batched
        multi-source BFS and the pair rule is applied as a vectorised mask —
        no per-node Python iteration and no set materialisation.  On the dict
        backend it falls back to the base class's per-source loop.  Under a
        pool policy, uncached sources are counted *inside* the workers
        (``csr_compatible_degrees``): each per-source BFS reduces to one
        integer before crossing the process boundary, so the sweep ships
        back O(k) ints instead of O(k·n) count arrays (the BFS results are
        then not cached — the count is the product).  The counts are
        identical across backends and executors.
        """
        source_list = list(sources)
        self._require_nodes(*source_list)
        if not self._use_csr():
            # The base class delegates to batch_compatible_sets, whose SP*
            # override already prefetches through the pool when parallel.
            return super().batch_compatibility_degrees(source_list)
        if self._policy.parallel:
            return self._batch_degrees_parallel(source_list)
        degrees: List[int] = []
        for source, result in zip(source_list, self.batch_bfs(source_list)):
            if isinstance(result, SignedBFSResult):
                # Overflow (or probe) fallback: count via the set machinery,
                # which reuses the cached dict BFS.
                degrees.append(self.compatibility_degree(source))
                continue
            rule_mask = self._pair_rule_mask(
                result.positive_array, result.negative_array
            )
            degrees.append(result.compatible_count(rule_mask))
        return degrees

    def _batch_degrees_parallel(self, source_list: List[Node]) -> List[int]:
        """Pool path of :meth:`batch_compatibility_degrees`: worker-side counts.

        Sources with a cached BFS result are counted in the parent from the
        cache (same arithmetic as the serial path); only the misses are
        dispatched, and they come back as bare integers.  Overflow slots
        (``None``) fall back to the dict backend per source, exactly like the
        serial path's ``SignedBFSResult`` branch.
        """
        degrees: List[Optional[int]] = [None] * len(source_list)
        missing: List[Node] = []
        missing_positions: List[int] = []
        for position, source in enumerate(source_list):
            result = self._bfs_cache.get(source)
            if result is None:
                missing.append(source)
                missing_positions.append(position)
            elif isinstance(result, SignedBFSResult):
                degrees[position] = self.compatibility_degree(source)
            else:
                rule_mask = self._pair_rule_mask(
                    result.positive_array, result.negative_array
                )
                degrees[position] = result.compatible_count(rule_mask)
        if missing:
            csr = self._graph.csr_view()
            counts = self._executor().map_kernel(
                "csr_compatible_degrees",
                csr,
                [csr.index_of(source) for source in missing],
                params={"rule": self.name},
            )
            for source, position, count in zip(missing, missing_positions, counts):
                degrees[position] = (
                    self.compatibility_degree(source) if count is None else count
                )
        return degrees

    @staticmethod
    def _pair_rule(positive: int, negative: int) -> bool:
        raise NotImplementedError

    @staticmethod
    def _pair_rule_mask(positive, negative):
        """Vectorised counterpart of :meth:`_pair_rule` over count arrays."""
        raise NotImplementedError


class AllShortestPathsCompatibility(_ShortestPathRelation):
    """SPA: every shortest path between the pair is positive."""

    name = "SPA"

    @staticmethod
    def _pair_rule(positive: int, negative: int) -> bool:
        return positive > 0 and negative == 0

    @staticmethod
    def _pair_rule_mask(positive, negative):
        return (positive > 0) & (negative == 0)


class MajorityShortestPathsCompatibility(_ShortestPathRelation):
    """SPM: at least as many positive as negative shortest paths."""

    name = "SPM"

    @staticmethod
    def _pair_rule(positive: int, negative: int) -> bool:
        return positive > 0 and positive >= negative

    @staticmethod
    def _pair_rule_mask(positive, negative):
        return (positive > 0) & (positive >= negative)


class OneShortestPathCompatibility(_ShortestPathRelation):
    """SPO: at least one shortest path between the pair is positive."""

    name = "SPO"

    @staticmethod
    def _pair_rule(positive: int, negative: int) -> bool:
        return positive > 0

    @staticmethod
    def _pair_rule_mask(positive, negative):
        return positive > 0
