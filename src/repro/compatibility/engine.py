"""The batched, backend-aware compatibility query service.

Team formation (Section 4 of the paper) keeps asking *one-to-many* questions:
"which holders of skill ``s`` are compatible with the current team?", "how far
is each candidate from the team?".  The per-pair relation API answers them one
:meth:`~repro.compatibility.base.CompatibilityRelation.are_compatible` call at
a time — correct, but each call pays Python-interpreter cost, and none of the
batched CSR kernels (:mod:`repro.signed.csr`) get a chance to amortise work
across the candidates.

:class:`CompatibilityEngine` is the shared service every layer above the
kernels queries instead:

* :class:`~repro.teams.problem.TeamFormationProblem` filters per-skill
  candidates through :meth:`compatible_from_many`;
* the user-selection policies score candidates through
  :meth:`distances_to_team_many` and prefetch compatible sets through
  :meth:`compatible_sets`;
* the generic Algorithm 2 warms the seed users' per-source computations in
  one batch (:meth:`warm`);
* the experiment harness routes its sampled pair statistics through
  :meth:`compatibility_degrees`.

The engine decides per relation and backend how to serve each query: SP*
relations on the CSR backend answer team filters with one batched
multi-source BFS plus a vectorised pair-rule mask; every other relation (and
the ``batched=False`` legacy mode) falls back to exactly the per-pair loop the
call sites used before, so results are identical by construction — the
equivalence tests assert the teams, costs and statistics match bit for bit.

The per-pair relation API (``are_compatible`` / ``compatible_with``) remains
fully supported; it now simply is the thin layer the engine degrades to when
no batched strategy applies.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.compatibility.base import CacheSize, CompatibilityRelation
from repro.compatibility.distance import DistanceOracle
from repro.compatibility.shortest_path import _ShortestPathRelation
from repro.exec.policy import (
    POLICY_DEFAULT,
    ExecutionPolicy,
    executor_for,
    resolve_policy,
)
from repro.signed.graph import Node, SignedGraph
from repro.signed.paths import SignedBFSResult
from repro.utils.generational import GenerationalLRUCache
from repro.utils.lru import scaled_cache_size
from repro.utils.optional import numpy_available

#: Default bound on the number of memoised per-member rule masks (each mask
#: is one byte per node, so the ``"auto"`` sizing rarely shrinks it).
DEFAULT_MASK_CACHE_SIZE = 4096


class CompatibilityEngine:
    """Batched one-to-many compatibility and distance queries for one relation.

    Parameters
    ----------
    relation:
        The compatibility relation to serve queries for.
    oracle:
        Optional pre-built :class:`DistanceOracle`; built from ``relation``
        (under the engine's policy) when omitted.  Sharing the oracle shares
        its distance-map caches.
    batched:
        Deprecated shim for ``policy.batched``: when false, every query runs
        the legacy per-pair code path — the reference mode the equivalence
        tests compare against; production callers leave it on.  ``None``
        (default) takes the policy's value.
    mask_cache_size:
        Legacy override for ``policy.mask_cache_size`` — the bound on the
        engine-level rule-mask memo: for SP* relations on the CSR backend,
        :meth:`compatible_from_many` memoises one boolean mask per
        ``(team member, graph generation)``, so Algorithm 2's repeated
        filters against the same team skip both the BFS lookup and the mask
        recomputation.  ``"auto"`` (the policy default) scales by graph size,
        an ``int`` is used as-is, ``None`` disables eviction.
    policy:
        The :class:`~repro.exec.ExecutionPolicy` the engine serves queries
        under; defaults to the relation's policy.  Under a pool policy the
        batched sweeps behind :meth:`warm`, :meth:`compatible_from_many` and
        :meth:`distances_to_team_many` run on the worker pool.
    """

    def __init__(
        self,
        relation: CompatibilityRelation,
        oracle: Optional[DistanceOracle] = None,
        batched: Optional[bool] = None,
        mask_cache_size: CacheSize = POLICY_DEFAULT,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        self._relation = relation
        self._policy = resolve_policy(
            policy if policy is not None else relation.policy,
            batched=batched,
            mask_cache_size=mask_cache_size,
        )
        self._oracle = (
            oracle
            if oracle is not None
            else DistanceOracle(relation, policy=self._policy)
        )
        if self._oracle.relation is not relation:
            raise ValueError("the oracle must be built on the engine's relation")
        self._batched = self._policy.batched
        num_nodes = relation.graph.number_of_nodes()
        mask_bound = self._policy.mask_cache_size
        if isinstance(mask_bound, str):
            if mask_bound != "auto":
                raise ValueError(
                    f"mask_cache_size must be an int, None or 'auto', got {mask_bound!r}"
                )
            resolved = scaled_cache_size(
                DEFAULT_MASK_CACHE_SIZE, num_nodes, bytes_per_node=1
            )
        else:
            resolved = mask_bound
        # member -> (node-list identity of the snapshot, mask array).  The
        # generational wrapper drops entries whose member's component a
        # mutation touched; the identity tag guards against dense-id drift
        # when the node set changes (new snapshots then carry a new list).
        self._mask_cache: GenerationalLRUCache[Node, Tuple[object, object]] = (
            GenerationalLRUCache(
                relation.graph,
                maxsize=resolved,
                bytes_per_entry=max(1, num_nodes),
            )
        )

    # ------------------------------------------------------------- properties

    @property
    def relation(self) -> CompatibilityRelation:
        """The compatibility relation this engine serves."""
        return self._relation

    @property
    def oracle(self) -> DistanceOracle:
        """The distance oracle consistent with the relation."""
        return self._oracle

    @property
    def graph(self) -> SignedGraph:
        """The signed graph the relation is bound to."""
        return self._relation.graph

    @property
    def batched(self) -> bool:
        """Whether batched strategies are enabled (false = legacy per-pair)."""
        return self._batched

    @property
    def policy(self) -> ExecutionPolicy:
        """The execution policy the engine serves queries under."""
        return self._policy

    def executor(self):
        """The executor behind the engine's batched sweeps (serial or pooled)."""
        return executor_for(self._policy)

    # ------------------------------------------------------- pairwise facade

    def are_compatible(self, u: Node, v: Node) -> bool:
        """Per-pair query, delegated to the relation."""
        return self._relation.are_compatible(u, v)

    def compatible_set(self, u: Node) -> FrozenSet[Node]:
        """The compatible set of ``u`` (always contains ``u``), cached."""
        return self._relation.compatible_with(u)

    def distance(self, u: Node, v: Node) -> float:
        """Pairwise distance under the relation's definition."""
        return self._oracle.distance(u, v)

    # --------------------------------------------------------- batched queries

    def compatible_sets(self, sources: Sequence[Node]) -> List[FrozenSet[Node]]:
        """Compatible sets for many sources through the relation's batch path.

        SP* relations resolve uncached sources with one batched multi-source
        BFS; balanced relations share one reverse sweep; the rest loop.  Each
        set equals :meth:`compatible_set` exactly.
        """
        source_list = list(sources)
        if not self._batched:
            return [self._relation.compatible_with(source) for source in source_list]
        return self._relation.batch_compatible_sets(source_list)

    def compatibility_degrees(self, sources: Sequence[Node]) -> List[int]:
        """Number of *other* compatible nodes per source, batched."""
        source_list = list(sources)
        if not self._batched:
            return [self._relation.compatibility_degree(s) for s in source_list]
        return self._relation.batch_compatibility_degrees(source_list)

    def warm(self, sources: Sequence[Node], distances: bool = True) -> None:
        """Prefetch per-source computations the coming queries will need.

        For SP* relations on the CSR backend this runs one batched
        multi-source BFS over the uncached sources (bounded by the BFS cache
        size, so a huge seed list cannot churn the cache).  The matching
        distance maps are warmed alongside only when ``distances`` is true —
        callers whose downstream queries never ask for distances (e.g.
        Algorithm 2 under the most-compatible or random user policy) pass
        false and skip that sweep.  Purely an optimisation — results of later
        queries are unchanged.
        """
        if not self._batched:
            return
        source_list = list(dict.fromkeys(sources))
        if not source_list:
            return
        relation = self._relation
        if isinstance(relation, _ShortestPathRelation) and relation._use_csr():
            budget = relation._bfs_cache.maxsize
            if budget is not None:
                source_list = source_list[:budget]
            relation.batch_bfs(source_list)
            if distances:
                self._oracle.warm(source_list)

    def compatible_from_many(
        self, candidates: Iterable[Node], team: Sequence[Node]
    ) -> FrozenSet[Node]:
        """The candidates compatible with *every* member of ``team``.

        Team members themselves are excluded from the result, mirroring the
        legacy candidate filter.  SP* relations on the CSR backend answer with
        one batched BFS over the team plus vectorised pair-rule masks indexed
        at the candidates; everything else runs the legacy per-pair loop.
        The result is identical either way (the SP* pair rules are symmetric
        in the pair, so membership in the member's masked set *is* the pair
        query).
        """
        team_list = list(team)
        team_set = set(team_list)
        survivors = [c for c in candidates if c not in team_set]
        if not team_list or not survivors:
            return frozenset(survivors)
        relation = self._relation
        if (
            self._batched
            and isinstance(relation, _ShortestPathRelation)
            and relation._use_csr()
        ):
            return self._compatible_from_many_csr(survivors, team_list)
        return frozenset(
            candidate
            for candidate in survivors
            # Query with the team member first: the relations cache their
            # per-source computation, and the members recur across candidates.
            if all(relation.are_compatible(member, candidate) for member in team_list)
        )

    def _member_rule_masks(self, team: Sequence[Node], csr) -> List[tuple]:
        """One memoised ``(mask, fallback_result)`` per team member, aligned
        with ``team``.

        A mask is the member's vectorised pair rule AND reachability over the
        snapshot's dense ids — the entire per-member contribution to a team
        filter.  Masks live in the engine's ``(member, generation)`` memo;
        misses are resolved with one batched BFS over exactly the missing
        members.  A slot of ``(None, result)`` marks a member whose BFS
        result cannot be indexed against ``csr`` (dict fallback, or a
        surviving result from a snapshot with a different node set): the
        caller runs the per-pair path on that very result rather than
        re-fetching it (the BFS LRU can be smaller than the team).

        Under a pool policy the misses are fetched as worker-packed bitmaps
        (``csr_compatible_masks`` — ``rule & reachable``, which is exactly
        this memo's mask since a source always passes its own pair rule), so
        each member ships ``n/8`` bytes instead of three O(n) count arrays;
        only int64-overflow members fall back to the batched-BFS path.
        """
        from repro.signed.csr import UNREACHABLE

        relation = self._relation
        nodes_tag = csr._nodes
        masks: dict = {}
        missing: List[Node] = []
        for member in dict.fromkeys(team):
            entry = self._mask_cache.get(member)
            if entry is not None and entry[0] is nodes_tag:
                masks[member] = (entry[1], None)
            else:
                missing.append(member)
        if missing and self._policy.parallel:
            from repro.utils.bitset import unpack_mask

            # Members whose BFS results already sit in the relation's cache
            # (earlier pair queries, a warm()) must not pay a fresh worker-side
            # traversal: indexable results yield their mask locally, the rest
            # (dict fallbacks, foreign snapshots) go to the batch_bfs loop
            # below — also a cache hit.  Only true misses are dispatched.
            dispatch: List[Node] = []
            uncached: List[Node] = []
            for member in missing:
                cached = relation._bfs_cache.get(member)
                if cached is None:
                    dispatch.append(member)
                elif not isinstance(
                    cached, SignedBFSResult
                ) and cached.graph.shares_index_with(csr):
                    mask = relation._pair_rule_mask(
                        cached.positive_array, cached.negative_array
                    ) & (cached.lengths_array != UNREACHABLE)
                    self._mask_cache[member] = (nodes_tag, mask)
                    masks[member] = (mask, None)
                else:
                    uncached.append(member)
            for member, packed in zip(
                dispatch, relation._batch_compatible_masks(dispatch)
            ):
                if packed is None:
                    uncached.append(member)
                    continue
                mask = unpack_mask(packed, len(nodes_tag))
                self._mask_cache[member] = (nodes_tag, mask)
                masks[member] = (mask, None)
            missing = uncached
        if missing:
            for member, result in zip(missing, relation.batch_bfs(missing)):
                if isinstance(result, SignedBFSResult) or not result.graph.shares_index_with(csr):
                    masks[member] = (None, result)
                    continue
                mask = relation._pair_rule_mask(
                    result.positive_array, result.negative_array
                ) & (result.lengths_array != UNREACHABLE)
                self._mask_cache[member] = (nodes_tag, mask)
                masks[member] = (mask, None)
        return [masks[member] for member in team]

    def _compatible_from_many_csr(
        self, survivors: Sequence[Node], team: Sequence[Node]
    ) -> FrozenSet[Node]:
        """Vectorised team filter: memoised per-member rule masks, indexed at
        the candidates (one batched BFS only for members without a valid memo
        entry)."""
        import numpy as np

        relation = self._relation
        csr = self.graph.csr_view()
        index = csr._index
        try:
            ids = np.fromiter(
                (index[candidate] for candidate in survivors),
                dtype=np.int64,
                count=len(survivors),
            )
        except KeyError as missing:
            from repro.exceptions import NodeNotFoundError

            raise NodeNotFoundError(missing.args[0]) from None
        keep = np.ones(len(survivors), dtype=bool)
        for member, (mask, result) in zip(team, self._member_rule_masks(team, csr)):
            if mask is None:
                # Dict results (overflow or probe fallback) and results from
                # an incompatible snapshot go through the per-pair checks,
                # which resolve nodes via the result's own index — exactly
                # the legacy are_compatible semantics.
                for position, candidate in enumerate(survivors):
                    if not keep[position]:
                        continue
                    if (
                        not isinstance(result, SignedBFSResult)
                        and candidate not in result.graph
                    ):
                        # Candidate newer than the surviving snapshot: not in
                        # the member's (untouched) component, so unreachable.
                        keep[position] = False
                        continue
                    if not result.reachable(candidate):
                        keep[position] = False
                        continue
                    positive, negative = result.counts(candidate)
                    if not relation._pair_rule(positive, negative):
                        keep[position] = False
                continue
            keep &= mask[ids]
            if not keep.any():
                break
        return frozenset(
            survivors[position] for position in np.flatnonzero(keep)
        )

    def distance_to_team(self, node: Node, team: Iterable[Node]) -> float:
        """Largest distance from ``node`` to any team member (legacy single)."""
        return self._oracle.distance_to_set(node, team)

    def distances_to_team_many(
        self, candidates: Sequence[Node], team: Sequence[Node]
    ) -> List[float]:
        """:meth:`distance_to_team` for every candidate, batched.

        Under ``distance_index="auto"|"labels"`` the oracle serves this from
        the precomputed label index (building or delta-refreshing it lazily
        for the current generation) and only falls back to BFS sweeps on a
        miss or an untight landmark bound.  Otherwise the team's distance
        maps are computed in one batched sweep and the per-candidate maxima
        are taken with array indexing on the CSR backend.  Values equal the
        per-candidate calls exactly in every mode.
        """
        candidate_list = list(candidates)
        if not self._batched:
            return [
                self._oracle.distance_to_set(candidate, team)
                for candidate in candidate_list
            ]
        return self._oracle.batch_distance_to_set(candidate_list, team)

    def refresh(self) -> None:
        """Eagerly resync the engine with a mutated graph.

        Every cache the engine touches is generation-keyed and resyncs
        lazily, so calling this is never required for correctness.  It exists
        to move the (possibly delta-applied) CSR snapshot rebuild and the
        targeted cache invalidation out of the next query's latency — the
        natural point in a streaming workload is right after an update batch,
        before queries resume.

        Under a pool policy no extra work is needed for the workers: shipped
        snapshots are keyed by ``(object, generation)``, so the first sweep
        after a generation bump republishes the fresh snapshot automatically
        and unlinks the stale one.
        """
        if numpy_available() and self.graph._csr_cache is not None:
            self.graph.csr_view()
        self._mask_cache.sync()
        self._relation.sync_caches()
        # Also delta-refreshes the oracle's distance-label index, if built.
        self._oracle.sync()

    def index_stats(self):
        """The oracle's distance-label index stats (``None`` when unbuilt).

        See :meth:`DistanceOracle.index_stats` — structure sizes plus
        served/fallback/build/patch counters for observability.
        """
        return self._oracle.index_stats()

    def clear_caches(self) -> None:
        """Drop the relation's, the oracle's and the engine's own caches.

        With generation-keyed caches this is no longer required after graph
        mutations (stale entries expire by themselves); it remains the full
        reset for tests and memory pressure.
        """
        self._relation.clear_cache()
        self._oracle.clear_cache()
        self._mask_cache.clear()

    def __repr__(self) -> str:
        return (
            f"CompatibilityEngine(relation={self._relation.name}, "
            f"batched={self._batched})"
        )
