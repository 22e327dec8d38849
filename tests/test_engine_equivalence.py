"""Equivalence suite for the batched CompatibilityEngine stack.

Three layers are pinned against their legacy per-pair / per-source
counterparts, bit for bit:

* the multi-source CSR kernels (word-parallel and per-source) against
  single-source runs and the dict reference implementations;
* the SBPH (node, sign)-state CSR search against the per-edge dict search;
* the full team-formation algorithms (LCMD / LCMC / RFMD / RFMC) through the
  engine against the legacy per-pair path, on random, synthetic-topology and
  loader-built graphs, under every relation.
"""

from __future__ import annotations

import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.compatibility import (
    CompatibilityEngine,
    DistanceOracle,
    make_relation,
    source_sampled_pair_statistics,
)
from repro.compatibility.shortest_path import (
    CSR_AUTO_LEVEL_THRESHOLD,
    CSR_AUTO_THRESHOLD,
)
from repro.datasets import load_snap_dataset, synthetic_signed_network, toy_dataset
from repro.signed import SignedGraph, signed_bfs
from repro.signed.csr import (
    WORDPARALLEL_MIN_SOURCES,
    balanced_heuristic_search_csr,
    multi_source_shortest_path_lengths_csr,
    multi_source_signed_bfs,
    shortest_path_lengths_dense_batch_into,
    signed_bfs_csr,
    signed_bfs_dense_batch_into,
    CSRLengths,
)
from repro.signed.generators import planted_factions_graph
from repro.signed.io import write_edge_list
from repro.signed.paths import BalancedPathSearch, shortest_path_lengths
from repro.skills.generators import assign_skills_zipf
from repro.skills.task import random_tasks
from repro.teams import TeamFormationProblem, run_algorithm
from repro.utils.lru import (
    APPROX_BYTES_PER_NODE,
    DEFAULT_CACHE_BUDGET_BYTES,
    LRUCache,
    fetch_batched,
    scaled_cache_size,
)

ALGORITHMS = ("LCMD", "LCMC", "RFMD", "RFMC")
RELATIONS = ("DPE", "SPA", "SPM", "SPO", "SBPH", "NNE")


def _relation_pair(name, graph, **kwargs):
    """Two fresh instances of the same relation (engine vs legacy runs)."""
    return make_relation(name, graph, **kwargs), make_relation(name, graph, **kwargs)


def _assert_algorithms_match(graph, skills, tasks, relation_name, **relation_kwargs):
    """Engine-backed and legacy problems produce identical teams and costs.

    One relation instance per side is reused across algorithms and tasks —
    exactly how the experiment harness shares caches — so the comparison also
    covers cache-warm queries.
    """
    engine_rel, legacy_rel = _relation_pair(relation_name, graph, **relation_kwargs)
    engine = CompatibilityEngine(engine_rel)
    legacy = CompatibilityEngine(legacy_rel, batched=False)
    for task in tasks:
        for algorithm in ALGORITHMS:
            engine_problem = TeamFormationProblem(
                graph, skills, engine_rel, task, engine=engine
            )
            legacy_problem = TeamFormationProblem(
                graph, skills, legacy_rel, task, engine=legacy
            )
            got = run_algorithm(algorithm, engine_problem, max_seeds=6, seed=13)
            expected = run_algorithm(algorithm, legacy_problem, max_seeds=6, seed=13)
            assert got.team == expected.team, (relation_name, algorithm, task)
            assert got.cost == expected.cost, (relation_name, algorithm, task)
            assert got.seeds_tried == expected.seeds_tried
            assert got.candidates_completed == expected.candidates_completed


class TestTeamFormationEquivalence:
    """LCMD/LCMC/RFMD/RFMC: identical outcomes through the engine."""

    @pytest.mark.parametrize("relation_name", RELATIONS)
    def test_random_graph(self, relation_name):
        graph, _ = planted_factions_graph(
            60, average_degree=4.0, sign_noise=0.15, seed=21
        )
        skills = assign_skills_zipf(
            graph.nodes(), num_skills=12, skills_per_user=2.5, seed=22
        )
        tasks = random_tasks(skills, size=3, count=2, seed=23)
        _assert_algorithms_match(graph, skills, tasks, relation_name)

    def test_random_graph_exact_sbp(self):
        # The exact SBP enumeration is exponential; keep the graph tiny and
        # cap the expansion budget so the equivalence check stays fast.
        graph, _ = planted_factions_graph(
            24, average_degree=3.0, sign_noise=0.15, seed=25
        )
        skills = assign_skills_zipf(
            graph.nodes(), num_skills=6, skills_per_user=2.0, seed=26
        )
        tasks = random_tasks(skills, size=2, count=1, seed=27)
        _assert_algorithms_match(
            graph, skills, tasks, "SBP", max_expansions=50_000
        )

    @pytest.mark.parametrize("relation_name", RELATIONS)
    def test_synthetic_topology_graph(self, relation_name):
        # The hand-crafted dataset plus a ladder-like topology: structured
        # graphs whose compatible sets differ sharply from random ones.
        toy = toy_dataset()
        tasks = random_tasks(toy.skills, size=3, count=2, seed=31)
        _assert_algorithms_match(toy.graph, toy.skills, tasks, relation_name)

    @pytest.mark.parametrize("relation_name", RELATIONS)
    def test_loader_built_graph(self, tmp_path, relation_name):
        graph, _ = planted_factions_graph(
            48, average_degree=4.0, sign_noise=0.2, seed=41
        )
        edges_path = tmp_path / "net.edges"
        write_edge_list(graph, edges_path)
        dataset = load_snap_dataset(
            "loader-built", edges_path, num_synthetic_skills=10, seed=42
        )
        tasks = random_tasks(dataset.skills, size=3, count=2, seed=43)
        _assert_algorithms_match(dataset.graph, dataset.skills, tasks, relation_name)

    @pytest.mark.parametrize("relation_name", ("SPA", "SPM", "SPO", "SBPH"))
    def test_forced_csr_backend(self, relation_name):
        # backend="csr" exercises the vectorised candidate filter and the
        # CSR heuristic search even below the auto threshold.
        graph, _ = planted_factions_graph(
            70, average_degree=4.5, sign_noise=0.2, seed=51
        )
        skills = assign_skills_zipf(
            graph.nodes(), num_skills=10, skills_per_user=2.5, seed=52
        )
        tasks = random_tasks(skills, size=3, count=2, seed=53)
        _assert_algorithms_match(graph, skills, tasks, relation_name, backend="csr")


class TestCompatibleFromMany:
    """The engine's one-to-many team filter equals the per-pair loop."""

    @pytest.mark.parametrize("relation_name", RELATIONS)
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_matches_per_pair_loop(self, relation_name, seed):
        rng = random.Random(seed)
        graph, _ = planted_factions_graph(
            50, average_degree=4.0, sign_noise=0.2, seed=seed
        )
        kwargs = (
            {"backend": "csr"}
            if relation_name in ("SPA", "SPM", "SPO", "SBPH")
            else {}
        )
        relation = make_relation(relation_name, graph, **kwargs)
        engine = CompatibilityEngine(relation)
        legacy = CompatibilityEngine(relation, oracle=engine.oracle, batched=False)
        nodes = graph.nodes()
        for _ in range(5):
            team = rng.sample(nodes, rng.randint(1, 4))
            candidates = rng.sample(nodes, rng.randint(1, 20))
            assert engine.compatible_from_many(candidates, team) == (
                legacy.compatible_from_many(candidates, team)
            )

    def test_empty_team_returns_all_candidates(self, toy):
        relation = make_relation("SPO", toy.graph)
        engine = CompatibilityEngine(relation)
        candidates = toy.graph.nodes()[:5]
        assert engine.compatible_from_many(candidates, []) == frozenset(candidates)

    def test_team_members_excluded(self, toy):
        relation = make_relation("NNE", toy.graph)
        engine = CompatibilityEngine(relation)
        nodes = toy.graph.nodes()
        result = engine.compatible_from_many(nodes[:4], [nodes[0]])
        assert nodes[0] not in result


class TestDistancesToTeamMany:
    """Batched distance-to-team equals the per-candidate oracle loop."""

    @pytest.mark.parametrize(
        "relation_name,kwargs",
        [
            ("SPO", {"backend": "csr"}),
            ("SPO", {"backend": "dict"}),
            ("NNE", {}),
            ("SBPH", {}),
        ],
    )
    def test_matches_distance_to_set(self, relation_name, kwargs):
        rng = random.Random(7)
        graph, _ = planted_factions_graph(
            40, average_degree=4.0, sign_noise=0.2, seed=7
        )
        relation = make_relation(relation_name, graph, **kwargs)
        engine = CompatibilityEngine(relation)
        nodes = graph.nodes()
        for _ in range(4):
            team = rng.sample(nodes, rng.randint(1, 3))
            candidates = rng.sample(nodes, 10)
            batched = engine.distances_to_team_many(candidates, team)
            expected = [engine.oracle.distance_to_set(c, team) for c in candidates]
            assert batched == expected


class TestBatchedKernels:
    """Multi-source kernels are bit-identical to per-source runs.

    Source counts straddle the word-parallel crossover and the 64-bit word
    boundary, and every batch repeats a source, so both strategies, a
    multi-word batch and its short tail word are all exercised.
    """

    COUNTS = (1, WORDPARALLEL_MIN_SOURCES - 1, WORDPARALLEL_MIN_SOURCES, 64, 65)

    @staticmethod
    def _sources(graph, count, rng):
        sources = rng.choices(graph.nodes(), k=count)
        if count > 1:
            sources[-1] = sources[0]
        return sources

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_multi_source_signed_bfs_matches_single_source(self, seed):
        graph, _ = planted_factions_graph(
            45, average_degree=4.0, sign_noise=0.15, seed=seed
        )
        csr = graph.csr_view()
        n = csr.number_of_nodes()
        rng = random.Random(seed)
        for count in self.COUNTS:
            sources = self._sources(graph, count, rng)
            dense = [csr.index_of(source) for source in sources]
            batched = multi_source_signed_bfs(csr, sources)
            lengths = np.empty((count, n), dtype=np.int32)
            positive = np.empty((count, n), dtype=np.int64)
            negative = np.empty((count, n), dtype=np.int64)
            tokens = signed_bfs_dense_batch_into(csr, dense, lengths, positive, negative)
            assert tokens == [True] * count
            for row, (source, result) in enumerate(zip(sources, batched)):
                single = signed_bfs_csr(csr, source)
                for got in (
                    (result.lengths_array, result.positive_array, result.negative_array),
                    (lengths[row], positive[row], negative[row]),
                ):
                    assert (got[0] == single.lengths_array).all()
                    assert (got[1] == single.positive_array).all()
                    assert (got[2] == single.negative_array).all()
                reference = signed_bfs(graph, source)
                converted = result.to_signed_bfs_result()
                assert converted.lengths == reference.lengths
                assert converted.positive_counts == reference.positive_counts
                assert converted.negative_counts == reference.negative_counts

    def test_multi_source_signed_bfs_empty_and_duplicates(self, two_factions):
        csr = two_factions.csr_view()
        assert multi_source_signed_bfs(csr, []) == []
        results = multi_source_signed_bfs(csr, [0, 0, 3])
        assert results[0].source == results[1].source == 0
        assert (results[0].lengths_array == results[1].lengths_array).all()

    @pytest.mark.parametrize("seed", (0, 1))
    def test_multi_source_plain_lengths_match_dict(self, seed):
        graph, _ = planted_factions_graph(
            45, average_degree=4.0, sign_noise=0.15, seed=seed
        )
        csr = graph.csr_view()
        rng = random.Random(seed)
        for count in self.COUNTS:
            sources = self._sources(graph, count, rng)
            arrays = multi_source_shortest_path_lengths_csr(csr, sources)
            out = np.empty((count, csr.number_of_nodes()), dtype=np.int32)
            dense = [csr.index_of(source) for source in sources]
            assert shortest_path_lengths_dense_batch_into(csr, dense, out) == [True] * count
            for row, (source, lengths) in enumerate(zip(sources, arrays)):
                expected = shortest_path_lengths(graph, source)
                assert dict(CSRLengths(csr, lengths).items()) == expected
                assert dict(CSRLengths(csr, out[row]).items()) == expected


class TestSBPHCSRSearch:
    """The (node, sign)-state CSR search is bit-identical to the dict search."""

    def _assert_identical(self, graph, sources=None, max_length=None):
        search = BalancedPathSearch(graph, max_length=max_length)
        csr = graph.csr_view()
        for source in sources if sources is not None else graph.nodes():
            expected = search.search_heuristic(source)
            got = balanced_heuristic_search_csr(csr, source, max_length=max_length)
            assert got.positive_lengths == expected.positive_lengths, source
            assert got.negative_lengths == expected.negative_lengths, source
            assert got.exact == expected.exact
            assert got.max_length == expected.max_length

    def test_figure_1b(self, figure_1b):
        self._assert_identical(figure_1b)

    def test_prefix_trap(self, prefix_trap_graph):
        self._assert_identical(prefix_trap_graph)

    def test_two_factions(self, two_factions):
        self._assert_identical(two_factions)

    def test_line_graph(self, line_graph):
        self._assert_identical(line_graph)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        graph, _ = planted_factions_graph(
            rng.randint(8, 50), average_degree=3.5, sign_noise=0.25, seed=seed
        )
        self._assert_identical(graph, sources=rng.sample(graph.nodes(), 6))

    @pytest.mark.parametrize("max_length", (0, 1, 2, 4))
    def test_with_length_cap(self, prefix_trap_graph, max_length):
        self._assert_identical(prefix_trap_graph, max_length=max_length)

    def test_negative_max_length_rejected(self, two_factions):
        with pytest.raises(ValueError):
            balanced_heuristic_search_csr(two_factions.csr_view(), 0, max_length=-1)

    @pytest.mark.parametrize("seed", (3, 4))
    def test_sbph_relation_backends_agree(self, seed):
        graph, _ = planted_factions_graph(
            40, average_degree=4.0, sign_noise=0.2, seed=seed
        )
        dict_rel = make_relation("SBPH", graph, backend="dict")
        csr_rel = make_relation("SBPH", graph, backend="csr")
        for node in graph.nodes():
            assert dict_rel.compatible_with(node) == csr_rel.compatible_with(node)
        nodes = graph.nodes()
        rng = random.Random(seed)
        for _ in range(20):
            u, v = rng.sample(nodes, 2)
            assert dict_rel.positive_balanced_distance(
                u, v
            ) == csr_rel.positive_balanced_distance(u, v)


class TestDiameterAdaptiveAuto:
    """backend="auto" counts probe BFS levels and falls back on high diameter."""

    def _path_graph(self, length):
        return SignedGraph.from_edges(
            [(i, i + 1, 1 if i % 3 else -1) for i in range(length)]
        )

    def test_path_graph_prefers_dict(self):
        graph = self._path_graph(CSR_AUTO_THRESHOLD + 200)
        relation = make_relation("SPO", graph)
        assert relation._use_csr() is False
        assert relation._auto_prefer_dict is True

    def test_low_diameter_graph_prefers_csr(self):
        graph, _ = synthetic_signed_network(
            CSR_AUTO_THRESHOLD + 200, average_degree=6.0, negative_fraction=0.2, seed=5
        )
        relation = make_relation("SPO", graph)
        assert relation._use_csr() is True
        assert relation._auto_prefer_dict is False

    def test_explicit_backends_skip_probe(self):
        graph = self._path_graph(CSR_AUTO_THRESHOLD + 100)
        assert make_relation("SPO", graph, backend="dict")._use_csr() is False
        assert make_relation("SPO", graph, backend="csr")._use_csr() is True

    def test_probe_decision_reset_by_clear_cache(self):
        graph = self._path_graph(CSR_AUTO_THRESHOLD + 100)
        relation = make_relation("SPO", graph)
        relation._use_csr()
        assert relation._auto_prefer_dict is not None
        relation.clear_cache()
        assert relation._auto_prefer_dict is None

    def test_small_graph_stays_dict_without_probe(self, two_factions):
        relation = make_relation("SPO", two_factions)
        assert relation._use_csr() is False
        assert relation._auto_prefer_dict is None

    def test_probe_result_lands_in_cache(self):
        graph, _ = synthetic_signed_network(
            CSR_AUTO_THRESHOLD + 50, average_degree=5.0, negative_fraction=0.2, seed=6
        )
        relation = make_relation("SPO", graph)
        relation._use_csr()
        probe_source = next(iter(graph))
        assert probe_source in relation._bfs_cache

    def test_threshold_is_reasonable(self):
        # Guard against accidental edits: the threshold separates social
        # networks (diameter < 20) from paths/grids (hundreds of levels).
        assert 16 <= CSR_AUTO_LEVEL_THRESHOLD <= 128

    def test_isolated_first_node_does_not_fool_probe(self):
        # The first inserted node is a leaf of a 2-node appendix; its
        # component says nothing about the dominant path component, so the
        # probe must keep sampling components before committing to CSR.
        graph = SignedGraph()
        graph.add_edge("appendix-a", "appendix-b", 1)
        for i in range(CSR_AUTO_THRESHOLD + 200):
            graph.add_edge(i, i + 1, 1)
        relation = make_relation("SPO", graph)
        assert relation._use_csr() is False
        assert relation._auto_prefer_dict is True


class TestByteAwareCacheBounds:
    """Default cache sizes scale with graph size; byte estimates are exposed."""

    def test_scaled_cache_size_small_graph_keeps_ceiling(self):
        assert scaled_cache_size(2048, 100) == 2048

    def test_scaled_cache_size_huge_graph_shrinks(self):
        bound = scaled_cache_size(2048, 3_000_000)
        assert bound < 2048
        assert bound * 3_000_000 * APPROX_BYTES_PER_NODE <= (
            DEFAULT_CACHE_BUDGET_BYTES * 2  # minimum-entries clamp may exceed budget
        ) or bound == 4
        assert bound >= 4

    def test_scaled_cache_size_none_passthrough(self):
        assert scaled_cache_size(None, 10**9) is None

    def test_lru_exposes_byte_estimate(self):
        cache = LRUCache(maxsize=4, bytes_per_entry=1000)
        assert cache.approx_bytes == 0
        cache["a"] = 1
        cache["b"] = 2
        assert cache.approx_bytes == 2000
        assert cache.bytes_per_entry == 1000
        assert "approx_bytes=2000" in repr(cache)

    def test_lru_without_hint_has_no_estimate(self):
        cache = LRUCache(maxsize=4)
        assert cache.approx_bytes is None

    def test_relation_default_scales_with_graph(self):
        big = SignedGraph()
        for node in range(2_000_000):
            big.add_node(node)
        relation = make_relation("SPO", big)
        assert relation._bfs_cache.maxsize < 2048
        assert relation._bfs_cache.bytes_per_entry == 2_000_000 * APPROX_BYTES_PER_NODE

    def test_explicit_cache_sizes_pass_through(self, two_factions):
        relation = make_relation("SPO", two_factions, bfs_cache_size=7)
        assert relation._bfs_cache.maxsize == 7
        unbounded = make_relation("SPO", two_factions, bfs_cache_size=None)
        assert unbounded._bfs_cache.maxsize is None

    def test_invalid_cache_size_string_rejected(self, two_factions):
        with pytest.raises(ValueError):
            make_relation("SPO", two_factions, bfs_cache_size="huge")

    def test_fetch_batched_single_compute_call_and_write_through(self):
        cache = LRUCache(maxsize=2)
        cache["a"] = 1
        calls = []

        def compute(missing):
            calls.append(list(missing))
            return [ord(key) for key in missing]

        values = fetch_batched(cache, ["a", "b", "b", "c", "a"], compute)
        assert values == [1, ord("b"), ord("b"), ord("c"), 1]
        assert calls == [["b", "c"]]  # one call, deduplicated
        assert "c" in cache  # written through (LRU may evict earlier keys)

    def test_fetch_batched_batch_larger_than_cache(self):
        cache = LRUCache(maxsize=1)
        keys = list("abcdef")
        computed = []

        def compute(missing):
            computed.extend(missing)
            return [key.upper() for key in missing]

        values = fetch_batched(cache, keys, compute)
        assert values == [key.upper() for key in keys]
        assert computed == keys  # each computed exactly once despite eviction


class TestEngineContracts:
    """Engine construction and statistics routing."""

    def test_engine_rejects_foreign_oracle(self, toy):
        relation = make_relation("SPO", toy.graph)
        other = make_relation("SPM", toy.graph)
        with pytest.raises(ValueError):
            CompatibilityEngine(relation, oracle=DistanceOracle(other))

    def test_problem_rejects_foreign_engine(self, toy):
        from repro.skills.task import Task

        relation = make_relation("SPO", toy.graph)
        other = make_relation("SPM", toy.graph)
        with pytest.raises(ValueError):
            TeamFormationProblem(
                toy.graph,
                toy.skills,
                relation,
                Task(["python"]),
                engine=CompatibilityEngine(other),
            )

    def test_problem_builds_engine_sharing_oracle(self, toy):
        from repro.skills.task import Task

        relation = make_relation("SPO", toy.graph)
        problem = TeamFormationProblem(toy.graph, toy.skills, relation, Task(["python"]))
        assert problem.engine.relation is relation
        assert problem.engine.oracle is problem.oracle

    def test_source_sampled_statistics_via_engine(self):
        graph, _ = planted_factions_graph(
            40, average_degree=4.0, sign_noise=0.2, seed=9
        )
        relation = make_relation("SPO", graph, backend="csr")
        engine = CompatibilityEngine(relation)
        direct = source_sampled_pair_statistics(relation, 8, seed=3)
        routed = source_sampled_pair_statistics(relation, 8, seed=3, engine=engine)
        assert direct == routed

    def test_source_sampled_statistics_rejects_foreign_engine(self, toy):
        relation = make_relation("SPO", toy.graph)
        other = make_relation("SPM", toy.graph)
        with pytest.raises(ValueError):
            source_sampled_pair_statistics(
                relation, 4, engine=CompatibilityEngine(other)
            )

    def test_clear_caches_refreshes_distances_after_mutation(self):
        graph = SignedGraph.from_edges([(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
        relation = make_relation("SPO", graph)
        engine = CompatibilityEngine(relation)
        assert engine.distance(0, 4) == 4.0  # caches the BFS map from 0
        graph.add_edge(0, 4, 1)
        engine.clear_caches()  # must drop the oracle's distance maps too
        assert engine.distance(0, 4) == 1.0

    def test_compatible_from_many_survives_stale_snapshot(self):
        # A mutation without clear_cache leaves cached BFS results bound to an
        # older CSR snapshot; the filter must fall back to per-pair checks on
        # the result's own index instead of mis-indexing the new snapshot.
        graph, _ = planted_factions_graph(
            30, average_degree=4.0, sign_noise=0.2, seed=61
        )
        relation = make_relation("SPO", graph, backend="csr")
        engine = CompatibilityEngine(relation)
        nodes = graph.nodes()
        team = nodes[:2]
        first = engine.compatible_from_many(nodes[2:12], team)
        new_node = max(n for n in nodes if isinstance(n, int)) + 1
        graph.add_edge(nodes[0], new_node, 1)
        # Same query, stale per-member caches: must not raise, and must agree
        # with the legacy per-pair loop over the same (stale) relation caches.
        again = engine.compatible_from_many(nodes[2:12], team)
        legacy = frozenset(
            c
            for c in nodes[2:12]
            if c not in team
            and all(relation.are_compatible(m, c) for m in team)
        )
        assert again == legacy
        engine.clear_caches()
        assert engine.compatible_from_many(nodes[2:12], team) is not None
        assert first is not None


class TestMostCompatibleUnderTinyCache:
    """The batched compatible-set prefetch must not depend on cache capacity."""

    @pytest.mark.parametrize("relation_name", ("SPO", "SBPH", "NNE"))
    def test_selection_identical_with_evicting_cache(self, relation_name):
        graph, _ = planted_factions_graph(
            50, average_degree=4.0, sign_noise=0.2, seed=71
        )
        skills = assign_skills_zipf(
            graph.nodes(), num_skills=6, skills_per_user=2.5, seed=72
        )
        tasks = random_tasks(skills, size=3, count=2, seed=73)
        # compatible_cache_size=1 models the byte-aware "auto" bound on a
        # huge graph: far smaller than the candidate list, so scoring must
        # use the batch's returned sets, not cache re-lookups.
        tiny = make_relation(relation_name, graph, compatible_cache_size=1)
        roomy = make_relation(relation_name, graph)
        for task in tasks:
            tiny_problem = TeamFormationProblem(graph, skills, tiny, task)
            roomy_problem = TeamFormationProblem(graph, skills, roomy, task)
            got = run_algorithm("LCMC", tiny_problem, max_seeds=4, seed=17)
            expected = run_algorithm("LCMC", roomy_problem, max_seeds=4, seed=17)
            assert got.team == expected.team
            assert got.cost == expected.cost


NUMPY_FREE_SCRIPT = textwrap.dedent(
    """
    import sys, warnings
    sys.modules["numpy"] = None  # simulate a numpy-free install
    import repro  # must import cleanly without numpy
    from repro.signed.graph import SignedGraph
    from repro.compatibility import CompatibilityEngine, make_relation

    graph = SignedGraph.from_edges(
        [(i, (i + 1) % 40, 1 if i % 4 else -1) for i in range(40)]
    )
    relation = make_relation("SPO", graph, backend="dict")
    assert relation.compatibility_degree(0) >= 0

    big = SignedGraph.from_edges(
        [(i, (i + 1) % 1500, 1) for i in range(1500)]
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        auto = make_relation("SPO", big)
        assert auto._use_csr() is False
        assert any("numpy" in str(w.message) for w in caught), caught

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sbph = make_relation("SBPH", big)
        assert sbph._use_csr_search() is False
        assert any("numpy" in str(w.message) for w in caught), caught

    engine = CompatibilityEngine(relation)
    team = [graph.nodes()[0]]
    filtered = engine.compatible_from_many(graph.nodes()[:10], team)
    assert all(relation.are_compatible(team[0], c) for c in filtered)

    try:
        make_relation("SPO", graph, backend="csr")
    except ImportError as exc:
        assert "numpy" in str(exc)
    else:
        raise AssertionError("backend='csr' should raise without numpy")
    print("numpy-free-ok")
    """
)


def test_numpy_free_degradation(tmp_path):
    """`import repro`, the dict backend and backend="auto" work without numpy."""
    src = Path(__file__).resolve().parent.parent / "src"
    completed = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "numpy-free-ok" in completed.stdout
