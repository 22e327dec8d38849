"""Tests for the distance-label index (:mod:`repro.signed.labels`).

The load-bearing guarantees, each checked here and property-tested below:

* **exact mode is exact** — 2-hop hub labels answer every pair bit-identically
  to the BFS backend, including unreachable pairs;
* **landmark mode never lies** — sketch values are upper bounds, and every
  entry flagged ``exact`` equals the true distance (the oracle only serves
  flagged entries without a BFS);
* **patching is invisible** — an index delta-refreshed through churn is
  structurally identical to one rebuilt from scratch;
* the oracle's ``distance_index`` policy modes return the same floats as the
  plain BFS oracle in every case, and degrade (with a warning) rather than
  fail when numpy is missing.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compatibility import DistanceOracle, make_relation
from repro.datasets import synthetic_signed_network
from repro.exec import ExecutionPolicy, executor_for, shutdown_pools
from repro.signed import NEGATIVE, POSITIVE, SignedGraph
from repro.signed.paths import INFINITY
from repro.signed.csr import (
    UNREACHABLE,
    CSRSignedGraph,
    shortest_path_lengths_dense_batch,
)
from repro.signed.labels import (
    DEFAULT_NUM_LANDMARKS,
    LabelIndex,
    build_label_index,
    hub_order_for,
    labels_equal,
    refresh_label_index,
)
from repro.signed.store import load_labels, save_snapshot


SLOW_OK = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def signed_graphs(draw, min_nodes=2, max_nodes=9):
    """Small random signed graphs (same shape as test_property_based's)."""
    num_nodes = draw(st.integers(min_nodes, max_nodes))
    nodes = list(range(num_nodes))
    possible_edges = list(itertools.combinations(nodes, 2))
    chosen = (
        draw(
            st.lists(
                st.sampled_from(possible_edges),
                unique=True,
                max_size=len(possible_edges),
            )
        )
        if possible_edges
        else []
    )
    signs = draw(
        st.lists(
            st.sampled_from([POSITIVE, NEGATIVE]),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return SignedGraph.from_edges(
        [(u, v, sign) for (u, v), sign in zip(chosen, signs)], nodes=nodes
    )


def bfs_matrix(csr: CSRSignedGraph):
    """The full sign-agnostic distance matrix via the BFS reference kernel."""
    return shortest_path_lengths_dense_batch(csr, list(range(csr.number_of_nodes())))


def assert_exact_index_matches_bfs(index: LabelIndex, csr: CSRSignedGraph) -> None:
    reference = bfs_matrix(csr)
    n = csr.number_of_nodes()
    ids = np.arange(n, dtype=np.int64)
    for source in range(n):
        assert np.array_equal(index.batch_query_from(source, ids), reference[source])
    # The single-pair spelling agrees with the batch.
    for u in range(min(n, 5)):
        for v in range(n):
            assert index.query(u, v) == int(reference[u][v])


def multi_component_graph(num_cliques=6, clique_size=5):
    """Several disjoint 5-cliques: churn inside one stays component-local."""
    edges = []
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j, POSITIVE if (i + j) % 2 else NEGATIVE))
    return SignedGraph.from_edges(edges)


# ------------------------------------------------------------------- building


class TestBuildExact:
    def test_matches_bfs_on_synthetic_graph(self):
        graph, _ = synthetic_signed_network(
            300, average_degree=5.0, negative_fraction=0.3, seed=7
        )
        csr = graph.csr_view()
        index = build_label_index(csr, mode="exact")
        assert index.mode == "exact"
        assert index.generation == csr.generation
        assert_exact_index_matches_bfs(index, csr)

    def test_auto_resolves_to_exact_when_small(self):
        graph, _ = synthetic_signed_network(
            120, average_degree=4.0, negative_fraction=0.2, seed=3
        )
        index = build_label_index(graph.csr_view(), mode="auto")
        assert index.mode == "exact"
        assert index.requested_mode == "auto"

    def test_exact_mode_raises_when_budget_infeasible(self):
        graph, _ = synthetic_signed_network(
            80, average_degree=4.0, negative_fraction=0.2, seed=1
        )
        with pytest.raises(ValueError, match="label_budget_bytes"):
            build_label_index(graph.csr_view(), mode="exact", budget_bytes=64)

    def test_auto_degrades_to_landmark_on_tight_budget(self):
        graph, _ = synthetic_signed_network(
            200, average_degree=5.0, negative_fraction=0.2, seed=2
        )
        index = build_label_index(graph.csr_view(), mode="auto", budget_bytes=4096)
        assert index.mode == "landmark"
        assert index.nbytes <= 4096

    def test_unknown_mode_rejected(self):
        graph, _ = synthetic_signed_network(
            20, average_degree=3.0, negative_fraction=0.2, seed=0
        )
        with pytest.raises(ValueError, match="mode"):
            build_label_index(graph.csr_view(), mode="bogus")

    def test_hub_order_is_degree_ranked(self):
        graph = SignedGraph.from_edges(
            [(0, 1, +1), (0, 2, +1), (0, 3, -1), (1, 2, +1)], nodes=[0, 1, 2, 3, 4]
        )
        order = hub_order_for(graph.csr_view())
        # Node 0 has degree 3; ties (1, 2) break by dense id; isolated last.
        assert list(order) == [0, 1, 2, 3, 4]


class TestBuildLandmark:
    def test_bounds_are_upper_bounds_and_exact_flags_true(self):
        graph, _ = synthetic_signed_network(
            400, average_degree=5.0, negative_fraction=0.25, seed=11
        )
        csr = graph.csr_view()
        index = build_label_index(csr, mode="landmark")
        assert index.mode == "landmark"
        assert index.num_hubs <= DEFAULT_NUM_LANDMARKS
        reference = bfs_matrix(csr)
        ids = np.arange(csr.number_of_nodes(), dtype=np.int64)
        for source in range(0, csr.number_of_nodes(), 37):
            upper, exact = index.batch_bounds_from(source, ids)
            true = reference[source]
            reachable = true != UNREACHABLE
            # Upper bounds: never below the true distance, UNREACHABLE only
            # when the pair really is disconnected.
            assert (upper[reachable] >= true[reachable]).all()
            assert (upper[~reachable] == UNREACHABLE).all()
            # Every exact-flagged entry is the true value.
            assert np.array_equal(upper[exact], true[exact])

    def test_landmark_sources_answer_exactly(self):
        graph, _ = synthetic_signed_network(
            300, average_degree=5.0, negative_fraction=0.2, seed=13
        )
        csr = graph.csr_view()
        index = build_label_index(csr, mode="landmark")
        ids = np.arange(csr.number_of_nodes(), dtype=np.int64)
        for landmark in np.asarray(index.landmark_ids)[:5]:
            _upper, exact = index.batch_bounds_from(int(landmark), ids)
            assert bool(exact.all())

    @pytest.mark.skipif(
        (__import__("os").cpu_count() or 1) < 2, reason="needs >= 2 CPUs"
    )
    def test_pool_built_rows_bit_identical_to_serial(self):
        graph, _ = synthetic_signed_network(
            600, average_degree=5.0, negative_fraction=0.2, seed=17
        )
        csr = graph.csr_view()
        serial = build_label_index(csr, mode="landmark")
        try:
            pooled = build_label_index(
                csr,
                mode="landmark",
                executor=executor_for(ExecutionPolicy(workers=2)),
            )
        finally:
            shutdown_pools()
        assert labels_equal(serial, pooled)


# --------------------------------------------------------------------- churn


class TestRefresh:
    def test_fresh_index_is_returned_unchanged(self):
        graph, _ = synthetic_signed_network(
            60, average_degree=4.0, negative_fraction=0.2, seed=5
        )
        index = build_label_index(graph.csr_view())
        refreshed, how = refresh_label_index(index, graph)
        assert how == "fresh"
        assert refreshed is index

    @pytest.mark.parametrize("mode", ["exact", "landmark"])
    def test_refresh_matches_rebuild_after_churn(self, mode):
        graph, _ = synthetic_signed_network(
            150, average_degree=4.0, negative_fraction=0.25, seed=9
        )
        rng = np.random.default_rng(42)
        index = build_label_index(graph.csr_view(), mode=mode)
        nodes = graph.nodes()
        for _round in range(6):
            for _ in range(int(rng.integers(1, 10))):
                u, v = rng.choice(len(nodes), size=2, replace=False)
                u, v = nodes[u], nodes[v]
                if graph.has_edge(u, v):
                    graph.remove_edge(u, v)
                else:
                    graph.add_edge(u, v, POSITIVE if rng.random() < 0.7 else NEGATIVE)
            index, how = refresh_label_index(index, graph)
            assert how in ("patched", "rebuilt")
            assert index.generation == graph.generation
            rebuilt = build_label_index(graph.csr_view(), mode=mode)
            assert labels_equal(index, rebuilt)

    @pytest.mark.parametrize("mode", ["exact", "landmark"])
    def test_component_local_churn_patches(self, mode):
        graph = multi_component_graph(num_cliques=8, clique_size=5)
        index = build_label_index(graph.csr_view(), mode=mode)
        # Touch a single clique: the affected sweep stays well under half the
        # node set, so the cheap patch path must be taken — and must still be
        # bit-identical to a rebuild.
        graph.remove_edge(0, 1)
        graph.add_edge(0, 1, NEGATIVE)
        index, how = refresh_label_index(index, graph)
        assert how == "patched"
        assert labels_equal(index, build_label_index(graph.csr_view(), mode=mode))
        if mode == "exact":
            assert_exact_index_matches_bfs(index, graph.csr_view())

    @pytest.mark.parametrize("mode", ["exact", "landmark"])
    def test_connected_graph_flip_only_churn_restamps(self, mode):
        # On a connected graph the affected-component sweep covers everything
        # (affected_nodes_since returns None), so the old refresh could only
        # rebuild.  Sign flips cannot move any distance or degree rank, so a
        # churn window containing nothing else must re-stamp the existing
        # arrays — O(1), sharing storage with the stale index — for *both*
        # modes, and stay bit-identical to a rebuild.
        from repro.datasets.synthetic import synthetic_csr_network

        csr, _ = synthetic_csr_network(400, average_degree=6.0, seed=17)
        graph = csr.to_signed_graph()
        index = build_label_index(graph.csr_view(), mode=mode)
        rng = np.random.default_rng(23)
        nodes = graph.nodes()
        flipped = 0
        while flipped < 10:
            u, v = (nodes[int(i)] for i in rng.choice(len(nodes), 2, replace=False))
            if graph.has_edge(u, v):
                graph.set_sign(u, v, -graph.sign(u, v))
                flipped += 1
        assert graph.affected_nodes_since(index.generation) is None
        refreshed, how = refresh_label_index(index, graph)
        assert how == "patched"
        assert refreshed.generation == graph.generation
        if mode == "exact":
            assert refreshed.label_hubs is index.label_hubs
            assert refreshed.label_dists is index.label_dists
        else:
            assert refreshed.landmark_rows is index.landmark_rows
        assert labels_equal(refreshed, build_label_index(graph.csr_view(), mode=mode))

    def test_connected_graph_topology_churn_stays_exact(self):
        # Topology events on an expander-like connected graph genuinely
        # perturb labels far beyond the mutation sites (degree-tie rank
        # crossings change prune decisions in the true rebuild), so the
        # bounded resweep is free to give up — but whichever path fires,
        # the result must be bit-identical to a rebuild.
        from repro.datasets.synthetic import synthetic_csr_network

        csr, _ = synthetic_csr_network(400, average_degree=6.0, seed=17)
        graph = csr.to_signed_graph()
        index = build_label_index(graph.csr_view(), mode="exact")
        rng = np.random.default_rng(23)
        nodes = graph.nodes()
        changed = 0
        while changed < 6:  # ~0.5% of ~1200 edges
            u, v = (nodes[int(i)] for i in rng.choice(len(nodes), 2, replace=False))
            if graph.has_edge(u, v):
                graph.set_sign(u, v, -graph.sign(u, v))
            else:
                graph.add_edge(u, v, POSITIVE if rng.random() < 0.8 else NEGATIVE)
            changed += 1
        assert graph.affected_nodes_since(index.generation) is None
        refreshed, how = refresh_label_index(index, graph)
        assert how in ("patched", "rebuilt")
        assert refreshed.generation == graph.generation
        assert labels_equal(refreshed, build_label_index(graph.csr_view(), mode="exact"))

    def test_connected_graph_local_removal_sweeps(self):
        # A topology event whose distance impact is confined to the mutation
        # site *does* survive the bounded resweep: removing one leaf edge of a
        # star isolates the leaf, drops it past its degree-tie peers in the
        # hub ranking (exercising the crossing masks), and changes no other
        # contribution — so refresh patches instead of rebuilding.
        graph = SignedGraph()
        for leaf in range(1, 41):
            graph.add_edge(0, leaf, POSITIVE if leaf % 3 else NEGATIVE)
        index = build_label_index(graph.csr_view(), mode="exact")
        graph.remove_edge(0, 20)
        assert graph.affected_nodes_since(index.generation) is None
        refreshed, how = refresh_label_index(index, graph)
        assert how == "patched"
        assert refreshed.generation == graph.generation
        assert labels_equal(refreshed, build_label_index(graph.csr_view(), mode="exact"))
        assert_exact_index_matches_bfs(refreshed, graph.csr_view())

    def test_connected_graph_landmark_topology_churn_rebuilds(self):
        # The re-stamp only covers distance-neutral churn; a topology event
        # in landmark mode has no resweep, so refresh falls back to rebuild.
        from repro.datasets.synthetic import synthetic_csr_network

        csr, _ = synthetic_csr_network(120, average_degree=5.0, seed=3)
        graph = csr.to_signed_graph()
        index = build_label_index(graph.csr_view(), mode="landmark")
        graph.add_edge(graph.nodes()[0], graph.nodes()[50], NEGATIVE)
        refreshed, how = refresh_label_index(index, graph)
        assert how == "rebuilt"
        assert labels_equal(
            refreshed, build_label_index(graph.csr_view(), mode="landmark")
        )

    def test_resweep_handles_removals_and_degree_rank_crossings(self):
        # Edge removals change hub degrees, so dirty hubs cross positions in
        # the degree ranking — the conservative pre-seeded change masks must
        # keep the resweep bit-identical to a rebuild.
        from repro.datasets.synthetic import synthetic_csr_network

        csr, _ = synthetic_csr_network(300, average_degree=5.0, seed=29)
        graph = csr.to_signed_graph()
        index = build_label_index(graph.csr_view(), mode="exact")
        rng = np.random.default_rng(31)
        nodes = graph.nodes()
        removed = 0
        for _ in range(200):
            if removed >= 5:
                break
            u, v = (nodes[int(i)] for i in rng.choice(len(nodes), 2, replace=False))
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
                removed += 1
        graph.add_edge(nodes[0], nodes[150], POSITIVE)
        refreshed, how = refresh_label_index(index, graph)
        assert how in ("patched", "rebuilt")
        assert labels_equal(refreshed, build_label_index(graph.csr_view(), mode="exact"))

    def test_node_set_change_rebuilds(self):
        graph = multi_component_graph(num_cliques=4, clique_size=5)
        index = build_label_index(graph.csr_view())
        graph.add_edge(100, 101, POSITIVE)  # new nodes
        index, how = refresh_label_index(index, graph)
        assert how == "rebuilt"
        assert index.num_nodes == graph.number_of_nodes()

    def test_heavy_churn_rebuilds(self):
        graph = multi_component_graph(num_cliques=4, clique_size=5)
        index = build_label_index(graph.csr_view())
        for step in range(60):  # far past the 5%-of-edges patch budget
            u = step % 20
            graph.add_edge(u, 20 + (step % 19), POSITIVE)
        index, how = refresh_label_index(index, graph)
        assert how == "rebuilt"
        assert labels_equal(index, build_label_index(graph.csr_view()))


# ------------------------------------------------------------------ policy


class TestPolicyKnobs:
    def test_distance_index_validation(self):
        for mode in ("auto", "labels", "bfs"):
            assert ExecutionPolicy(distance_index=mode).distance_index == mode
        with pytest.raises(ValueError, match="distance_index"):
            ExecutionPolicy(distance_index="hub")

    def test_label_budget_validation(self):
        assert ExecutionPolicy(label_budget_bytes=1024).label_budget_bytes == 1024
        with pytest.raises(ValueError, match="label_budget_bytes"):
            ExecutionPolicy(label_budget_bytes=0)
        with pytest.raises(ValueError, match="label_budget_bytes"):
            ExecutionPolicy(label_budget_bytes=True)


# ------------------------------------------------------------------ oracle


def _team_and_candidates(graph):
    nodes = graph.nodes()
    team = nodes[: min(3, len(nodes))]
    return nodes, team


class TestOracleIntegration:
    @pytest.mark.parametrize("relation_name", ["NNE", "SPA"])
    @pytest.mark.parametrize("index_mode", ["labels", "auto"])
    def test_equivalent_to_bfs_oracle_across_churn(self, relation_name, index_mode):
        graph, _ = synthetic_signed_network(
            200, average_degree=4.0, negative_fraction=0.25, seed=21
        )
        reference_graph = graph.copy()
        plain = DistanceOracle(make_relation(relation_name, reference_graph))
        indexed = DistanceOracle(
            make_relation(
                relation_name, graph, policy=ExecutionPolicy(distance_index=index_mode)
            )
        )
        rng = np.random.default_rng(4)
        nodes = graph.nodes()
        for _round in range(3):
            candidates, team = _team_and_candidates(graph)
            assert indexed.batch_distance_to_set(
                candidates, team
            ) == plain.batch_distance_to_set(candidates, team)
            for u in nodes[:10]:
                for v in nodes[:10]:
                    assert indexed.distance(u, v) == plain.distance(u, v)
            for _ in range(5):
                u, v = rng.choice(len(nodes), size=2, replace=False)
                u, v = nodes[u], nodes[v]
                for target in (graph, reference_graph):
                    if target.has_edge(u, v):
                        target.remove_edge(u, v)
                    else:
                        target.add_edge(u, v, POSITIVE)
        if index_mode == "labels":
            stats = indexed.index_stats()
            assert stats is not None
            assert stats["served"] > 0
            assert stats["builds"] >= 1

    def test_auto_defers_below_csr_threshold(self):
        graph, _ = synthetic_signed_network(
            120, average_degree=4.0, negative_fraction=0.2, seed=6
        )
        oracle = DistanceOracle(
            make_relation("NNE", graph, policy=ExecutionPolicy(distance_index="auto"))
        )
        nodes = graph.nodes()
        oracle.batch_distance_to_set(nodes, nodes[:2])
        # 120 nodes is below CSR_AUTO_THRESHOLD: auto must not build anything.
        assert oracle.index_stats() is None

    def test_balanced_relations_never_use_the_index(self, two_factions):
        oracle = DistanceOracle(
            make_relation(
                "SBPH", two_factions, policy=ExecutionPolicy(distance_index="labels")
            )
        )
        nodes = two_factions.nodes()
        oracle.batch_distance_to_set(nodes, nodes[:2])
        assert oracle.index_stats() is None
        with pytest.raises(ValueError, match="balanced"):
            oracle.build_index()

    def test_default_policy_leaves_index_off(self):
        graph, _ = synthetic_signed_network(
            80, average_degree=4.0, negative_fraction=0.2, seed=8
        )
        oracle = DistanceOracle(make_relation("NNE", graph))
        oracle.batch_distance_to_set(graph.nodes(), graph.nodes()[:2])
        assert oracle.index_stats() is None

    def test_explicit_build_and_stale_per_pair_fallback(self):
        graph, _ = synthetic_signed_network(
            100, average_degree=4.0, negative_fraction=0.2, seed=12
        )
        oracle = DistanceOracle(
            make_relation("NNE", graph, policy=ExecutionPolicy(distance_index="labels"))
        )
        index = oracle.build_index()
        assert index.generation == graph.generation
        nodes = graph.nodes()
        assert oracle.distance(nodes[0], nodes[1]) >= 0
        assert oracle.index_stats()["served"] == 1
        # Mutate: the per-pair path must not rebuild, just fall back ...
        if graph.has_edge(nodes[0], nodes[2]):
            graph.remove_edge(nodes[0], nodes[2])
        else:
            graph.add_edge(nodes[0], nodes[2], POSITIVE)
        before = oracle.index_stats()["builds"]
        oracle.distance(nodes[0], nodes[1])
        stats = oracle.index_stats()
        assert stats["builds"] == before
        assert stats["fallbacks"] >= 1
        # ... while sync() delta-refreshes it for the new generation.
        oracle.sync()
        assert oracle.index_stats()["generation"] == graph.generation

    def test_attach_index_round_trip_through_store(self, tmp_path):
        graph, _ = synthetic_signed_network(
            90, average_degree=4.0, negative_fraction=0.2, seed=14
        )
        csr = graph.csr_view()
        path = str(tmp_path / "g.store")
        save_snapshot(csr, path, labels=build_label_index(csr, mode="exact"))
        loaded = load_labels(path)
        assert loaded is not None
        plain = DistanceOracle(make_relation("NNE", graph))
        oracle = DistanceOracle(
            make_relation("NNE", graph, policy=ExecutionPolicy(distance_index="labels"))
        )
        oracle.attach_index(loaded)
        nodes = graph.nodes()
        assert oracle.batch_distance_to_set(
            nodes, nodes[:3]
        ) == plain.batch_distance_to_set(nodes, nodes[:3])
        assert oracle.index_stats()["builds"] == 0

    def test_attach_index_rejects_wrong_graph(self):
        graph, _ = synthetic_signed_network(
            50, average_degree=4.0, negative_fraction=0.2, seed=15
        )
        other, _ = synthetic_signed_network(
            60, average_degree=4.0, negative_fraction=0.2, seed=16
        )
        index = build_label_index(other.csr_view())
        oracle = DistanceOracle(
            make_relation("NNE", graph, policy=ExecutionPolicy(distance_index="labels"))
        )
        with pytest.raises(ValueError, match="covers"):
            oracle.attach_index(index)

    def test_engine_index_stats_passthrough(self):
        from repro.compatibility.engine import CompatibilityEngine

        graph, _ = synthetic_signed_network(
            70, average_degree=4.0, negative_fraction=0.2, seed=18
        )
        relation = make_relation(
            "NNE", graph, policy=ExecutionPolicy(distance_index="labels")
        )
        engine = CompatibilityEngine(relation)
        nodes = graph.nodes()
        engine.distances_to_team_many(nodes[:5], nodes[:2])
        assert engine.index_stats() is not None


# -------------------------------------------------------------- properties


class TestLabelProperties:
    @SLOW_OK
    @given(graph=signed_graphs())
    def test_exact_labels_match_bfs(self, graph):
        csr = graph.csr_view()
        index = build_label_index(csr, mode="exact")
        assert_exact_index_matches_bfs(index, csr)

    @SLOW_OK
    @given(graph=signed_graphs(min_nodes=3))
    def test_landmark_bounds_sound_and_hub_adjacent_pairs_exact(self, graph):
        csr = graph.csr_view()
        index = build_label_index(csr, mode="landmark")
        reference = bfs_matrix(csr)
        n = csr.number_of_nodes()
        ids = np.arange(n, dtype=np.int64)
        landmarks = set(int(l) for l in np.asarray(index.landmark_ids))
        for source in range(n):
            upper, exact = index.batch_bounds_from(source, ids)
            true = reference[source]
            reachable = true != UNREACHABLE
            assert (upper[reachable] >= true[reachable]).all()
            assert (upper[~reachable] == UNREACHABLE).all()
            assert np.array_equal(upper[exact], true[exact])
            # Pairs touching a landmark (hub-adjacent) are always provably
            # exact: the landmark's own BFS row covers them directly.
            if source in landmarks:
                assert bool(exact.all())
            else:
                assert bool(exact[sorted(landmarks)].all())

    @SLOW_OK
    @given(
        graph=signed_graphs(min_nodes=3),
        mutations=st.lists(
            st.tuples(
                st.integers(0, 8), st.integers(0, 8), st.sampled_from([POSITIVE, NEGATIVE])
            ),
            max_size=12,
        ),
        mode=st.sampled_from(["exact", "landmark"]),
    )
    def test_refresh_equals_rebuild_under_arbitrary_interleavings(
        self, graph, mutations, mode
    ):
        index = build_label_index(graph.csr_view(), mode=mode)
        nodes = graph.nodes()
        for u_pick, v_pick, sign in mutations:
            u = nodes[u_pick % len(nodes)]
            v = nodes[v_pick % len(nodes)]
            if u == v:
                continue
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v, sign)
            index, _how = refresh_label_index(index, graph)
            assert labels_equal(index, build_label_index(graph.csr_view(), mode=mode))
