"""Tests for the dataset generators, registry, loaders and statistics."""

from __future__ import annotations

import pytest

from repro.datasets import (
    PAPER_DATASETS,
    SignedDataset,
    available,
    dataset_statistics,
    epinions_like,
    faction_biased_signs,
    figure_1a_graph,
    figure_1b_graph,
    load_dataset,
    load_snap_dataset,
    register_dataset,
    slashdot_like,
    synthetic_signed_network,
    toy_dataset,
    wikipedia_like,
)
from repro.exceptions import DatasetError, UnknownDatasetError
from repro.signed import is_connected
from repro.signed.io import write_edge_list
from repro.skills.io import write_assignment


class TestSyntheticGenerators:
    def test_toy_dataset_structure(self):
        dataset = toy_dataset()
        assert dataset.name == "toy"
        assert dataset.graph.number_of_nodes() == 12
        assert is_connected(dataset.graph)
        assert dataset.skills.number_of_skills() > 0
        assert set(dataset.skills.users()) == set(dataset.graph.nodes())

    def test_slashdot_like_matches_paper_shape(self):
        dataset = slashdot_like(seed=13)
        graph = dataset.graph
        assert 180 <= graph.number_of_nodes() <= 260
        fraction = graph.number_of_negative_edges() / graph.number_of_edges()
        assert 0.25 <= fraction <= 0.33
        assert is_connected(graph)
        assert dataset.skills.number_of_skills() >= 500

    def test_epinions_like_scaled(self):
        dataset = epinions_like(seed=17, scale=0.01)
        graph = dataset.graph
        assert 200 <= graph.number_of_nodes() <= 300
        fraction = graph.number_of_negative_edges() / graph.number_of_edges()
        assert 0.12 <= fraction <= 0.22
        assert dataset.skills.number_of_skills() <= 523

    def test_wikipedia_like_scaled(self):
        dataset = wikipedia_like(seed=19, scale=0.03)
        fraction = (
            dataset.graph.number_of_negative_edges() / dataset.graph.number_of_edges()
        )
        assert 0.16 <= fraction <= 0.27
        assert is_connected(dataset.graph)

    def test_generators_are_deterministic(self):
        assert slashdot_like(seed=5).graph == slashdot_like(seed=5).graph
        assert epinions_like(seed=5, scale=0.01).graph == epinions_like(seed=5, scale=0.01).graph

    def test_different_seeds_differ(self):
        assert slashdot_like(seed=1).graph != slashdot_like(seed=2).graph

    def test_synthetic_signed_network_negative_fraction(self):
        graph, factions = synthetic_signed_network(
            300, average_degree=8.0, negative_fraction=0.25, seed=3
        )
        fraction = graph.number_of_negative_edges() / graph.number_of_edges()
        assert abs(fraction - 0.25) < 0.05
        assert set(factions) == set(graph.nodes())
        assert is_connected(graph)

    def test_faction_biased_signs_exact_count(self):
        edges = [(i, i + 1) for i in range(20)]
        factions = {i: i % 2 for i in range(21)}
        graph = faction_biased_signs(edges, factions, negative_fraction=0.5, seed=1)
        assert graph.number_of_negative_edges() == 10

    def test_faction_biased_signs_bias_toward_cross_edges(self):
        # Edges: 10 intra-faction and 10 cross-faction.
        intra = [(i, i + 100) for i in range(10)]
        cross = [(i + 200, i + 300) for i in range(10)]
        factions = {}
        for i in range(10):
            factions[i] = 0
            factions[i + 100] = 0
            factions[i + 200] = 0
            factions[i + 300] = 1
        graph = faction_biased_signs(
            intra + cross, factions, negative_fraction=0.5, cross_faction_bias=1.0, seed=2
        )
        negative_cross = sum(
            1 for u, v in cross if graph.sign(u, v) == -1
        )
        assert negative_cross == 10  # all negatives land on cross-faction edges

    def test_figure_graphs_shape(self):
        graph_a = figure_1a_graph()
        assert graph_a.number_of_nodes() == 6
        assert graph_a.number_of_edges() == 7
        assert graph_a.number_of_negative_edges() == 3
        graph_b = figure_1b_graph()
        assert graph_b.number_of_nodes() == 7
        assert graph_b.number_of_edges() == 8
        assert graph_b.number_of_negative_edges() == 1


class TestRegistry:
    def test_paper_datasets_registered(self):
        assert set(PAPER_DATASETS) <= set(available())
        assert "toy" in available()

    def test_load_dataset_by_name(self):
        dataset = load_dataset("toy")
        assert isinstance(dataset, SignedDataset)
        assert dataset.name == "toy"

    def test_load_dataset_with_overrides(self):
        dataset = load_dataset("epinions", seed=3, scale=0.01)
        assert 150 <= dataset.graph.number_of_nodes() <= 320

    def test_unknown_dataset_raises(self):
        with pytest.raises(UnknownDatasetError):
            load_dataset("imaginary")

    def test_register_custom_dataset(self):
        register_dataset("custom-test", lambda seed=0, scale=1.0: toy_dataset())
        assert "custom-test" in available()
        assert load_dataset("custom-test").name == "toy"


class TestLoaders:
    def test_load_snap_dataset_with_skill_json(self, tmp_path, toy):
        edges_path = tmp_path / "net.edges"
        skills_path = tmp_path / "skills.json"
        write_edge_list(toy.graph, edges_path)
        write_assignment(toy.skills, skills_path)
        dataset = load_snap_dataset("custom", edges_path, skills_path)
        assert dataset.name == "custom"
        assert dataset.graph.number_of_edges() == toy.graph.number_of_edges()
        assert dataset.skills.skills_of("ana") == frozenset({"python", "statistics"})

    def test_load_snap_dataset_synthetic_skills(self, tmp_path, toy):
        edges_path = tmp_path / "net.edges"
        write_edge_list(toy.graph, edges_path)
        dataset = load_snap_dataset("no-skills", edges_path, num_synthetic_skills=10, seed=1)
        assert dataset.skills.number_of_skills() <= 10
        assert all(dataset.skills.skills_of(node) for node in dataset.graph.nodes())

    def test_load_snap_dataset_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_snap_dataset("missing", tmp_path / "absent.edges")

    def test_load_snap_dataset_restricts_to_lcc(self, tmp_path):
        edges_path = tmp_path / "net.edges"
        edges_path.write_text("0 1 1\n1 2 -1\n10 11 1\n")
        dataset = load_snap_dataset("lcc", edges_path, num_synthetic_skills=5)
        assert set(dataset.graph.nodes()) == {0, 1, 2}


class TestLoaderCacheStats:
    @pytest.fixture(autouse=True)
    def _isolated_counters(self):
        from repro.datasets import reset_cache_stats

        reset_cache_stats()
        yield
        reset_cache_stats()

    def test_hit_miss_reparse_counters(self, tmp_path, toy):
        from repro.datasets import cache_stats

        edges_path = tmp_path / "net.edges"
        write_edge_list(toy.graph, edges_path)
        cache_dir = tmp_path / "cache"
        kwargs = dict(snapshot_cache_dir=cache_dir, num_synthetic_skills=5, seed=1)

        load_snap_dataset("c", edges_path, **kwargs)
        assert cache_stats() == {"hits": 0, "misses": 1, "reparses": 0}
        load_snap_dataset("c", edges_path, **kwargs)
        assert cache_stats() == {"hits": 1, "misses": 1, "reparses": 0}

        # Corrupting the entry forces a reparse (counted as a miss too) that
        # rewrites the cache; the next load hits again.
        entry = next(cache_dir.glob("parse-*.store"))
        entry.write_bytes(b"garbage")
        load_snap_dataset("c", edges_path, **kwargs)
        assert cache_stats() == {"hits": 1, "misses": 2, "reparses": 1}
        load_snap_dataset("c", edges_path, **kwargs)
        assert cache_stats() == {"hits": 2, "misses": 2, "reparses": 1}

    def test_disabled_cache_counts_misses(self, tmp_path, toy):
        from repro.datasets import cache_stats

        edges_path = tmp_path / "net.edges"
        write_edge_list(toy.graph, edges_path)
        load_snap_dataset("c", edges_path, num_synthetic_skills=5)
        load_snap_dataset("c", edges_path, num_synthetic_skills=5)
        stats = cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_cache_stats_returns_a_copy(self):
        from repro.datasets import cache_stats

        snapshot = cache_stats()
        snapshot["hits"] = 999
        assert cache_stats()["hits"] == 0

    def test_debug_logging_names_the_cache_file(self, tmp_path, toy, caplog):
        import logging

        edges_path = tmp_path / "net.edges"
        write_edge_list(toy.graph, edges_path)
        with caplog.at_level(logging.DEBUG, logger="repro.datasets.loaders"):
            load_snap_dataset(
                "c", edges_path, snapshot_cache_dir=tmp_path / "cache",
                num_synthetic_skills=5,
            )
        assert any("snapshot cache miss" in record.message for record in caplog.records)


class TestDatasetStatistics:
    def test_statistics_row_shape(self, toy):
        stats = dataset_statistics(toy)
        row = stats.as_row()
        assert row[0] == "toy"
        assert row[1] == toy.graph.number_of_nodes()
        assert "(" in row[3]  # negative edges rendered with a percentage

    def test_statistics_values(self, toy):
        stats = dataset_statistics(toy)
        assert stats.num_edges == toy.graph.number_of_edges()
        assert stats.num_negative_edges == toy.graph.number_of_negative_edges()
        assert stats.diameter is not None
        assert stats.num_skills == toy.skills.number_of_skills()
