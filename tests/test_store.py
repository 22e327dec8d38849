"""Tests for the snapshot store (:mod:`repro.signed.store`), the bitset
helpers, the word-parallel BFS kernels and the loader parse-once cache.

The load-bearing guarantee mirrors the execution layer's: a snapshot written
to disk and mapped back must be *bit-identical* to the in-memory index it was
built from — same dtypes, same values, same node order, same generation — so
every consumer (pool workers, the loader cache, the CLI) can treat the file
as the snapshot itself rather than a lossy export of it.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import synthetic_signed_network
from repro.signed import NEGATIVE, POSITIVE, SignedGraph
from repro.utils.bitset import (
    WORD_BITS,
    mask_nbytes,
    pack_mask,
    popcount,
    source_bits,
    set_bit_positions,
    unpack_mask,
    words_for,
)

np = pytest.importorskip("numpy")

from repro.signed.csr import (  # noqa: E402  (needs numpy)
    UNREACHABLE,
    CSRSignedGraph,
    multi_source_signed_bfs,
    shortest_path_lengths_dense_batch,
    shortest_path_lengths_dense_batch_into,
    signed_bfs_csr,
    signed_bfs_dense_batch,
    signed_bfs_dense_batch_into,
)
from repro.signed.store import (  # noqa: E402
    MAGIC,
    NODE_TABLE_PICKLE,
    NODE_TABLE_RANGE,
    VERSION,
    _HEADER,
    _TEMP_LEDGER,
    load_snapshot,
    save_snapshot,
    snapshot_info,
)


# --------------------------------------------------------------------- helpers


@st.composite
def random_signed_graphs(draw, min_nodes=1, max_nodes=12, int_nodes=True):
    """Small random signed graphs, with int or string node labels."""
    num_nodes = draw(st.integers(min_nodes, max_nodes))
    if int_nodes:
        nodes = list(range(num_nodes))
    else:
        nodes = [f"user-{i}" for i in range(num_nodes)]
    graph = SignedGraph()
    for node in nodes:
        graph.add_node(node)
    pairs = [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
    ) if pairs else []
    signs = draw(
        st.lists(
            st.sampled_from([POSITIVE, NEGATIVE]),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    for (i, j), sign in zip(chosen, signs):
        graph.add_edge(nodes[i], nodes[j], sign)
    return graph


def assert_snapshots_identical(left: CSRSignedGraph, right: CSRSignedGraph):
    """Planes, dtypes, node order and generation all equal."""
    for name in ("indptr", "indices", "signs"):
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype
        assert np.array_equal(np.asarray(a), np.asarray(b))
    assert list(left._nodes) == list(right._nodes)
    assert left.generation == right.generation


# ---------------------------------------------------------------------- bitset


class TestBitset:
    @given(st.lists(st.booleans(), max_size=200))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_pack_unpack_roundtrip(self, bits):
        mask = np.array(bits, dtype=bool)
        packed = pack_mask(mask)
        assert len(packed) == mask_nbytes(len(bits))
        restored = unpack_mask(packed, len(bits))
        assert restored.dtype == np.bool_
        assert np.array_equal(restored, mask)
        assert popcount(packed) == int(mask.sum())

    def test_size_helpers(self):
        assert mask_nbytes(0) == 0
        assert mask_nbytes(1) == 1
        assert mask_nbytes(8) == 1
        assert mask_nbytes(9) == 2
        assert words_for(0) == 0
        assert words_for(64) == 1
        assert words_for(65) == 2

    def test_source_bits_and_positions(self):
        bits = source_bits(5)
        assert bits.dtype == np.uint64
        assert [int(b) for b in bits] == [1, 2, 4, 8, 16]
        word = int(bits[0] | bits[2] | bits[4])
        assert set_bit_positions(word) == [0, 2, 4]
        assert set_bit_positions(0) == []
        # The sign bit (position 63) must survive the Python-int round trip.
        assert set_bit_positions(1 << 63) == [63]
        with pytest.raises(ValueError):
            source_bits(WORD_BITS + 1)


# ---------------------------------------------------------------- store format


class TestStoreRoundtrip:
    @given(graph=random_signed_graphs())
    @settings(
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_int_node_roundtrip(self, graph, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("store") / "g.store")
        csr = CSRSignedGraph.from_signed_graph(graph)
        save_snapshot(csr, path)
        assert_snapshots_identical(csr, load_snapshot(path, mmap=True))
        assert_snapshots_identical(csr, load_snapshot(path, mmap=False))

    @given(graph=random_signed_graphs(int_nodes=False))
    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_string_node_roundtrip(self, graph, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("store") / "g.store")
        csr = CSRSignedGraph.from_signed_graph(graph)
        save_snapshot(csr, path)
        loaded = load_snapshot(path, mmap=True)
        assert_snapshots_identical(csr, loaded)
        # The rebuilt index answers the same lookups as the original's.
        for node in graph.nodes():
            assert loaded.index_of(node) == csr.index_of(node)

    def test_synthetic_graph_roundtrip_and_node_table_kinds(self, tmp_path):
        graph, _ = synthetic_signed_network(
            300, average_degree=5.0, negative_fraction=0.3, seed=11
        )
        csr = graph.csr_view()
        path = str(tmp_path / "synthetic.store")
        save_snapshot(csr, path)
        info = snapshot_info(path)
        # Synthetic graphs have dense int nodes: zero-byte range table.
        assert info["node_table_kind"] == "range"
        assert info["node_table_nbytes"] == 0
        assert info["num_nodes"] == 300
        assert info["file_nbytes"] == info["expected_nbytes"]
        assert_snapshots_identical(csr, load_snapshot(path))
        assert_snapshots_identical(csr, CSRSignedGraph.load(path))
        # save() is the method spelling of save_snapshot().
        other = str(tmp_path / "method.store")
        csr.save(other)
        assert Path(other).read_bytes() == Path(path).read_bytes()

    def test_node_table_skipped_for_worker_attach(self, tmp_path):
        graph = SignedGraph.from_edges([("a", "b", +1), ("b", "c", -1)])
        csr = CSRSignedGraph.from_signed_graph(graph)
        path = str(tmp_path / "g.store")
        save_snapshot(csr, path)
        assert snapshot_info(path)["node_table_kind"] == "pickle"
        attached = load_snapshot(path, node_table=False)
        # Placeholders: flat arrays intact, dense ids in place of nodes.
        assert attached._nodes == [0, 1, 2]
        assert np.array_equal(
            np.asarray(attached.indices), np.asarray(csr.indices)
        )

    def test_generation_survives(self, tmp_path):
        graph = SignedGraph.from_edges([(0, 1, +1)])
        graph.add_edge(1, 2, -1)
        csr = graph.csr_view()
        assert csr.generation > 0
        path = str(tmp_path / "g.store")
        save_snapshot(csr, path)
        assert load_snapshot(path).generation == csr.generation
        assert snapshot_info(path)["generation"] == csr.generation

    def test_mmap_views_are_readonly_and_file_deletable(self, tmp_path):
        graph, _ = synthetic_signed_network(50, average_degree=4.0, negative_fraction=0.2, seed=5)
        path = str(tmp_path / "g.store")
        save_snapshot(graph.csr_view(), path)
        mapped = load_snapshot(path, mmap=True)
        with pytest.raises(ValueError):
            np.asarray(mapped.indices)[0] = 0
        copied = load_snapshot(path, mmap=False)
        os.unlink(path)
        # The copied arrays do not depend on the file; the mapped ones keep
        # the unlinked inode alive (POSIX) so both stay readable.
        assert np.array_equal(np.asarray(copied.indices), np.asarray(mapped.indices))

    def test_to_signed_graph_reparse_is_bit_identical(self, tmp_path):
        """load → to_signed_graph → from_signed_graph reproduces the planes
        exactly (the loader cache depends on this for node-order-sensitive
        downstream results like Zipf skill assignment)."""
        graph, _ = synthetic_signed_network(
            200, average_degree=5.0, negative_fraction=0.25, seed=23
        )
        csr = CSRSignedGraph.from_signed_graph(graph)
        path = str(tmp_path / "g.store")
        save_snapshot(csr, path)
        rebuilt = load_snapshot(path).to_signed_graph()
        assert list(rebuilt.nodes()) == list(graph.nodes())
        assert rebuilt.number_of_edges() == graph.number_of_edges()
        assert rebuilt.number_of_positive_edges() == graph.number_of_positive_edges()
        # The rebuilt graph starts a fresh mutation history (generation 0),
        # but its planes reproduce the original's bit for bit.
        reindexed = CSRSignedGraph.from_signed_graph(rebuilt)
        for name in ("indptr", "indices", "signs"):
            assert np.array_equal(
                np.asarray(getattr(csr, name)), np.asarray(getattr(reindexed, name))
            )
        assert list(reindexed._nodes) == list(csr._nodes)


class TestStoreDiagnostics:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_snapshot(str(tmp_path / "nope.store"))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.store"
        path.write_bytes(b"NOTASTORE" + b"\0" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            load_snapshot(str(path))
        with pytest.raises(ValueError, match="bad magic"):
            snapshot_info(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.store"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(ValueError, match="truncated header"):
            load_snapshot(str(path))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "future.store"
        path.write_bytes(
            _HEADER.pack(MAGIC, VERSION + 1, NODE_TABLE_RANGE, 0, 0, 0, 0)
        )
        with pytest.raises(ValueError, match=f"version {VERSION + 1}"):
            load_snapshot(str(path))

    def test_unknown_node_table_kind(self, tmp_path):
        path = tmp_path / "kind.store"
        path.write_bytes(_HEADER.pack(MAGIC, VERSION, 7, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="unknown node-table kind"):
            load_snapshot(str(path))

    def test_negative_plane_size(self, tmp_path):
        path = tmp_path / "negative.store"
        path.write_bytes(
            _HEADER.pack(MAGIC, VERSION, NODE_TABLE_RANGE, -1, 0, 0, 0)
        )
        with pytest.raises(ValueError, match="negative plane size"):
            load_snapshot(str(path))

    def test_truncated_planes(self, tmp_path):
        graph, _ = synthetic_signed_network(40, average_degree=4.0, negative_fraction=0.2, seed=3)
        path = str(tmp_path / "g.store")
        save_snapshot(graph.csr_view(), path)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_snapshot(path)

    def test_int64_header_fields_round_trip(self, tmp_path):
        """Counts beyond int32 fit the header (the i8 fields are what lets a
        billion-edge snapshot describe itself); the load then fails on size,
        not on a silently wrapped count."""
        path = tmp_path / "huge.store"
        huge = 2**40
        path.write_bytes(
            _HEADER.pack(MAGIC, VERSION, NODE_TABLE_RANGE, huge, huge, 0, 0)
        )
        with pytest.raises(ValueError, match="truncated"):
            load_snapshot(str(path))
        # snapshot_info reads the header only, so it reports the layout.
        info = snapshot_info(str(path))
        assert info["num_nodes"] == huge
        assert info["expected_nbytes"] > huge * 8

    def test_save_failure_cleans_temp_and_ledger(self, tmp_path, monkeypatch):
        graph, _ = synthetic_signed_network(30, average_degree=3.0, negative_fraction=0.2, seed=2)
        path = str(tmp_path / "g.store")

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="disk full"):
            save_snapshot(graph.csr_view(), path)
        assert not os.path.exists(path)
        assert not _TEMP_LEDGER
        assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []

    def test_save_is_atomic_over_existing_file(self, tmp_path, monkeypatch):
        graph, _ = synthetic_signed_network(30, average_degree=3.0, negative_fraction=0.2, seed=2)
        path = str(tmp_path / "g.store")
        save_snapshot(graph.csr_view(), path)
        before = Path(path).read_bytes()
        monkeypatch.setattr(os, "fsync", lambda fd: (_ for _ in ()).throw(OSError()))
        with pytest.raises(OSError):
            save_snapshot(graph.csr_view(), path)
        # The failed rewrite left the original file untouched.
        assert Path(path).read_bytes() == before

    def test_numpy_free_save_load_raise_clear_importerror(self, tmp_path, monkeypatch):
        import repro.utils.optional as optional

        graph, _ = synthetic_signed_network(20, average_degree=3.0, negative_fraction=0.2, seed=1)
        path = str(tmp_path / "g.store")
        save_snapshot(graph.csr_view(), path)
        monkeypatch.setattr(optional, "_NUMPY_AVAILABLE", False)
        with pytest.raises(ImportError, match="snapshot store requires numpy"):
            load_snapshot(path)
        with pytest.raises(ImportError, match="snapshot store requires numpy"):
            save_snapshot(graph.csr_view(), str(tmp_path / "other.store"))
        # The header-only inspection stays available without numpy.
        assert snapshot_info(path)["num_nodes"] == 20


# ------------------------------------------------------------- label section


class TestStoreLabels:
    """The optional trailing label section: round-trip, compat, diagnostics."""

    @staticmethod
    def _graph(seed=31):
        graph, _ = synthetic_signed_network(
            120, average_degree=4.0, negative_fraction=0.25, seed=seed
        )
        return graph

    @pytest.mark.parametrize("mode", ["exact", "landmark"])
    @pytest.mark.parametrize("mmap", [True, False])
    def test_label_round_trip(self, tmp_path, mode, mmap):
        from repro.signed.labels import build_label_index, labels_equal
        from repro.signed.store import load_labels

        csr = self._graph().csr_view()
        index = build_label_index(csr, mode=mode)
        path = str(tmp_path / "g.store")
        save_snapshot(csr, path, labels=index)
        info = snapshot_info(path)
        assert info["version"] == VERSION
        assert info["labels"]["mode"] == mode
        assert info["labels"]["generation"] == csr.generation
        assert info["file_nbytes"] == info["expected_nbytes"]
        # The base snapshot loads exactly as if no labels were present.
        assert_snapshots_identical(csr, load_snapshot(path, mmap=mmap))
        loaded = load_labels(path, mmap=mmap)
        assert labels_equal(index, loaded)
        assert loaded.generation == csr.generation

    def test_label_planes_reported_by_info(self, tmp_path):
        from repro.signed.labels import build_label_index

        csr = self._graph().csr_view()
        path = str(tmp_path / "g.store")
        save_snapshot(csr, path, labels=build_label_index(csr, mode="exact"))
        planes = snapshot_info(path)["planes"]
        for name in ("label_indptr", "label_hubs", "label_dists", "hub_order"):
            assert name in planes
            assert planes[name]["offset"] % 8 == 0

    def test_label_free_file_has_no_section(self, tmp_path):
        from repro.signed.store import load_labels

        csr = self._graph().csr_view()
        path = str(tmp_path / "g.store")
        save_snapshot(csr, path)
        assert snapshot_info(path)["labels"] is None
        assert load_labels(path) is None

    def test_version1_file_still_loads(self, tmp_path):
        """A v2 file without labels patched to version 1 reads unchanged —
        exactly the bytes an old library version wrote."""
        from repro.signed.store import load_labels

        csr = self._graph().csr_view()
        path = str(tmp_path / "g.store")
        save_snapshot(csr, path)
        data = bytearray(Path(path).read_bytes())
        fields = list(_HEADER.unpack_from(data))
        assert fields[1] == VERSION
        fields[1] = 1
        data[: _HEADER.size] = _HEADER.pack(*fields)
        Path(path).write_bytes(bytes(data))
        assert snapshot_info(path)["version"] == 1
        assert snapshot_info(path)["labels"] is None
        assert load_labels(path) is None
        assert_snapshots_identical(csr, load_snapshot(path))

    def test_save_rejects_mismatched_labels(self, tmp_path):
        from repro.signed.labels import build_label_index

        graph = self._graph()
        csr = graph.csr_view()
        index = build_label_index(csr)
        path = str(tmp_path / "g.store")
        # Stale generation: the index no longer describes the snapshot.
        graph.add_edge(0, 118, POSITIVE)
        with pytest.raises(ValueError, match="generation"):
            save_snapshot(graph.csr_view(), path, labels=index)
        # Wrong graph entirely.
        other, _ = synthetic_signed_network(
            60, average_degree=4.0, negative_fraction=0.2, seed=77
        )
        with pytest.raises(ValueError, match="nodes"):
            save_snapshot(other.csr_view(), path, labels=index)

    def test_corrupt_label_section_rejected(self, tmp_path):
        from repro.signed.store import load_labels

        csr = self._graph().csr_view()
        path = str(tmp_path / "g.store")
        save_snapshot(csr, path)
        with open(path, "ab") as handle:
            handle.write(b"\x00" * 24)  # trailing garbage, not a label header
        with pytest.raises(ValueError, match="label"):
            load_labels(path)
        with pytest.raises(ValueError, match="label"):
            snapshot_info(path)


# ------------------------------------------------------------- word parallel


@pytest.fixture(scope="module")
def wp_graph():
    graph, _ = synthetic_signed_network(
        400, average_degree=5.0, negative_fraction=0.3, seed=41
    )
    return graph.csr_view()


class TestWordParallelKernels:
    """Forced word-parallel runs must be bit-identical to the per-source
    reference, across chunk boundaries (more than 64 sources)."""

    SOURCES = 150  # three word chunks: 64 + 64 + 22

    def test_signed_bfs_batch_identical(self, wp_graph):
        sources = list(range(self.SOURCES))
        fast = signed_bfs_dense_batch(wp_graph, sources, wordparallel=True)
        slow = signed_bfs_dense_batch(wp_graph, sources, wordparallel=False)
        assert len(fast) == len(slow) == self.SOURCES
        for f, s in zip(fast, slow):
            for a, b in zip(f, s):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_signed_bfs_into_identical(self, wp_graph):
        sources = list(range(self.SOURCES))
        n = wp_graph.number_of_nodes()

        def run(flag):
            lengths = np.empty((self.SOURCES, n), dtype=np.int32)
            positive = np.empty((self.SOURCES, n), dtype=np.int64)
            negative = np.empty((self.SOURCES, n), dtype=np.int64)
            tokens = signed_bfs_dense_batch_into(
                wp_graph, sources, lengths, positive, negative, wordparallel=flag
            )
            return tokens, lengths, positive, negative

        tokens_fast, *fast = run(True)
        tokens_slow, *slow = run(False)
        assert tokens_fast == tokens_slow
        for a, b in zip(fast, slow):
            assert np.array_equal(a, b)

    def test_path_lengths_batch_identical(self, wp_graph):
        sources = list(range(self.SOURCES))
        fast = shortest_path_lengths_dense_batch(wp_graph, sources, wordparallel=True)
        slow = shortest_path_lengths_dense_batch(wp_graph, sources, wordparallel=False)
        for a, b in zip(fast, slow):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_path_lengths_into_identical(self, wp_graph):
        sources = list(range(self.SOURCES))
        n = wp_graph.number_of_nodes()
        fast = np.empty((self.SOURCES, n), dtype=np.int32)
        slow = np.empty((self.SOURCES, n), dtype=np.int32)
        shortest_path_lengths_dense_batch_into(
            wp_graph, sources, fast, wordparallel=True
        )
        shortest_path_lengths_dense_batch_into(
            wp_graph, sources, slow, wordparallel=False
        )
        assert np.array_equal(fast, slow)

    def test_noncontiguous_output_rows(self, wp_graph):
        """Word-parallel writes go row-by-row, so strided output views (an
        arena whose row block belongs to a larger allocation) work too."""
        sources = list(range(70))
        n = wp_graph.number_of_nodes()
        backing = np.empty((140, n), dtype=np.int32)
        view = backing[::2]
        shortest_path_lengths_dense_batch_into(
            wp_graph, sources, view, wordparallel=True
        )
        dense = np.empty((70, n), dtype=np.int32)
        shortest_path_lengths_dense_batch_into(
            wp_graph, sources, dense, wordparallel=False
        )
        assert np.array_equal(view, dense)

    def test_disconnected_sources_unreachable_marker(self):
        graph = SignedGraph.from_edges([(0, 1, +1), (2, 3, -1)])
        for node in range(4, 70):
            graph.add_node(node)
        csr = graph.csr_view()
        sources = list(range(csr.number_of_nodes()))
        fast = shortest_path_lengths_dense_batch(csr, sources, wordparallel=True)
        slow = shortest_path_lengths_dense_batch(csr, sources, wordparallel=False)
        for a, b in zip(fast, slow):
            assert np.array_equal(a, b)
        assert fast[0][2] == UNREACHABLE

    def test_adaptive_heuristic_engages_above_threshold(self, wp_graph, monkeypatch):
        """One rule picks the strategy, per 64-source word and whatever the
        graph size: word-parallel iff the word holds at least
        WORDPARALLEL_MIN_SOURCES sources."""
        import repro.signed.csr as csr_module
        from repro.signed.csr import WORDPARALLEL_MIN_SOURCES

        sources = list(range(100))
        for batch, core in (
            (shortest_path_lengths_dense_batch, "_wordparallel_path_lengths_into"),
            (signed_bfs_dense_batch, "_wordparallel_signed_bfs_into"),
        ):
            calls = []
            original = getattr(csr_module, core)

            def recording(csr, chunk, *out, original=original, calls=calls):
                calls.append(len(chunk))
                return original(csr, chunk, *out)

            monkeypatch.setattr(csr_module, core, recording)
            batch(wp_graph, sources)
            assert calls == [64, 36]
            calls.clear()
            batch(wp_graph, sources[:WORDPARALLEL_MIN_SOURCES])
            assert calls == [WORDPARALLEL_MIN_SOURCES]
            calls.clear()
            # Below the crossover, alone or as the tail word: per-source.
            batch(wp_graph, sources[: WORDPARALLEL_MIN_SOURCES - 1])
            assert calls == []
            batch(wp_graph, sources[: 64 + WORDPARALLEL_MIN_SOURCES - 1])
            assert calls == [64]
            calls.clear()
            # The wordparallel= pin overrides the rule both ways.
            batch(wp_graph, sources, wordparallel=False)
            assert calls == []
            batch(wp_graph, sources[:1], wordparallel=True)
            assert calls == [1]

    @staticmethod
    def _doubling_ladder():
        """A 66-layer ladder whose shortest-path counts double per layer, so
        they pass int64 after 63 layers; returns the snapshot and the three
        sources the overflow tests start from."""
        edges = []
        previous = ["s"]
        for layer in range(66):
            current = [(layer, 0), (layer, 1)]
            for node in current:
                for parent in previous:
                    edges.append((parent, node, +1))
            previous = current
        csr = SignedGraph.from_edges(edges).csr_view()
        return csr, [csr.index_of("s"), csr.index_of((0, 0)), csr.index_of((65, 0))]

    def test_overflow_falls_back_per_source(self):
        """A doubling ladder pushes shortest-path counts past int64 inside
        the word-parallel kernel; the chunk must re-run per source and land
        on the identical skip/raise behaviour as the reference."""
        csr, sources = self._doubling_ladder()
        with pytest.raises(OverflowError):
            signed_bfs_dense_batch(csr, sources, wordparallel=True)
        fast = signed_bfs_dense_batch(
            csr, sources, wordparallel=True, skip_overflow=True
        )
        slow = signed_bfs_dense_batch(
            csr, sources, wordparallel=False, skip_overflow=True
        )
        assert [r is None for r in fast] == [r is None for r in slow]
        for f, s in zip(fast, slow):
            if f is None:
                continue
            for a, b in zip(f, s):
                assert np.array_equal(a, b)

    def test_overflow_guard_bound_and_messages(self):
        """Both signed cores stop at the same int64 bound, each with its own
        message, and the ``_into`` form marks exactly the overflowing rows."""
        import repro.signed.csr as csr_module

        csr, sources = self._doubling_ladder()
        # From the middle layer no path is longer than 34 edges: no overflow.
        sources.append(csr.index_of((33, 0)))
        n = csr.number_of_nodes()
        bound = (2**63 - 1) // int(csr.degrees().max())
        buffers = [np.empty((4, n), dtype=dtype) for dtype in (np.int32, np.int64, np.int64)]
        with pytest.raises(OverflowError, match=rf"\({bound}\) at BFS depth \d+; use the dict"):
            csr_module._signed_bfs_arrays_into(csr, sources[0], *(b[0] for b in buffers))
        with pytest.raises(
            OverflowError, match=rf"\({bound}\) at BFS depth \d+ in a word-parallel"
        ):
            csr_module._wordparallel_signed_bfs_into(csr, sources[:3], *buffers)
        allocated = signed_bfs_dense_batch(csr, sources, skip_overflow=True)
        tokens = signed_bfs_dense_batch_into(csr, sources, *buffers, skip_overflow=True)
        assert tokens == [None if triple is None else True for triple in allocated]
        assert tokens[3] is True
        assert np.array_equal(buffers[1][3], allocated[3][1])

    def test_multi_source_wrapper_unaffected(self, wp_graph):
        """The node-keyed wrapper sits above the dense batch and must agree
        with the per-node reference regardless of the kernel choice."""
        nodes = [wp_graph._nodes[i] for i in range(20)]
        results = multi_source_signed_bfs(wp_graph, nodes)
        assert len(results) == len(nodes)
        for node, result in zip(nodes, results):
            reference = signed_bfs_csr(wp_graph, node)
            assert np.array_equal(result.lengths_array, reference.lengths_array)
            assert np.array_equal(result.positive_array, reference.positive_array)


# ----------------------------------------------------------------- loader cache


class TestLoaderCache:
    @pytest.fixture()
    def edge_file(self, tmp_path):
        import random

        rng = random.Random(77)
        lines = ["# synthetic edge list"]
        for _ in range(600):
            u, v = rng.randrange(120), rng.randrange(120)
            if u != v:
                lines.append(f"{u}\t{v}\t{rng.choice(['1', '-1'])}")
        path = tmp_path / "edges.txt"
        path.write_text("\n".join(lines))
        return path

    @staticmethod
    def _signature(dataset):
        graph = dataset.graph
        return (
            list(graph.nodes()),
            sorted((min(e.u, e.v), max(e.u, e.v), e.sign) for e in graph.edges()),
            {u: sorted(map(str, dataset.skills.skills_of(u))) for u in graph.nodes()},
        )

    def test_hit_is_bit_identical_to_cold_parse(self, edge_file, tmp_path):
        from repro.datasets.loaders import load_snap_dataset

        cache = tmp_path / "cache"
        cold = load_snap_dataset("t", edge_file, seed=9)
        miss = load_snap_dataset("t", edge_file, seed=9, snapshot_cache_dir=cache)
        assert len(list(cache.glob("parse-*.store"))) == 1
        hit = load_snap_dataset("t", edge_file, seed=9, snapshot_cache_dir=cache)
        assert (
            self._signature(cold) == self._signature(miss) == self._signature(hit)
        )

    def test_source_edit_invalidates(self, edge_file, tmp_path):
        from repro.datasets.loaders import load_snap_dataset

        cache = tmp_path / "cache"
        load_snap_dataset("t", edge_file, snapshot_cache_dir=cache)
        stat = edge_file.stat()
        edge_file.write_text(edge_file.read_text() + "\n0\t1\t1")
        os.utime(
            edge_file, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000)
        )
        load_snap_dataset("t", edge_file, snapshot_cache_dir=cache)
        assert len(list(cache.glob("parse-*.store"))) == 2

    def test_parse_options_key_separate_entries(self, edge_file, tmp_path):
        from repro.datasets.loaders import load_snap_dataset

        cache = tmp_path / "cache"
        full = load_snap_dataset(
            "t", edge_file, snapshot_cache_dir=cache, restrict_to_lcc=False
        )
        lcc = load_snap_dataset(
            "t", edge_file, snapshot_cache_dir=cache, restrict_to_lcc=True
        )
        assert len(list(cache.glob("parse-*.store"))) == 2
        assert full.graph.number_of_nodes() >= lcc.graph.number_of_nodes()

    def test_skill_parameters_share_one_entry(self, edge_file, tmp_path):
        from repro.datasets.loaders import load_snap_dataset

        cache = tmp_path / "cache"
        load_snap_dataset("t", edge_file, seed=1, snapshot_cache_dir=cache)
        load_snap_dataset(
            "t", edge_file, seed=2, num_synthetic_skills=50, snapshot_cache_dir=cache
        )
        assert len(list(cache.glob("parse-*.store"))) == 1

    def test_env_var_enables_cache(self, edge_file, tmp_path, monkeypatch):
        from repro.datasets.loaders import SNAPSHOT_CACHE_ENV, load_snap_dataset

        cache = tmp_path / "envcache"
        monkeypatch.setenv(SNAPSHOT_CACHE_ENV, str(cache))
        first = load_snap_dataset("t", edge_file, seed=4)
        assert len(list(cache.glob("parse-*.store"))) == 1
        second = load_snap_dataset("t", edge_file, seed=4)
        assert self._signature(first) == self._signature(second)

    def test_corrupt_entry_falls_back_to_parse(self, edge_file, tmp_path):
        from repro.datasets.loaders import load_snap_dataset

        cache = tmp_path / "cache"
        cold = load_snap_dataset("t", edge_file, seed=6)
        load_snap_dataset("t", edge_file, seed=6, snapshot_cache_dir=cache)
        (entry,) = cache.glob("parse-*.store")
        entry.write_bytes(b"garbage")
        recovered = load_snap_dataset(
            "t", edge_file, seed=6, snapshot_cache_dir=cache
        )
        assert self._signature(cold) == self._signature(recovered)
        # The bad entry was rewritten as a valid store file.
        assert snapshot_info(str(entry))["num_nodes"] > 0

    def test_no_cache_dir_means_no_files(self, edge_file, tmp_path, monkeypatch):
        from repro.datasets.loaders import SNAPSHOT_CACHE_ENV, load_snap_dataset

        monkeypatch.delenv(SNAPSHOT_CACHE_ENV, raising=False)
        load_snap_dataset("t", edge_file)
        assert list(tmp_path.glob("**/*.store")) == []
