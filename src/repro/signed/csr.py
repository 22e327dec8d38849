"""Indexed CSR backend for signed graphs and batched array-based BFS.

The dict-of-dicts :class:`~repro.signed.graph.SignedGraph` is ideal for
incremental construction and O(1) single-edge queries, but every per-source
algorithm pays Python-interpreter cost per visited edge.  This module provides
the indexed counterpart used on large graphs:

* :class:`CSRSignedGraph` — an immutable snapshot that maps arbitrary hashable
  node ids to dense integers and stores adjacency as three flat arrays
  (``indptr`` offsets, ``indices`` neighbours, ``signs`` labels) — the classic
  compressed-sparse-row layout;
* :func:`signed_bfs_csr` — Algorithm 1 (positive/negative shortest-path
  counting) as a level-synchronous vectorised BFS over the flat arrays;
* :func:`shortest_path_lengths_csr` / :func:`shortest_signed_walk_lengths_csr`
  — array versions of the other two single-source primitives;
* :func:`multi_source_signed_bfs` — **batched** Algorithm 1 over one shared
  index.  Sources run in words of 64: a word with at least
  :data:`WORDPARALLEL_MIN_SOURCES` sources advances all its traversals through
  one adjacency gather per BFS level (bit-packed ``uint64`` frontiers), a
  smaller one runs per-source traversals;
* :func:`multi_source_shortest_path_lengths_csr` — the batched counterpart for
  sign-agnostic distances, used by the distance oracle's team sweeps;
* :func:`balanced_heuristic_search_csr` — the SBPH prefix-property search as an
  indexed (node, sign)-state BFS: candidate generation and visited-state
  filtering are vectorised over the whole frontier, and only candidates that
  can actually claim a new state run the per-path balance check in Python.
  Bit-identical to :meth:`~repro.signed.paths.BalancedPathSearch.search_heuristic`.

Results come back as :class:`CSRSignedBFSResult`, an array-backed object that
answers the same ``length`` / ``counts`` / ``reachable`` queries as
:class:`~repro.signed.paths.SignedBFSResult` and can be converted to it
exactly (:meth:`CSRSignedBFSResult.to_signed_bfs_result`), so callers can
switch backends without changing semantics.  Path counts are held in ``int64``
— exact up to 2**63-1, which covers every graph in this repository; graphs
engineered to have astronomically many shortest paths (e.g. large grids) need
the dict backend's arbitrary-precision integers.

Everything here is deterministic: the dense ids follow the insertion order of
the source graph, and the BFS visits neighbours in adjacency order, so the
outputs are bit-identical to the dict implementations (the equivalence tests
in ``tests/test_csr.py`` enforce this).

The level-synchronous traversal pays a fixed cost of ~20 array operations per
BFS level, so it targets the low-diameter graphs this library is about
(social networks, diameter < 20); on path-like graphs with diameter ~n the
dict BFS is faster and ``backend="dict"`` should be forced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import NodeNotFoundError
from repro.signed.graph import Node, Sign, SignedGraph
from repro.signed.paths import INFINITY, BalancedPathResult, SignedBFSResult
from repro.utils.bitset import WORD_BITS, set_bit_positions, source_bits

#: Sentinel used in length arrays for unreachable nodes.
UNREACHABLE = -1

#: Fewest sources in one 64-source word for the multi-source kernels to run
#: it word-parallel rather than per source.  Word-parallel BFS advances up to
#: 64 sources through ONE adjacency gather per level: frontier/visited state
#: lives in per-node ``uint64`` words (bit b = "source b is here"), so in a
#: low-diameter graph — where nearby sources' frontiers overlap heavily after
#: a couple of levels — the union frontier is far smaller than the sum of
#: per-source frontiers.  With a single source there is no union to exploit
#: and the per-source traversal's simpler inner loop wins.  Measured on 1k-
#: to 2k-node social graphs (the paper's scale), word-parallel is ahead by
#: 7-23% at 3 sources and by more beyond, two sources are a tie and one is a
#: loss; on a 50k-node graph 3 sources are about a tie and word-parallel
#: leads from 4.
WORDPARALLEL_MIN_SOURCES = 3


class CSRSignedGraph:
    """An immutable compressed-sparse-row snapshot of a signed graph.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; the neighbours of dense node ``i``
        live in ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        ``int32`` array of neighbour dense ids (both directions of every
        undirected edge are stored, like the adjacency dict).
    signs:
        ``int8`` array parallel to ``indices`` holding the edge labels.
    """

    # __weakref__ lets the execution layer key published shared-memory
    # snapshots on the graph object itself (repro.exec.pool).
    __slots__ = ("indptr", "indices", "signs", "generation", "_nodes", "_index", "__weakref__")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        signs: np.ndarray,
        nodes: List[Node],
        index: Optional[Dict[Node, int]] = None,
        generation: int = 0,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.signs = signs
        #: The :attr:`SignedGraph.generation` this snapshot was taken at
        #: (``0`` for snapshots built outside the graph's cache).
        self.generation = generation
        self._nodes = nodes
        # A pre-built index may be shared across snapshots of the same node
        # set (delta maintenance); both are treated as immutable.
        self._index: Dict[Node, int] = (
            index if index is not None else {node: i for i, node in enumerate(nodes)}
        )

    # ------------------------------------------------------------------ build

    @classmethod
    def from_signed_graph(cls, graph: SignedGraph) -> "CSRSignedGraph":
        """Snapshot ``graph`` into CSR form (dense ids follow node insertion order)."""
        nodes = graph.nodes()
        index = {node: i for i, node in enumerate(nodes)}
        num_nodes = len(nodes)
        adjacency = graph._adjacency
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        for node, i in index.items():
            indptr[i + 1] = len(adjacency[node])
        np.cumsum(indptr, out=indptr)
        num_entries = int(indptr[-1])
        indices = np.empty(num_entries, dtype=np.int32)
        signs = np.empty(num_entries, dtype=np.int8)
        position = 0
        for node in nodes:
            for neighbor, sign in adjacency[node].items():
                indices[position] = index[neighbor]
                signs[position] = sign
                position += 1
        return cls(
            indptr, indices, signs, nodes, index=index, generation=graph.generation
        )

    @classmethod
    def apply_delta(
        cls, base: "CSRSignedGraph", graph: SignedGraph, delta
    ) -> "CSRSignedGraph":
        """New snapshot of ``graph`` built by patching ``base`` with ``delta``.

        Only the adjacency rows of nodes the delta touches are rebuilt (in
        Python, from the graph's adjacency dicts — the source of truth for
        neighbour order); every other row is copied from ``base`` with one
        vectorised gather.  The result is **bit-identical** to
        :meth:`from_signed_graph` on the mutated graph: same node order, same
        per-row neighbour order, same dtypes (the dynamic-graph equivalence
        suite asserts this for arbitrary mutation interleavings).

        When the node set is unchanged the new snapshot *shares* the node
        list and index objects of ``base`` (both are immutable), which is what
        lets per-source results cached against ``base`` remain dense-id
        compatible with the new snapshot (:meth:`shares_index_with`).  Node
        additions extend a copy of the index; node removals trigger a full
        dense-id remap of the copied rows.
        """
        adjacency = graph._adjacency
        touched = delta.touched_nodes()
        old_nodes = base._nodes
        old_degrees = np.diff(base.indptr)
        if not delta.has_node_changes:
            nodes = old_nodes
            index = base._index
            remap = None
            back: Optional[np.ndarray] = None
            degrees = old_degrees.copy()
        elif not delta.nodes_removed:
            # Pure additions append to the node order; extend a copy of the
            # index (cheap C-level dict copy) and keep existing dense ids.
            nodes = list(adjacency)
            index = dict(base._index)
            for position in range(len(old_nodes), len(nodes)):
                index[nodes[position]] = position
            remap = None
            back = None
            degrees = np.zeros(len(nodes), dtype=np.int64)
            degrees[: len(old_nodes)] = old_degrees
        else:
            # Removals shift dense ids: rebuild the order from the graph and
            # remap every copied row's neighbour ids.
            nodes = list(adjacency)
            index = {node: i for i, node in enumerate(nodes)}
            remap = np.full(len(old_nodes), -1, dtype=np.int64)
            for old_id, node in enumerate(old_nodes):
                new_id = index.get(node)
                if new_id is not None:
                    remap[old_id] = new_id
            back = np.full(len(nodes), -1, dtype=np.int64)
            kept = np.flatnonzero(remap >= 0)
            back[remap[kept]] = kept
            degrees = np.where(back >= 0, old_degrees[np.maximum(back, 0)], 0)
        num_nodes = len(nodes)
        touched_ids = sorted(index[node] for node in touched if node in index)
        for dense in touched_ids:
            degrees[dense] = len(adjacency[nodes[dense]])
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        indptr[1:] = degrees
        np.cumsum(indptr, out=indptr)
        num_entries = int(indptr[-1])
        indices = np.empty(num_entries, dtype=np.int32)
        signs = np.empty(num_entries, dtype=np.int8)
        # Untouched rows: one vectorised slice-to-slice copy for all of them.
        untouched = np.ones(num_nodes, dtype=bool)
        if touched_ids:
            untouched[touched_ids] = False
        rows = np.flatnonzero(untouched)
        if rows.size:
            old_rows = rows if back is None else back[rows]
            counts = degrees[rows]
            total = int(counts.sum())
            if total:
                src_starts = base.indptr[old_rows]
                dst_starts = indptr[rows]
                shifts = np.concatenate(([0], np.cumsum(counts)[:-1]))
                steps = np.arange(total)
                src = np.repeat(src_starts - shifts, counts) + steps
                dst = np.repeat(dst_starts - shifts, counts) + steps
                values = base.indices[src]
                if remap is not None:
                    values = remap[values]
                indices[dst] = values
                signs[dst] = base.signs[src]
        # Touched rows: rebuilt from the adjacency dicts, preserving order.
        for dense in touched_ids:
            position = int(indptr[dense])
            for neighbor, sign in adjacency[nodes[dense]].items():
                indices[position] = index[neighbor]
                signs[position] = sign
                position += 1
        return cls(
            indptr, indices, signs, nodes, index=index, generation=graph.generation
        )

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Node, Node, Sign]],
        nodes: Optional[Iterable[Node]] = None,
    ) -> "CSRSignedGraph":
        """Build from ``(u, v, sign)`` triples, via an intermediate :class:`SignedGraph`."""
        return cls.from_signed_graph(SignedGraph.from_edges(edges, nodes=nodes))

    # ------------------------------------------------------------------ persist

    def save(self, path: str) -> str:
        """Persist this snapshot to ``path`` in the store format.

        Atomic (temp file + ``os.replace``); see :mod:`repro.signed.store`
        for the layout.  Returns ``path``.
        """
        from repro.signed.store import save_snapshot

        return save_snapshot(self, path)

    @classmethod
    def load(cls, path: str, mmap: bool = True) -> "CSRSignedGraph":
        """Load a snapshot previously written by :meth:`save`.

        With ``mmap=True`` the planes are read-only :class:`numpy.memmap`
        views — cold start is the cost of mapping the file, not of parsing
        an edge list.  Bit-identical to the saved snapshot either way.
        """
        from repro.signed.store import load_snapshot

        return load_snapshot(path, mmap=mmap)

    def to_signed_graph(self) -> SignedGraph:
        """Rebuild the mutable dict-backend graph this snapshot describes.

        The inverse of :meth:`from_signed_graph`, exactly: node insertion
        order follows dense-id order and each adjacency dict is filled in
        CSR row order, so ``CSRSignedGraph.from_signed_graph(csr.to_signed_graph())``
        reproduces ``indptr``/``indices``/``signs`` bit for bit.  This is what
        lets the dataset loaders round-trip parsed graphs through the
        snapshot store without perturbing any downstream result.
        """
        graph = SignedGraph()
        nodes = self._nodes
        indptr = self.indptr.tolist()
        indices = self.indices.tolist()
        signs = self.signs.tolist()
        # Rows are filled directly (same discipline as SignedGraph.copy): the
        # public add_edge would insert each neighbour at edge-addition order,
        # not CSR row order, and the roundtrip would stop being exact.
        adjacency = graph._adjacency
        positive_entries = 0
        for dense, node in enumerate(nodes):
            row: Dict[Node, Sign] = {}
            for position in range(indptr[dense], indptr[dense + 1]):
                row[nodes[indices[position]]] = signs[position]
                if signs[position] > 0:
                    positive_entries += 1
            adjacency[node] = row
        graph._num_edges = len(indices) // 2
        graph._num_positive = positive_entries // 2
        return graph

    # ------------------------------------------------------------------ query

    def number_of_nodes(self) -> int:
        """Return ``|V|``."""
        return len(self._nodes)

    def number_of_edges(self) -> int:
        """Return ``|E|`` (each undirected edge counted once)."""
        return len(self.indices) // 2

    def nodes(self) -> List[Node]:
        """The original node objects, in dense-id order (a fresh list, like
        :meth:`SignedGraph.nodes`, so callers may mutate it freely)."""
        return list(self._nodes)

    def node_at(self, dense_id: int) -> Node:
        """The original node object for ``dense_id``."""
        return self._nodes[dense_id]

    def index_of(self, node: Node) -> int:
        """The dense id of ``node``; raises :class:`NodeNotFoundError` if absent."""
        try:
            return self._index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def __contains__(self, node: Node) -> bool:
        return node in self._index

    def shares_index_with(self, other: "CSRSignedGraph") -> bool:
        """True iff ``other`` uses the *same* dense-id mapping as this snapshot.

        Snapshots produced by delta maintenance (and full rebuilds of an
        unchanged node set) share the node-list object, so dense arrays
        computed against one remain valid against the other.  The check is an
        identity test — O(1), never a node-by-node comparison.
        """
        return self._nodes is other._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def degrees(self) -> np.ndarray:
        """Array of node degrees, indexed by dense id."""
        return np.diff(self.indptr)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u, v, sign)`` dense-id arrays, one entry per undirected edge.

        Order is first row-major appearance in the planes: the entry for
        ``{u, v}`` sits in the row of the smaller dense id (the other
        direction lives in a later row), in row order.  Because CSR row order
        is dict insertion order, this is exactly the order
        :meth:`SignedGraph.edges` enumerates the same graph in — the contract
        the streaming churn sampler relies on to stay bit-compatible across
        backends.
        """
        row = np.repeat(
            np.arange(len(self._nodes), dtype=np.int64), np.diff(self.indptr)
        )
        keep = row < self.indices
        return row[keep], self.indices[keep].astype(np.int64), self.signs[keep]

    def __repr__(self) -> str:
        return (
            f"CSRSignedGraph(nodes={self.number_of_nodes()}, "
            f"edges={self.number_of_edges()})"
        )


@dataclass(eq=False)
class CSRSignedBFSResult:
    """Array-backed output of :func:`signed_bfs_csr` (Algorithm 1).

    ``lengths[i]`` is the BFS distance from the source to dense node ``i``
    (:data:`UNREACHABLE` when there is none); ``positive_counts`` /
    ``negative_counts`` hold the signed shortest-path counts.  The query
    methods accept the original node objects, so the object is a drop-in for
    :class:`~repro.signed.paths.SignedBFSResult` in pairwise code.  Equality
    is identity (``eq=False``): value comparison of array fields is ambiguous;
    convert via :meth:`to_signed_bfs_result` to compare results by value.
    """

    source: Node
    graph: CSRSignedGraph
    lengths_array: np.ndarray
    positive_array: np.ndarray
    negative_array: np.ndarray

    def length(self, node: Node) -> float:
        """Shortest-path length to ``node`` (``inf`` if unreachable)."""
        value = self.lengths_array[self.graph.index_of(node)]
        return INFINITY if value == UNREACHABLE else int(value)

    def counts(self, node: Node) -> Tuple[int, int]:
        """Return ``(positive, negative)`` shortest-path counts for ``node``."""
        dense = self.graph.index_of(node)
        return (int(self.positive_array[dense]), int(self.negative_array[dense]))

    def reachable(self, node: Node) -> bool:
        """True iff ``node`` is reachable from the source."""
        return self.lengths_array[self.graph.index_of(node)] != UNREACHABLE

    def reachable_count(self) -> int:
        """Number of reachable nodes (including the source)."""
        return int((self.lengths_array != UNREACHABLE).sum())

    def compatible_count(self, rule_mask: np.ndarray) -> int:
        """Number of non-source nodes selected by a boolean ``rule_mask``.

        ``rule_mask`` is typically produced by a vectorised pair rule over
        ``positive_array`` / ``negative_array`` (see the SP* relations); the
        source itself and unreachable nodes are excluded, mirroring the
        dict-backend compatible-set construction.
        """
        mask = rule_mask & (self.lengths_array != UNREACHABLE)
        mask[self.graph.index_of(self.source)] = False
        return int(mask.sum())

    def compatible_nodes(self, rule_mask: np.ndarray) -> List[Node]:
        """The non-source node objects selected by ``rule_mask`` (reachable only)."""
        mask = rule_mask & (self.lengths_array != UNREACHABLE)
        mask[self.graph.index_of(self.source)] = False
        nodes = self.graph._nodes
        return [nodes[i] for i in np.flatnonzero(mask)]

    def to_signed_bfs_result(self) -> SignedBFSResult:
        """Convert to the dict-backed :class:`SignedBFSResult`, bit for bit.

        Reachable nodes appear in BFS-discovery-compatible order (by level,
        then dense id); counts and lengths are identical to what
        :func:`~repro.signed.paths.signed_bfs` produces on the same graph.
        """
        nodes = self.graph._nodes
        reachable = np.flatnonzero(self.lengths_array != UNREACHABLE)
        order = reachable[np.argsort(self.lengths_array[reachable], kind="stable")]
        lengths: Dict[Node, int] = {}
        positive: Dict[Node, int] = {}
        negative: Dict[Node, int] = {}
        for dense in order:
            node = nodes[dense]
            lengths[node] = int(self.lengths_array[dense])
            positive[node] = int(self.positive_array[dense])
            negative[node] = int(self.negative_array[dense])
        return SignedBFSResult(
            source=self.source,
            positive_counts=positive,
            negative_counts=negative,
            lengths=lengths,
        )


def _next_frontier(
    new_states: np.ndarray, state_array: np.ndarray, next_depth: int
) -> np.ndarray:
    """Deduplicated frontier for the next BFS level.

    ``new_states`` holds the states discovered this level, possibly with
    duplicates.  For small levels a sort-based ``np.unique`` is cheapest; for
    large levels a linear scan of the state array beats sorting — without the
    scan fallback a low-diameter graph pays O(k log k) on huge levels, and
    without the unique fast path a path-like graph pays O(n · diameter) in
    full-array scans.
    """
    if new_states.size * 16 < state_array.size:
        return np.unique(new_states)
    return np.flatnonzero(state_array == next_depth)


def _concatenated_neighbor_ranges(
    csr: CSRSignedGraph, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gather the adjacency slices of every frontier node into flat arrays.

    Returns ``(targets, signs, sources, counts)`` where ``sources[k]`` is the
    frontier node whose adjacency produced ``targets[k]`` and ``counts[i]`` is
    the degree of ``frontier[i]`` (so callers can repeat per-frontier data
    without regathering the offsets).  Fully vectorised: the concatenated
    ranges are materialised with the repeat/cumsum offset trick instead of a
    Python loop over frontier nodes.
    """
    starts = csr.indptr[frontier]
    counts = csr.indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.astype(np.int8), empty, counts
    shifts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offsets = np.repeat(starts - shifts, counts) + np.arange(total)
    return csr.indices[offsets], csr.signs[offsets], np.repeat(frontier, counts), counts


def _count_guard(csr: CSRSignedGraph) -> int:
    """Largest path count that may enter a BFS level of ``csr`` safely.

    No node has more than ``max_degree`` in-edges, so while every count
    entering a level is at most ``(2**63 - 1) // max_degree`` no sum formed
    during that level can wrap ``int64``.  The signed kernels compare the
    counts they produce against this bound after each level.
    """
    max_degree = int(csr.degrees().max()) if csr.number_of_nodes() else 0
    return (2**63 - 1) // max(1, max_degree)


def _signed_bfs_arrays(
    csr: CSRSignedGraph, source_id: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense core of :func:`signed_bfs_csr`: arrays in, arrays out.

    Takes a *dense* source id and touches only the snapshot's flat arrays —
    never the node list or index — so it runs unchanged inside worker
    processes that received the snapshot through shared memory without the
    (arbitrary, possibly unpicklable) node objects.  Returns
    ``(lengths, positive, negative)``.
    """
    num_nodes = csr.number_of_nodes()
    lengths = np.empty(num_nodes, dtype=np.int32)
    positive = np.empty(num_nodes, dtype=np.int64)
    negative = np.empty(num_nodes, dtype=np.int64)
    _signed_bfs_arrays_into(csr, source_id, lengths, positive, negative)
    return lengths, positive, negative


def _signed_bfs_arrays_into(
    csr: CSRSignedGraph,
    source_id: int,
    lengths: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
) -> None:
    """Run Algorithm 1 *into* caller-provided arrays (initialised here).

    The write-into-buffer variant behind result shipping: the execution
    layer hands this function views into a ``multiprocessing.shared_memory``
    result arena, so the traversal's own working arrays *are* the shipped
    result — no copy, no pickling.  The arrays must be ``n``-long with the
    dtypes of :func:`_signed_bfs_arrays`; previous contents are overwritten.
    Raises :class:`OverflowError` under the same per-level int64 guard (the
    arrays then hold partial state the caller must discard).
    """
    count_guard = _count_guard(csr)
    lengths.fill(UNREACHABLE)
    positive.fill(0)
    negative.fill(0)
    lengths[source_id] = 0
    positive[source_id] = 1
    frontier = np.array([source_id], dtype=np.int64)
    depth = 0
    while frontier.size:
        targets, edge_signs, origins, _counts = _concatenated_neighbor_ranges(csr, frontier)
        if targets.size == 0:
            break
        target_lengths = lengths[targets]
        # Edges u -> x with L(x) == L(u) + 1 carry shortest-path counts.  At
        # gather time every length is still <= depth or UNREACHABLE (level
        # depth + 1 is assigned just below), so those edges are exactly the
        # ones whose target was undiscovered — including repeat occurrences of
        # the same target within this level, which all contribute counts.
        undiscovered = target_lengths == UNREACHABLE
        lengths[targets[undiscovered]] = depth + 1
        targets = targets[undiscovered]
        if targets.size:
            edge_signs = edge_signs[undiscovered]
            origins = origins[undiscovered]
            positive_edges = edge_signs > 0
            pos_contrib = np.where(positive_edges, positive[origins], negative[origins])
            neg_contrib = np.where(positive_edges, negative[origins], positive[origins])
            np.add.at(positive, targets, pos_contrib)
            np.add.at(negative, targets, neg_contrib)
            if (
                int(positive[targets].max()) > count_guard
                or int(negative[targets].max()) > count_guard
            ):
                raise OverflowError(
                    "signed shortest-path counts exceed the int64 safety bound "
                    f"({count_guard}) at BFS depth {depth + 1}; use the dict "
                    "backend (repro.signed.paths.signed_bfs) for this graph"
                )
        frontier = _next_frontier(targets, lengths, depth + 1)
        depth += 1


def signed_bfs_csr(csr: CSRSignedGraph, source: Node) -> CSRSignedBFSResult:
    """Algorithm 1 on the CSR backend: signed shortest-path counting.

    A level-synchronous BFS: each iteration gathers the concatenated adjacency
    of the whole frontier, discovers the next level, and scatters the signed
    count contributions with ``np.add.at`` (positive edges preserve the counts,
    negative edges swap them).  Work per level is a handful of O(frontier
    edges) array operations, so the full traversal is O(|V| + |E|) with
    constant factors one to two orders of magnitude below the dict BFS.

    Counts are ``int64``.  A per-level guard raises :class:`OverflowError`
    *before* any count can wrap: as long as every count entering a level is at
    most ``(2**63 - 1) / max_degree``, no target's accumulated sum can exceed
    ``int64`` during that level, so the check (applied after each level)
    catches the overflow while all values are still exact.  Callers that hit
    the guard should fall back to the dict backend's arbitrary-precision
    integers (:func:`repro.signed.paths.signed_bfs`) — the relations do this
    automatically.
    """
    lengths, positive, negative = _signed_bfs_arrays(csr, csr.index_of(source))
    return CSRSignedBFSResult(
        source=source,
        graph=csr,
        lengths_array=lengths,
        positive_array=positive,
        negative_array=negative,
    )


def _shortest_path_lengths_array(csr: CSRSignedGraph, source_id: int) -> np.ndarray:
    """Dense core of :func:`shortest_path_lengths_csr` (dense id in, array out)."""
    lengths = np.empty(csr.number_of_nodes(), dtype=np.int32)
    _shortest_path_lengths_array_into(csr, source_id, lengths)
    return lengths


def _shortest_path_lengths_array_into(
    csr: CSRSignedGraph, source_id: int, lengths: np.ndarray
) -> None:
    """Sign-agnostic BFS *into* a caller-provided ``int32`` array.

    The write-into-buffer variant used by result shipping: the array may be a
    shared-memory result-arena row, which then holds the finished distance
    map without a parent-side copy.  Previous contents are overwritten.
    """
    lengths.fill(UNREACHABLE)
    lengths[source_id] = 0
    frontier = np.array([source_id], dtype=np.int64)
    depth = 0
    while frontier.size:
        targets, _, _, _ = _concatenated_neighbor_ranges(csr, frontier)
        if targets.size == 0:
            break
        undiscovered = targets[lengths[targets] == UNREACHABLE]
        lengths[undiscovered] = depth + 1
        frontier = _next_frontier(undiscovered, lengths, depth + 1)
        depth += 1


def shortest_path_lengths_csr(csr: CSRSignedGraph, source: Node) -> np.ndarray:
    """Sign-agnostic BFS distances from ``source`` as a dense ``int32`` array.

    Unreachable nodes hold :data:`UNREACHABLE`; wrap with :class:`CSRLengths`
    for a dict-like view keyed by original node objects.
    """
    return _shortest_path_lengths_array(csr, csr.index_of(source))


def shortest_signed_walk_lengths_csr(
    csr: CSRSignedGraph, source: Node
) -> Tuple[np.ndarray, np.ndarray]:
    """Shortest positive / negative *walk* lengths on the signed double cover.

    Array version of
    :func:`~repro.signed.paths.shortest_signed_walk_lengths`: each node is
    duplicated into a positive-parity and a negative-parity state, positive
    edges stay within a layer and negative edges cross layers.  Returns two
    dense arrays (positive first) with :data:`UNREACHABLE` where no walk of
    that sign exists.
    """
    source_id = csr.index_of(source)
    num_nodes = csr.number_of_nodes()
    # State i encodes (node, +1); state i + n encodes (node, -1).
    distances = np.full(2 * num_nodes, UNREACHABLE, dtype=np.int32)
    distances[source_id] = 0
    frontier = np.array([source_id], dtype=np.int64)
    depth = 0
    while frontier.size:
        node_part = frontier % num_nodes
        parity_part = frontier // num_nodes  # 0 = positive, 1 = negative
        targets, edge_signs, _origins, counts = _concatenated_neighbor_ranges(
            csr, node_part
        )
        if targets.size == 0:
            break
        origin_parity = np.repeat(parity_part, counts)
        next_parity = np.where(edge_signs > 0, origin_parity, 1 - origin_parity)
        states = targets.astype(np.int64) + next_parity * num_nodes
        undiscovered = states[distances[states] == UNREACHABLE]
        distances[undiscovered] = depth + 1
        frontier = _next_frontier(undiscovered, distances, depth + 1)
        depth += 1
    return distances[:num_nodes].copy(), distances[num_nodes:].copy()


def _wordparallel_seed(
    num_nodes: int, source_ids: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seed state for a word-parallel chunk: ``(ids, bits, frontier)``.

    ``frontier`` is the per-node ``uint64`` word array with source ``i``'s
    bit set on its source node (``np.bitwise_or.at`` — duplicate sources in
    one chunk OR into the same word and stay independent traversals).
    """
    ids = np.asarray(source_ids, dtype=np.int64)
    bits = source_bits(len(source_ids))
    frontier = np.zeros(num_nodes, dtype=np.uint64)
    np.bitwise_or.at(frontier, ids, bits)
    return ids, bits, frontier


def _wordparallel_path_lengths_into(
    csr: CSRSignedGraph, source_ids: Sequence[int], out_lengths: np.ndarray
) -> None:
    """Word-parallel multi-source BFS: up to 64 distance maps per gather.

    Frontier and visited state are packed ``uint64`` words (bit b = "source
    b"), so one level of ALL the chunk's traversals is one adjacency gather
    over the *union* frontier, one ``bitwise_or`` scatter, and one
    ``& ~seen``.  Row ``b`` of ``out_lengths`` (shape ``(k, n)``, int32; any
    row layout — writes are per-row) receives source ``b``'s distances,
    bit-identical to :func:`_shortest_path_lengths_array_into`: BFS depths
    are unique per (source, node), so equality is exact by construction.
    """
    num_nodes = csr.number_of_nodes()
    k = len(source_ids)
    ids, _bits, frontier = _wordparallel_seed(num_nodes, source_ids)
    seen = frontier.copy()
    out_lengths.fill(UNREACHABLE)
    out_lengths[np.arange(k), ids] = 0
    depth = 0
    while True:
        active = np.flatnonzero(frontier)
        if active.size == 0:
            break
        targets, _signs, origins, _counts = _concatenated_neighbor_ranges(csr, active)
        if targets.size == 0:
            break
        next_words = np.zeros(num_nodes, dtype=np.uint64)
        np.bitwise_or.at(next_words, targets, frontier[origins])
        next_words &= ~seen
        newly = np.flatnonzero(next_words)
        if newly.size == 0:
            break
        seen[newly] |= next_words[newly]
        newly_words = next_words[newly]
        for b in set_bit_positions(int(np.bitwise_or.reduce(newly_words))):
            bit = np.uint64(1) << np.uint64(b)
            out_lengths[b, newly[(newly_words & bit) != 0]] = depth + 1
        frontier = next_words
        depth += 1


def _wordparallel_signed_bfs_into(
    csr: CSRSignedGraph,
    source_ids: Sequence[int],
    out_lengths: np.ndarray,
    out_positive: np.ndarray,
    out_negative: np.ndarray,
) -> None:
    """Word-parallel Algorithm 1: up to 64 signed BFS runs per adjacency gather.

    Discovery is word-parallel exactly as in
    :func:`_wordparallel_path_lengths_into`; the signed count propagation
    then runs per *active* source over only that source's discovery edges
    (``frontier word & next word`` per edge selects them), in the same
    concatenated-adjacency order the per-source kernel scatters in — so rows
    are bit-identical to :func:`_signed_bfs_arrays_into`, including the
    per-level int64 overflow guard (raises :class:`OverflowError`; the
    caller re-runs the word source by source).  Output
    buffers are ``(k, n)`` int32/int64/int64; writes are per-row, so any row
    layout (e.g. a slice of result-arena planes) works.
    """
    num_nodes = csr.number_of_nodes()
    k = len(source_ids)
    count_guard = _count_guard(csr)
    ids, _bits, frontier = _wordparallel_seed(num_nodes, source_ids)
    seen = frontier.copy()
    out_lengths.fill(UNREACHABLE)
    out_positive.fill(0)
    out_negative.fill(0)
    rows = np.arange(k)
    out_lengths[rows, ids] = 0
    out_positive[rows, ids] = 1
    depth = 0
    while True:
        active = np.flatnonzero(frontier)
        if active.size == 0:
            break
        targets, edge_signs, origins, _counts = _concatenated_neighbor_ranges(
            csr, active
        )
        if targets.size == 0:
            break
        words = frontier[origins]
        next_words = np.zeros(num_nodes, dtype=np.uint64)
        np.bitwise_or.at(next_words, targets, words)
        next_words &= ~seen
        newly = np.flatnonzero(next_words)
        if newly.size == 0:
            break
        seen[newly] |= next_words[newly]
        # Per-edge discovery words: bit b set iff this edge crosses from
        # source b's frontier into a node source b discovers this level —
        # exactly the count-carrying edges of the per-source kernel.
        discovery = words & next_words[targets]
        newly_words = next_words[newly]
        positive_edges = edge_signs > 0
        for b in set_bit_positions(int(np.bitwise_or.reduce(newly_words))):
            bit = np.uint64(1) << np.uint64(b)
            row_new = newly[(newly_words & bit) != 0]
            out_lengths[b, row_new] = depth + 1
            edge_sel = np.flatnonzero((discovery & bit) != 0)
            chunk_targets = targets[edge_sel]
            chunk_origins = origins[edge_sel]
            chunk_positive = positive_edges[edge_sel]
            positive_row = out_positive[b]
            negative_row = out_negative[b]
            pos_contrib = np.where(
                chunk_positive, positive_row[chunk_origins], negative_row[chunk_origins]
            )
            neg_contrib = np.where(
                chunk_positive, negative_row[chunk_origins], positive_row[chunk_origins]
            )
            np.add.at(positive_row, chunk_targets, pos_contrib)
            np.add.at(negative_row, chunk_targets, neg_contrib)
            if (
                int(positive_row[row_new].max(initial=0)) > count_guard
                or int(negative_row[row_new].max(initial=0)) > count_guard
            ):
                raise OverflowError(
                    "signed shortest-path counts exceed the int64 safety bound "
                    f"({count_guard}) at BFS depth {depth + 1} in a "
                    "word-parallel traversal; re-run the affected sources "
                    "individually"
                )
        frontier = next_words
        depth += 1


#: One per-source kernel output: ``(lengths, positive, negative)`` arrays, or
#: ``None`` marking an int64 overflow the caller resolves on the dict backend.
DenseBFSTriple = Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]


def _use_wordparallel(num_sources: int, wordparallel: Optional[bool]) -> bool:
    """Whether one word of ``num_sources`` sources runs word-parallel.

    The single strategy rule of the multi-source kernels: word-parallel iff
    the word holds at least :data:`WORDPARALLEL_MIN_SOURCES` sources, else
    per-source traversals.  ``wordparallel`` pins the strategy (``True`` /
    ``False``) for equivalence tests and benchmarks; ``None`` applies the rule.
    """
    if wordparallel is not None:
        return wordparallel
    return num_sources >= WORDPARALLEL_MIN_SOURCES


def _word_chunks(id_list: List[int]) -> Iterator[Tuple[int, List[int]]]:
    """``(start, ids)`` for consecutive 64-source words of ``id_list``."""
    for start in range(0, len(id_list), WORD_BITS):
        yield start, id_list[start : start + WORD_BITS]


def signed_bfs_dense_batch(
    csr: CSRSignedGraph,
    source_ids: Sequence[int],
    skip_overflow: bool = False,
    wordparallel: Optional[bool] = None,
) -> List[DenseBFSTriple]:
    """Dense core of :func:`multi_source_signed_bfs`: dense ids in, arrays out.

    Works purely on the snapshot's flat arrays (no node objects), which is
    what lets the execution layer run it inside worker processes against a
    shared-memory copy of the snapshot.  A thin wrapper over
    :func:`signed_bfs_dense_batch_into`, one 64-source word at a time: rows
    are copied out of each word's buffers, so holding one result does not pin
    the whole ``(64, n)`` allocation.  Results are in input order and
    bit-identical to per-source :func:`_signed_bfs_arrays` runs; ``None``
    marks an int64 overflow (only with ``skip_overflow``).
    """
    num_nodes = csr.number_of_nodes()
    results: List[DenseBFSTriple] = []
    for _start, chunk in _word_chunks(list(source_ids)):
        lengths = np.empty((len(chunk), num_nodes), dtype=np.int32)
        positive = np.empty((len(chunk), num_nodes), dtype=np.int64)
        negative = np.empty((len(chunk), num_nodes), dtype=np.int64)
        tokens = signed_bfs_dense_batch_into(
            csr,
            chunk,
            lengths,
            positive,
            negative,
            skip_overflow=skip_overflow,
            wordparallel=wordparallel,
        )
        results.extend(
            None
            if token is None
            else (lengths[row].copy(), positive[row].copy(), negative[row].copy())
            for row, token in enumerate(tokens)
        )
    return results


def signed_bfs_dense_batch_into(
    csr: CSRSignedGraph,
    source_ids: Sequence[int],
    out_lengths: np.ndarray,
    out_positive: np.ndarray,
    out_negative: np.ndarray,
    skip_overflow: bool = False,
    wordparallel: Optional[bool] = None,
) -> List[Optional[bool]]:
    """Algorithm 1 from many dense sources, written into ``(k, n)`` buffers.

    The result-shipping core: the execution layer passes rows of a
    ``multiprocessing.shared_memory`` result arena, so each source's triple is
    produced *in place* — the parent maps the same segment and reads the rows
    zero-copy instead of unpickling per-source arrays.  Row ``i`` of the three
    output buffers (dtypes ``int32``/``int64``/``int64``; any row layout —
    every write goes through a row) receives source ``source_ids[i]``'s
    result.  Sources run in words of 64, each word-parallel or per source as
    :func:`_use_wordparallel` decides.  A word whose counts trip the int64
    guard is re-run source by source; a source that *individually* overflows
    raises :class:`OverflowError` unless ``skip_overflow`` is true.  Returns
    one token per source, aligned with the input: ``True`` for a completed
    row, ``None`` for an overflow, whose row contents are then undefined.
    """
    tokens: List[Optional[bool]] = []
    for start, chunk in _word_chunks(list(source_ids)):
        stop = start + len(chunk)
        if _use_wordparallel(len(chunk), wordparallel):
            try:
                _wordparallel_signed_bfs_into(
                    csr,
                    chunk,
                    out_lengths[start:stop],
                    out_positive[start:stop],
                    out_negative[start:stop],
                )
                tokens.extend([True] * len(chunk))
                continue
            except OverflowError:
                pass
        for row, source_id in enumerate(chunk, start=start):
            try:
                _signed_bfs_arrays_into(
                    csr, source_id, out_lengths[row], out_positive[row], out_negative[row]
                )
                tokens.append(True)
            except OverflowError:
                if not skip_overflow:
                    raise
                tokens.append(None)
    return tokens


def multi_source_signed_bfs(
    csr: CSRSignedGraph,
    sources: Sequence[Node],
    skip_overflow: bool = False,
) -> List[Optional[CSRSignedBFSResult]]:
    """Run Algorithm 1 from every source over one shared index, batched.

    Sources run in words of 64 through :func:`signed_bfs_dense_batch`: a word
    of at least :data:`WORDPARALLEL_MIN_SOURCES` sources shares one adjacency
    gather per BFS level, a smaller one runs per-source traversals.  Either
    way the results come back in input order and are bit-identical to
    per-source :func:`signed_bfs_csr` runs.

    A word whose counts trip the int64 guard is re-run source by source; a
    source that *individually* overflows then raises :class:`OverflowError`
    unless ``skip_overflow`` is true, in which case its slot holds ``None``
    and the caller is expected to fall back to the dict backend's
    arbitrary-precision BFS for it.
    """
    source_list = list(sources)
    triples = signed_bfs_dense_batch(
        csr,
        [csr.index_of(source) for source in source_list],
        skip_overflow=skip_overflow,
    )
    return [
        None
        if triple is None
        else CSRSignedBFSResult(
            source=source,
            graph=csr,
            lengths_array=triple[0],
            positive_array=triple[1],
            negative_array=triple[2],
        )
        for source, triple in zip(source_list, triples)
    ]


def shortest_path_lengths_dense_batch(
    csr: CSRSignedGraph,
    source_ids: Sequence[int],
    wordparallel: Optional[bool] = None,
) -> List[np.ndarray]:
    """Dense core of :func:`multi_source_shortest_path_lengths_csr`.

    Dense ids in, one ``int32`` length array per source out; node objects are
    never touched, so the execution layer can run it in worker processes over
    a shared-memory snapshot.  A thin wrapper over
    :func:`shortest_path_lengths_dense_batch_into`, one 64-source word at a
    time, copying each row out of the word's buffer.
    """
    num_nodes = csr.number_of_nodes()
    results: List[np.ndarray] = []
    for _start, chunk in _word_chunks(list(source_ids)):
        lengths = np.empty((len(chunk), num_nodes), dtype=np.int32)
        shortest_path_lengths_dense_batch_into(
            csr, chunk, lengths, wordparallel=wordparallel
        )
        results.extend(row.copy() for row in lengths)
    return results


def shortest_path_lengths_dense_batch_into(
    csr: CSRSignedGraph,
    source_ids: Sequence[int],
    out_lengths: np.ndarray,
    wordparallel: Optional[bool] = None,
) -> List[Optional[bool]]:
    """Sign-agnostic distances from many dense sources into a ``(k, n)`` buffer.

    Row ``i`` of ``out_lengths`` (``int32``, any row layout — typically
    shared-memory result-arena rows the parent reads back zero-copy)
    receives ``source_ids[i]``'s distance map.  Sources run in words of 64,
    each word-parallel or per source as :func:`_use_wordparallel` decides.
    Returns one ``True`` token per source for uniformity with
    :func:`signed_bfs_dense_batch_into` (distance sweeps cannot overflow).
    """
    id_list = list(source_ids)
    for start, chunk in _word_chunks(id_list):
        if _use_wordparallel(len(chunk), wordparallel):
            _wordparallel_path_lengths_into(
                csr, chunk, out_lengths[start : start + len(chunk)]
            )
            continue
        for row, source_id in enumerate(chunk, start=start):
            _shortest_path_lengths_array_into(csr, source_id, out_lengths[row])
    return [True] * len(id_list)


def multi_source_shortest_path_lengths_csr(
    csr: CSRSignedGraph, sources: Sequence[Node]
) -> List[np.ndarray]:
    """Sign-agnostic BFS distances from many sources over one shared index.

    The multi-source counterpart of :func:`shortest_path_lengths_csr`, with
    the same word-parallel / per-source rule as
    :func:`multi_source_signed_bfs`.  Returns one dense ``int32`` length
    array per source, in input order (:data:`UNREACHABLE` marks unreachable
    nodes; wrap with :class:`CSRLengths` for a dict-like view).
    """
    return shortest_path_lengths_dense_batch(
        csr, [csr.index_of(source) for source in sources]
    )


def _extend_camps_csr(
    adjacency: "_ListAdjacency", camps: Dict[int, int], new_node: int
) -> Optional[Dict[int, int]]:
    """Dense-id version of :func:`repro.signed.paths._extend_camps`.

    ``camps`` is the Harary two-colouring of the representative path's induced
    subgraph, keyed by dense node id.  The extension is balanced iff every
    edge from ``new_node`` back into the path agrees on one camp for it.
    ``adjacency`` is the search's list-converted CSR view — plain Python ints,
    so the hot membership loop pays no numpy scalar boxing.
    """
    indptr, indices, signs = adjacency
    start = indptr[new_node]
    stop = indptr[new_node + 1]
    required: Optional[int] = None
    camps_get = camps.get
    for position in range(start, stop):
        camp = camps_get(indices[position])
        if camp is None:
            continue
        expected = camp if signs[position] > 0 else 1 - camp
        if required is None:
            required = expected
        elif required != expected:
            return None
    if required is None:
        required = 0
    extended = dict(camps)
    extended[new_node] = required
    return extended


#: ``(indptr, indices, signs)`` of a CSR graph as plain Python lists.
_ListAdjacency = Tuple[List[int], List[int], List[int]]

#: Minimum candidate degree for which the Harary camp gather is vectorised;
#: below it the per-edge Python check wins (a handful of numpy calls plus the
#: scratch-colouring maintenance cost more than the adjacency scan — measured
#: break-even sits in the several-hundreds).
_CAMP_BATCH_THRESHOLD = 512


def _hub_camp_check(
    csr: CSRSignedGraph, node: int, camp_scratch: np.ndarray
) -> Tuple[bool, int]:
    """Vectorised Harary-extension check for one high-degree candidate.

    ``camp_scratch`` holds the origin path's camp per node (``-1`` off the
    path; scattered once per origin by the caller).  The extension is
    balanced iff every on-path neighbour implies the *same* camp for the
    candidate (positive edge: the neighbour's camp; negative edge: the
    opposite camp) — exactly :func:`_extend_camps_csr`, but as one adjacency
    gather plus a min/max reduction instead of a Python loop per edge, which
    wins once the candidate's degree dwarfs the path length (hubs).  Returns
    ``(balanced, required_camp)``; the required camp defaults to ``0`` with
    no on-path neighbour.
    """
    start, stop = csr.indptr[node], csr.indptr[node + 1]
    camps = camp_scratch[csr.indices[start:stop]]
    on_path = camps >= 0
    implied = np.where(csr.signs[start:stop] > 0, camps, 1 - camps)[on_path]
    if implied.size == 0:
        return True, 0
    lowest = int(implied.min())
    return lowest == int(implied.max()), lowest


def balanced_heuristic_depths(
    csr: CSRSignedGraph, source_id: int, max_length: Optional[int] = None
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Dense core of :func:`balanced_heuristic_search_csr`.

    Takes a dense source id and returns ``(positive_depths, negative_depths)``
    keyed by dense node ids — no node objects are touched, so the execution
    layer can run the search in worker processes over a shared-memory
    snapshot and remap the depths to node objects in the parent.
    """
    return _balanced_heuristic_depths(csr, source_id, max_length)


def balanced_result_from_depths(
    csr: CSRSignedGraph,
    source: Node,
    positive_depths: Dict[int, int],
    negative_depths: Dict[int, int],
    max_length: Optional[int] = None,
) -> BalancedPathResult:
    """Re-key dense SBPH depth maps to node objects as a :class:`BalancedPathResult`.

    The single place the dense search output (``balanced_heuristic_depths``,
    local or shipped back from a worker) becomes the node-keyed result the
    relations cache — keeping the bound rule and the remap in one spot so the
    serial and pooled paths cannot drift apart.
    """
    nodes = csr._nodes
    bound = max_length if max_length is not None else csr.number_of_nodes() - 1
    result = BalancedPathResult(source=source, exact=False, max_length=bound)
    for dense, length in positive_depths.items():
        result.positive_lengths[nodes[dense]] = length
    for dense, length in negative_depths.items():
        result.negative_lengths[nodes[dense]] = length
    return result


def balanced_heuristic_search_csr(
    csr: CSRSignedGraph, source: Node, max_length: Optional[int] = None
) -> BalancedPathResult:
    """SBPH's prefix-property search as an indexed (node, sign)-state BFS.

    State ``i`` encodes ``(node i, positive prefix)``; state ``i + n`` encodes
    ``(node i, negative prefix)`` — the same double-cover layout as
    :func:`shortest_signed_walk_lengths_csr`.  Each level gathers the whole
    frontier's adjacency, computes target states and filters already-claimed
    states with array operations; only the surviving candidates (those that
    could claim a new representative) run the per-path balance check, in
    exactly the order the dict search would have reached them (frontier
    discovery order, then adjacency order).  The balance check itself is
    degree-adaptive: ordinary candidates run the per-edge Python check
    (:func:`_extend_camps_csr`), while **hub** candidates — degree at least
    :data:`_CAMP_BATCH_THRESHOLD` and well above the origin path length —
    gather their neighbours' camps vectorised through a scratch camp array
    scattered once per origin path (:func:`_hub_camp_check`).  Both paths
    compute the same verdict and camp, so the output is **bit-identical** to
    :meth:`repro.signed.paths.BalancedPathSearch.search_heuristic` — same
    representative per state, same recorded path lengths.
    """
    positive_depths, negative_depths = _balanced_heuristic_depths(
        csr, csr.index_of(source), max_length
    )
    return balanced_result_from_depths(
        csr, source, positive_depths, negative_depths, max_length
    )


def _balanced_heuristic_depths(
    csr: CSRSignedGraph, source_id: int, max_length: Optional[int] = None
) -> Tuple[Dict[int, int], Dict[int, int]]:
    if max_length is not None and max_length < 0:
        raise ValueError(f"max_length must be non-negative, got {max_length}")
    num_nodes = csr.number_of_nodes()
    bound = max_length if max_length is not None else num_nodes - 1
    claimed = np.zeros(2 * num_nodes, dtype=bool)
    claimed[source_id] = True
    # Scratch Harary colouring for the vectorised hub checks: camp per node
    # on the last-scattered origin path, -1 elsewhere.  scratch_camps tracks
    # (by identity) which path's colouring currently occupies it.
    camp_scratch = np.full(num_nodes, -1, dtype=np.int8)
    scratch_camps: Optional[Dict[int, int]] = None
    hub_nodes = csr.degrees() >= _CAMP_BATCH_THRESHOLD
    has_hubs = bool(hub_nodes.any())
    #: state id -> (representative path, camps), both in dense ids.
    representative: Dict[int, Tuple[List[int], Dict[int, int]]] = {
        source_id: ([source_id], {source_id: 0})
    }
    positive_depths: Dict[int, int] = {source_id: 0}
    negative_depths: Dict[int, int] = {}
    frontier: List[int] = [source_id]
    depth = 0
    # One-time list conversion of the CSR arrays: the per-candidate balance
    # checks below are pure-Python loops, and list indexing returns cached
    # small ints instead of boxing a numpy scalar per access.
    adjacency: _ListAdjacency = (
        csr.indptr.tolist(),
        csr.indices.tolist(),
        csr.signs.tolist(),
    )
    indptr_list = adjacency[0]
    while frontier and depth < bound:
        states = np.asarray(frontier, dtype=np.int64)
        node_part = states % num_nodes
        parity_part = states // num_nodes  # 0 = positive prefix, 1 = negative
        targets, edge_signs, _origins, counts = _concatenated_neighbor_ranges(
            csr, node_part
        )
        if targets.size == 0:
            break
        origin_parity = np.repeat(parity_part, counts)
        next_parity = np.where(edge_signs > 0, origin_parity, 1 - origin_parity)
        target_states = targets.astype(np.int64) + next_parity * num_nodes
        # Vectorised prefilter: drop every edge whose target state was claimed
        # on an earlier level (the dict search's `state in representative`).
        open_positions = np.flatnonzero(~claimed[target_states])
        candidate_array = targets[open_positions]
        candidate_nodes = candidate_array.tolist()
        candidate_states = target_states[open_positions].tolist()
        candidate_origins = np.repeat(states, counts)[open_positions].tolist()
        # One vectorised gather flags the hub candidates (degree past the
        # batching threshold); hub-free graphs — the common case — skip even
        # that and zip a constant, paying nothing for the adaptivity.
        if has_hubs:
            hub_flags: Iterable[bool] = hub_nodes[candidate_array].tolist()
        else:
            hub_flags = itertools.repeat(False)
        next_frontier: List[int] = []
        for t_node, t_state, o_state, is_hub in zip(
            candidate_nodes, candidate_states, candidate_origins, hub_flags
        ):
            if claimed[t_state]:
                continue  # claimed earlier in this same level
            path, camps = representative[o_state]
            if t_node in camps:
                continue  # revisiting the representative path
            if is_hub and (
                indptr_list[t_node + 1] - indptr_list[t_node] >= 4 * len(camps)
            ):
                # Hub candidate: the adjacency scan dominates, so gather the
                # camps vectorised.  The scratch colouring is scattered once
                # per origin path (identity-tracked) and lazily reset when
                # the next hub check uses a different origin.
                if scratch_camps is not camps:
                    if scratch_camps is not None:
                        for dense in scratch_camps:
                            camp_scratch[dense] = -1
                    for dense, camp in camps.items():
                        camp_scratch[dense] = camp
                    scratch_camps = camps
                balanced, required = _hub_camp_check(csr, t_node, camp_scratch)
                if not balanced:
                    continue  # unbalanced extension — prune
                extended = dict(camps)
                extended[t_node] = required
            else:
                extended = _extend_camps_csr(adjacency, camps, t_node)
                if extended is None:
                    continue  # unbalanced extension — prune
            claimed[t_state] = True
            representative[t_state] = (path + [t_node], extended)
            if t_state < num_nodes:
                positive_depths[t_node] = depth + 1
            else:
                negative_depths[t_node] = depth + 1
            next_frontier.append(t_state)
        frontier = next_frontier
        depth += 1
    return positive_depths, negative_depths


class CSRLengths:
    """Dict-like read view over a dense length array, keyed by node objects.

    Supports the mapping subset the distance oracle uses (``get``,
    ``__contains__``, ``__getitem__``, ``items``); unreachable nodes behave as
    missing keys.
    """

    __slots__ = ("_graph", "_lengths")

    def __init__(self, graph: CSRSignedGraph, lengths: np.ndarray) -> None:
        self._graph = graph
        self._lengths = lengths

    def get(self, node: Node, default=None):
        """Length to ``node``, or ``default`` when unreachable or unknown."""
        dense = self._graph._index.get(node)
        if dense is None:
            return default
        value = self._lengths[dense]
        return default if value == UNREACHABLE else int(value)

    def __getitem__(self, node: Node) -> int:
        value = self.get(node)
        if value is None:
            raise KeyError(node)
        return value

    def __contains__(self, node: Node) -> bool:
        return self.get(node) is not None

    def __len__(self) -> int:
        return int((self._lengths != UNREACHABLE).sum())

    def __iter__(self) -> Iterator[Node]:
        # Without this, Python's legacy iteration protocol would call
        # __getitem__(0), __getitem__(1), ... and raise KeyError — a trap for
        # callers that iterate the dict the small-graph code path returns.
        nodes = self._graph._nodes
        for dense in np.flatnonzero(self._lengths != UNREACHABLE):
            yield nodes[dense]

    def keys(self) -> Iterator[Node]:
        """Iterate over the reachable nodes (dict-style)."""
        return iter(self)

    def items(self):
        """Iterate over ``(node, length)`` pairs for reachable nodes."""
        nodes = self._graph._nodes
        for dense in np.flatnonzero(self._lengths != UNREACHABLE):
            yield nodes[dense], int(self._lengths[dense])
