"""The named per-source kernels the executors run.

A *kernel* is a pure function ``kernel(payload, sources, params) -> list`` —
one result per source, no shared mutable state, no reliance on the process it
runs in.  That purity is the whole contract: the serial executor calls the
very same function in-process that the pool executor runs inside worker
processes, so pool results are bit-identical to serial results by
construction, not by luck.

Payload conventions:

* ``csr_*`` kernels receive a :class:`~repro.signed.csr.CSRSignedGraph` and
  **dense integer source ids**; they only touch the snapshot's flat arrays
  (via the dense cores in :mod:`repro.signed.csr`), never the node list or
  index.  This is what allows the pool to ship a snapshot as three raw arrays
  through ``multiprocessing.shared_memory`` — zero-copy, no node objects.
* ``dict_*`` kernels receive a :class:`~repro.signed.graph.SignedGraph` and
  the original node objects (the pool ships the graph pickled, once per
  generation); results are the ordinary dict-backed result objects.

Kernels are looked up by name so worker processes can resolve them after a
plain module import; extensions register theirs with :func:`register_kernel`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

#: Kernel registry: name -> ``kernel(payload, sources, params)``.
KERNELS: Dict[str, Callable] = {}


def register_kernel(name: str, function: Callable = None):
    """Register ``function`` (or decorate one) as the kernel called ``name``.

    Kernels must be importable module-level functions when used with a
    ``spawn``-based pool; under ``fork`` (the Linux default) the registry is
    inherited, so locally registered kernels work too.
    """
    if function is None:
        def decorator(fn: Callable) -> Callable:
            register_kernel(name, fn)
            return fn

        return decorator
    if name in KERNELS and KERNELS[name] is not function:
        raise ValueError(f"kernel {name!r} is already registered")
    KERNELS[name] = function
    return function


# ---------------------------------------------------------------- CSR kernels
# numpy (and repro.signed.csr) is imported inside the kernels so that merely
# importing repro.exec stays possible on numpy-free installs.


@register_kernel("csr_signed_bfs")
def csr_signed_bfs(csr, sources: Sequence[int], params: dict) -> List:
    """Algorithm 1 from many dense sources: ``(lengths, positive, negative)``
    array triples (``None`` marks an int64 overflow for the caller's dict
    fallback)."""
    from repro.signed.csr import signed_bfs_dense_batch

    return signed_bfs_dense_batch(
        csr, sources, skip_overflow=params.get("skip_overflow", True)
    )


@register_kernel("csr_path_lengths")
def csr_path_lengths(csr, sources: Sequence[int], params: dict) -> List:
    """Sign-agnostic BFS distances from many dense sources (one array each)."""
    from repro.signed.csr import shortest_path_lengths_dense_batch

    return shortest_path_lengths_dense_batch(csr, sources)


# Landmark BFS rows for the distance-label index: the same sign-agnostic
# distance array per source, registered under its own name so the label build
# is dispatched, arena-shipped and accounted apart from ad-hoc distance sweeps
# (see repro.signed.labels).
register_kernel("build_labels", csr_path_lengths)


@register_kernel("csr_sbph")
def csr_sbph(csr, sources: Sequence[int], params: dict) -> List:
    """SBPH heuristic search per dense source: ``(positive_depths,
    negative_depths)`` dicts keyed by dense ids (the caller remaps to nodes)."""
    from repro.signed.csr import balanced_heuristic_depths

    max_length = params.get("max_length")
    return [
        balanced_heuristic_depths(csr, source, max_length=max_length)
        for source in sources
    ]


@register_kernel("csr_compatible_degrees")
def csr_compatible_degrees(csr, sources: Sequence[int], params: dict) -> List:
    """Compatibility degrees per dense source, reduced inside the worker.

    Runs Algorithm 1 per source and immediately applies the named SP* pair
    rule plus the reachability/self exclusions, shipping back **one integer
    per source** instead of three O(n) count arrays — the transfer-thrifty
    path behind the Table-2 sampled statistics.  ``None`` marks an int64
    overflow (the caller falls back to the dict backend for that source).
    The count equals
    :meth:`repro.signed.csr.CSRSignedBFSResult.compatible_count` on the same
    arrays, bit for bit.
    """
    from repro.signed.csr import UNREACHABLE, signed_bfs_dense_batch

    rule = _pair_rule_mask_for(params["rule"])
    triples = signed_bfs_dense_batch(csr, sources, skip_overflow=True)
    counts: List = []
    for source, triple in zip(sources, triples):
        if triple is None:
            counts.append(None)
            continue
        lengths, positive, negative = triple
        mask = rule(positive, negative) & (lengths != UNREACHABLE)
        mask[source] = False
        counts.append(int(mask.sum()))
    return counts


@register_kernel("csr_compatible_masks")
def csr_compatible_masks(csr, sources: Sequence[int], params: dict) -> List:
    """Compatible-set bitmaps per dense source, packed inside the worker.

    Runs Algorithm 1 per source, applies the named SP* pair rule plus the
    reachability exclusion, sets the source's own bit (the compatible set
    always contains its source) and packs the boolean mask into
    ``ceil(n / 8)`` bytes with :func:`numpy.packbits` — so a 50k-node sweep
    ships ~6 KB per source instead of pickled O(n) id arrays, and the arena
    path ships the same bytes zero-copy.  ``None`` marks an int64 overflow
    (the caller resolves that source on the dict backend).  Unpacking a
    bitmap yields exactly the membership of the serial path's
    ``compatible_nodes(rule_mask) + {source}``.
    """
    from repro.signed.csr import UNREACHABLE, signed_bfs_dense_batch
    from repro.utils.bitset import pack_mask

    rule = _pair_rule_mask_for(params["rule"])
    triples = signed_bfs_dense_batch(csr, sources, skip_overflow=True)
    masks: List = []
    for source, triple in zip(sources, triples):
        if triple is None:
            masks.append(None)
            continue
        lengths, positive, negative = triple
        mask = rule(positive, negative) & (lengths != UNREACHABLE)
        mask[source] = True
        masks.append(pack_mask(mask))
    return masks


def _pair_rule_mask_for(name: str):
    """The vectorised SP* pair rule registered under ``name`` (SPA/SPM/SPO)."""
    from repro.compatibility.shortest_path import (
        AllShortestPathsCompatibility,
        MajorityShortestPathsCompatibility,
        OneShortestPathCompatibility,
    )

    rules = {
        AllShortestPathsCompatibility.name: AllShortestPathsCompatibility._pair_rule_mask,
        MajorityShortestPathsCompatibility.name: MajorityShortestPathsCompatibility._pair_rule_mask,
        OneShortestPathCompatibility.name: OneShortestPathCompatibility._pair_rule_mask,
    }
    return rules[name]


# --------------------------------------------------------------- dict kernels


@register_kernel("dict_signed_bfs")
def dict_signed_bfs(graph, sources: Sequence, params: dict) -> List:
    """Algorithm 1 per source on the dict backend (:class:`SignedBFSResult`)."""
    from repro.signed.paths import signed_bfs

    return [signed_bfs(graph, source) for source in sources]


@register_kernel("dict_path_lengths")
def dict_path_lengths(graph, sources: Sequence, params: dict) -> List:
    """Sign-agnostic BFS distances per source (plain dicts)."""
    from repro.signed.paths import shortest_path_lengths

    return [shortest_path_lengths(graph, source) for source in sources]


@register_kernel("dict_walk_lengths")
def dict_walk_lengths(graph, sources: Sequence, params: dict) -> List:
    """Signed double-cover walk lengths per source:
    ``(positive_lengths, negative_lengths)`` dict pairs."""
    from repro.signed.paths import shortest_signed_walk_lengths

    return [shortest_signed_walk_lengths(graph, source) for source in sources]


@register_kernel("dict_balanced_search")
def dict_balanced_search(graph, sources: Sequence, params: dict) -> List:
    """Balanced-path search per source (:class:`BalancedPathResult`).

    ``params``: ``exact`` selects the exhaustive SBP enumeration versus the
    SBPH heuristic; ``max_length`` / ``max_expansions`` mirror
    :class:`~repro.signed.paths.BalancedPathSearch`.  A fresh search object is
    built per call, so results match the relation's own searches exactly.
    """
    from repro.signed.paths import BalancedPathSearch

    search = BalancedPathSearch(
        graph,
        max_length=params.get("max_length"),
        max_expansions=params.get("max_expansions", 2_000_000),
    )
    if params.get("exact", False):
        return [search.search_exact(source) for source in sources]
    return [search.search_heuristic(source) for source in sources]


#: The degradation contract: every CSR kernel's dict-backend equivalent.
#:
#: When numpy is missing or a payload has no CSR view, the executor (and the
#: compatibility layers above it) answer with the mapped ``dict_*`` kernel —
#: per-source, arbitrary-precision, pure python.  ``build_labels`` degrades to
#: plain per-source distances (the label index itself refuses to build without
#: numpy), and both compatible-set kernels degrade to the per-source signed
#: BFS the dict backend counts from.  ``repro-teams analyze`` enforces that
#: this table stays total over the registry (kernel-registry-parity).
SERIAL_EQUIVALENTS: Dict[str, str] = {
    "csr_signed_bfs": "dict_signed_bfs",
    "csr_path_lengths": "dict_path_lengths",
    "build_labels": "dict_path_lengths",
    "csr_sbph": "dict_balanced_search",
    "csr_compatible_degrees": "dict_signed_bfs",
    "csr_compatible_masks": "dict_signed_bfs",
}
