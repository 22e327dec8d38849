"""The result arena: shared-memory shipping of set-valued kernel results.

The pool executor's scalar sweeps (compatibility degrees) already reduce
inside the workers, but the *set-valued* sweeps — ``csr_signed_bfs`` triples
behind ``batch_bfs``/``batch_compatible_sets``, the distance oracle's
``csr_path_lengths`` maps behind ``warm``, the SBPH depth maps behind the
balanced reverse sweeps — used to pickle O(n) arrays back to the parent for
every source.  At 50k nodes that is ~1 MB per source of serialisation both
sides of the pipe, and it was the parallel ceiling the ROADMAP named.

This module is the codec layer that removes it:

* **One arena per dispatch.**  The parent allocates a single
  ``multiprocessing.shared_memory`` segment sized for the whole source batch
  (see :func:`arena_nbytes`), laid out as per-kernel *planes* — for
  ``csr_signed_bfs`` a ``(k, n)`` int32 lengths plane followed by two
  ``(k, n)`` int64 count planes, for ``csr_compatible_masks`` a single
  ``(k, ceil(n/8))`` packed-bitmap plane, and so on.  Plane offsets are
  8-byte aligned so every view is a properly aligned ndarray.
* **Chunk-strided writes.**  Each worker task knows its chunk's start
  position in the dispatch, attaches the segment by name, and writes its
  sources' rows straight through the write-into-buffer kernel variants
  (:func:`repro.signed.csr.signed_bfs_dense_batch_into` and friends) — the
  traversal's working arrays *are* the shipped result.  The task returns only
  a compact per-source token (``True``, or ``None`` marking an int64
  overflow), so worker→parent pickling is O(k), not O(k·n).
* **Zero-copy reads.**  The parent maps the same segment once, builds the
  plane views, and decodes each source's result straight off them
  (:func:`decode_results`) — no pickle ever touches the dense data.
  Results that are consumed immediately (compatible-set bitmaps, rebuilt
  SBPH depth maps) decode as zero-copy views; results headed for long-lived
  LRU caches (BFS triples, distance maps) are copied out row by row, so a
  surviving cache entry owns exactly its own bytes instead of pinning the
  whole k-row segment.  The segment is unlinked as soon as the dispatch
  completes (no ``/dev/shm`` entry outlives it) and the mapping itself is
  closed by a ``weakref.finalize`` when the last decoded view dies.

The arena is an optimisation of *transport only*: tokens plus decoded rows
reproduce exactly what the plain kernel would have returned, so pool-vs-serial
bit-identity is preserved by construction.  Kernels without an entry here
(every ``dict_*`` kernel, scalar reductions, locally registered test kernels)
simply ship their results pickled, as before.

numpy is imported lazily throughout, keeping ``import repro.exec`` working on
numpy-free installs (where no CSR kernel — arena or not — ever runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class _ResultPlane:
    """One dense result component: ``width`` items of ``dtype`` per source."""

    dtype: str
    width: int


@dataclass(frozen=True)
class ResultArena:
    """What a worker needs to write (and the parent to read) one dispatch's
    results through shared memory.

    The layout is fully determined by ``(kernel, num_sources, num_nodes)`` —
    both sides recompute it with :func:`_plane_layout` — so the descriptor
    stays a few dozen bytes however large the batch is.  ``name`` is the
    shared-memory segment the parent created (and owns: workers attach,
    write their chunk's rows, and close; only the parent ever unlinks).
    """

    name: str
    kernel: str
    num_sources: int
    num_nodes: int


def mask_width(num_nodes: int) -> int:
    """Bytes per packed compatible-set bitmap row (``ceil(n / 8)``)."""
    from repro.utils.bitset import mask_nbytes

    return mask_nbytes(num_nodes)


def _plane_specs(kernel: str, num_nodes: int) -> Tuple[_ResultPlane, ...]:
    """The per-source result layout of ``kernel`` on an ``n``-node snapshot."""
    if kernel == "csr_signed_bfs":
        return (
            _ResultPlane("<i4", num_nodes),  # lengths
            _ResultPlane("<i8", num_nodes),  # positive counts
            _ResultPlane("<i8", num_nodes),  # negative counts
        )
    if kernel in ("csr_path_lengths", "build_labels"):
        return (_ResultPlane("<i4", num_nodes),)
    if kernel == "csr_sbph":
        return (
            _ResultPlane("<i4", num_nodes),  # positive depths (UNREACHABLE = absent)
            _ResultPlane("<i4", num_nodes),  # negative depths
        )
    if kernel == "csr_compatible_masks":
        return (_ResultPlane("|u1", mask_width(num_nodes)),)
    raise KeyError(f"kernel {kernel!r} has no result-arena layout")


def supports(kernel: str) -> bool:
    """True iff ``kernel``'s results can ship through a result arena."""
    return kernel in _ARENA_KERNELS


_ARENA_KERNELS = frozenset(
    {
        "csr_signed_bfs",
        "csr_path_lengths",
        "build_labels",
        "csr_sbph",
        "csr_compatible_masks",
    }
)


def _plane_layout(kernel: str, num_sources: int, num_nodes: int):
    """``[(spec, byte offset, byte length), ...]`` plus the total arena size.

    Offsets are rounded up to 8-byte boundaries so the int64 planes map to
    aligned views whatever the source count times the int32 plane width.
    """
    import numpy as np

    layout = []
    offset = 0
    for spec in _plane_specs(kernel, num_nodes):
        offset = (offset + 7) & ~7
        nbytes = np.dtype(spec.dtype).itemsize * spec.width * num_sources
        layout.append((spec, offset, nbytes))
        offset += nbytes
    return layout, offset


def arena_nbytes(kernel: str, num_sources: int, num_nodes: int) -> int:
    """Total segment size one dispatch of ``kernel`` needs, in bytes."""
    return _plane_layout(kernel, num_sources, num_nodes)[1]


def map_planes(arena: ResultArena, buffer):
    """``(planes, base)``: the ``(k, width)`` views over an attached segment.

    ``base`` is the single flat uint8 array every plane (and therefore every
    decoded row) is a view of — it is the one object that exports the shared
    memory's buffer, which is what lets the parent hang the segment's
    lifetime off it with a ``weakref.finalize``.
    """
    import numpy as np

    base = np.frombuffer(buffer, dtype=np.uint8)
    layout, _total = _plane_layout(arena.kernel, arena.num_sources, arena.num_nodes)
    planes = []
    for spec, offset, nbytes in layout:
        planes.append(
            base[offset : offset + nbytes]
            .view(spec.dtype)
            .reshape(arena.num_sources, spec.width)
        )
    return planes, base


# ------------------------------------------------------------------ worker side


def write_chunk(
    arena: ResultArena, planes: List, start: int, payload, sources: Sequence, params: dict
) -> List:
    """Run ``arena.kernel`` over ``sources``, writing rows ``start + i``.

    Returns the compact per-source token list the worker ships back instead
    of the dense results (``True`` per completed row; ``None`` marks an int64
    overflow whose row the parent must resolve on the dict backend).
    """
    return _WRITERS[arena.kernel](planes, start, payload, sources, params)


def _write_signed_bfs(planes, start, csr, sources, params) -> List:
    from repro.signed.csr import signed_bfs_dense_batch_into

    stop = start + len(sources)
    return signed_bfs_dense_batch_into(
        csr,
        sources,
        planes[0][start:stop],
        planes[1][start:stop],
        planes[2][start:stop],
        skip_overflow=params.get("skip_overflow", True),
    )


def _write_path_lengths(planes, start, csr, sources, params) -> List:
    from repro.signed.csr import shortest_path_lengths_dense_batch_into

    return shortest_path_lengths_dense_batch_into(
        csr, sources, planes[0][start : start + len(sources)]
    )


def _write_sbph(planes, start, csr, sources, params) -> List:
    from repro.signed.csr import UNREACHABLE, balanced_heuristic_depths

    max_length = params.get("max_length")
    positive_plane, negative_plane = planes
    for row, source in enumerate(sources, start=start):
        positive_depths, negative_depths = balanced_heuristic_depths(
            csr, source, max_length=max_length
        )
        # Sentinel-filled dense rows: absent nodes stay UNREACHABLE, found
        # nodes carry their depth — the parent rebuilds the depth maps from
        # one flatnonzero scan per row.
        positive_plane[row].fill(UNREACHABLE)
        negative_plane[row].fill(UNREACHABLE)
        if positive_depths:
            positive_plane[row][list(positive_depths)] = list(positive_depths.values())
        if negative_depths:
            negative_plane[row][list(negative_depths)] = list(negative_depths.values())
    return [True] * len(sources)


def _write_compatible_masks(planes, start, csr, sources, params) -> List:
    # Delegates to the plain kernel so arena and pickled shipping produce the
    # very same packed bytes; a bitmap row is ceil(n/8) bytes, so the copy is
    # negligible next to the per-source traversal.
    from repro.exec.kernels import KERNELS

    rows = KERNELS["csr_compatible_masks"](csr, sources, params)
    tokens: List = []
    plane = planes[0]
    for row, packed in enumerate(rows, start=start):
        if packed is None:
            tokens.append(None)
            continue
        plane[row][:] = packed
        tokens.append(True)
    return tokens


_WRITERS: Dict[str, Callable] = {
    "csr_signed_bfs": _write_signed_bfs,
    "csr_path_lengths": _write_path_lengths,
    # The label build ships the same per-source distance rows.
    "build_labels": _write_path_lengths,
    "csr_sbph": _write_sbph,
    "csr_compatible_masks": _write_compatible_masks,
}


# ------------------------------------------------------------------ parent side


def decode_results(
    arena: ResultArena, shm, tokens: Sequence, release: Optional[Callable] = None
) -> List:
    """Materialise the dispatch's result list from the mapped arena.

    Each slot reproduces exactly what the plain kernel would have returned
    for that source — bitmap rows come back as zero-copy views into the
    segment, BFS triples and distance maps as per-row copies (they outlive
    the dispatch in LRU caches), dict-shaped results (SBPH depth maps) are
    rebuilt from their sentinel rows.  ``release(shm)`` is invoked
    automatically once the last
    decoded view is garbage-collected (the caller unlinks the name right
    after this returns, so nothing lingers in ``/dev/shm`` either way); the
    pool passes a closer that can defer past views dying inside reference
    cycles.
    """
    import weakref

    planes, base = map_planes(arena, shm.buf)
    decoder = _DECODERS[arena.kernel]
    results = [decoder(planes, position, token) for position, token in enumerate(tokens)]
    # `base` is the only exporter of the shared-memory buffer; every decoded
    # view keeps it alive through its .base chain, so the release fires
    # exactly when the last consumer (cache entry, result object) lets go.
    weakref.finalize(base, release if release is not None else _close_segment, shm)
    return results


def _close_segment(shm) -> None:
    try:  # pragma: no cover - exercised only at GC time
        shm.close()
    except Exception:
        pass


def _decode_signed_bfs(planes, position, token):
    if token is None:
        return None
    # Rows are copied out of the mapped segment: batch_bfs results live in
    # long-lived LRU caches, and a view would pin the whole k-row segment
    # (and defeat the cache's per-entry byte accounting) for as long as any
    # single row survived.  One memcpy per row is noise next to the pickling
    # round-trip this path replaces.
    return (
        planes[0][position].copy(),
        planes[1][position].copy(),
        planes[2][position].copy(),
    )


def _decode_path_lengths(planes, position, token):
    # Copied for the same reason as the BFS triples: distance maps are cached
    # (DistanceOracle._bfs_cache) far beyond the dispatch's lifetime.
    return planes[0][position].copy()


def _decode_sbph(planes, position, token):
    import numpy as np

    from repro.signed.csr import UNREACHABLE

    positive_row = planes[0][position]
    negative_row = planes[1][position]
    positive = {
        int(dense): int(positive_row[dense])
        for dense in np.flatnonzero(positive_row != UNREACHABLE)
    }
    negative = {
        int(dense): int(negative_row[dense])
        for dense in np.flatnonzero(negative_row != UNREACHABLE)
    }
    return positive, negative


def _decode_compatible_masks(planes, position, token):
    if token is None:
        return None
    return planes[0][position]


_DECODERS: Dict[str, Callable] = {
    "csr_signed_bfs": _decode_signed_bfs,
    "csr_path_lengths": _decode_path_lengths,
    "build_labels": _decode_path_lengths,
    "csr_sbph": _decode_sbph,
    "csr_compatible_masks": _decode_compatible_masks,
}
