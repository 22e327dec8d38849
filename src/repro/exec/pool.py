"""The process-pool executor: per-source kernels fanned out over workers.

The per-source traversals behind the Table-2 sweeps and the engine's ``warm``
paths are embarrassingly parallel — every source's BFS/search is independent —
but they all read one shared graph snapshot.  The executor here makes that
shape explicit:

* **Snapshot shipping.**  A frozen :class:`~repro.signed.csr.CSRSignedGraph`
  is published once per (object, generation) as three raw arrays in
  ``multiprocessing.shared_memory`` segments; workers map the segments and
  build zero-copy ``numpy`` views — no pickling of the arrays, no node
  objects (kernels work on dense ids; see :mod:`repro.exec.kernels`).  With
  the ``snapshot_store`` policy knob set, publication is *file-backed*
  instead: the snapshot is saved once into that directory in the
  :mod:`repro.signed.store` format and workers ``numpy.memmap`` the file
  read-only — same keying, same cleanup ledger discipline, bit-identical
  results.  Dict payloads (:class:`~repro.signed.graph.SignedGraph`) fall
  back to a pickled copy shipped through a shared-memory blob, once per
  generation.
* **Generation checking.**  A publication is keyed by the payload's identity
  *and* its ``generation``; a mutated graph (or a fresh snapshot after a
  churn batch) republishes automatically, so workers can never serve results
  against a stale snapshot.
* **Result shipping.**  Set-valued sweeps used to pickle O(n) result arrays
  back to the parent per source; the kernels in
  :data:`repro.exec.arena._ARENA_KERNELS` now write their dense results into
  a per-dispatch ``multiprocessing.shared_memory`` *result arena*
  (chunk-strided rows, written through the ``*_into`` kernel variants) and
  return only compact per-source tokens.  The parent decodes zero-copy row
  views and unlinks the segment immediately; every created segment sits on a
  parent-owned ledger flushed by :func:`shutdown_pools`, so crashed
  dispatches cannot leak ``/dev/shm`` entries.  See :mod:`repro.exec.arena`.
* **Deterministic merging.**  Sources are split into index-ordered chunks,
  dispatched with :meth:`multiprocessing.pool.Pool.map` (which returns
  results in task order regardless of completion order), and concatenated —
  so the merged result list is bit-identical to a serial run however the
  chunks were scheduled.  Each chunk additionally seeds the worker's ``random``
  module from ``(policy seed, chunk index)``, so even randomness-using kernels
  are reproducible and worker-assignment-independent.  The distance-label
  build (:mod:`repro.signed.labels`) rides this same machinery: its
  ``build_labels`` kernel is dispatched over dense source chunks and ships
  landmark BFS rows through the result arena like any other sweep.
* **Graceful degradation.**  If pools or shared memory are unavailable on the
  platform (or a payload cannot be shipped), execution falls back to the
  in-process serial path with a one-time :class:`RuntimeWarning`.  Results
  are unchanged either way.

Pools are persistent and shared per worker count; they shut down atexit or
via :func:`shutdown_pools`.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import random
import warnings
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exec import arena as arena_module
from repro.exec.arena import ResultArena
from repro.exec.kernels import KERNELS
from repro.exec.policy import ExecutionPolicy
from repro.exec.serial import Executor, serial_executor
from repro.signed import store
from repro.signed.csr import CSRSignedGraph
from repro.signed.graph import SignedGraph
from repro.signed.labels import snapshot_labels_for

#: Test hook: set to True to simulate a platform without shared memory.
_DISABLE_SHARED_MEMORY = False

#: Parent-side bound on simultaneously published payloads per pool (older
#: publications are unlinked and republished on demand).
_PUBLISH_BOUND = 4

#: Worker-side bound on cached attached payloads.
_WORKER_CACHE_BOUND = 4


class ExecutorUnavailable(RuntimeError):
    """Raised when a worker pool (or a payload shipment) cannot be set up."""


#: Parent-owned ledger of every shared-memory segment this process created
#: and has not yet unlinked — snapshot publications and in-flight result
#: arenas alike.  Normal operation adds and removes entries symmetrically;
#: :func:`shutdown_pools` flushes whatever is left, so a dispatch that died
#: between segment creation and its cleanup (worker crash, interrupt) cannot
#: leave stale ``/dev/shm`` entries behind once the pools are torn down.
_SEGMENT_LEDGER: Dict[str, object] = {}

#: Already-unlinked segments whose mapping could not be closed yet because a
#: decoded zero-copy view still exports their buffer (possible when a cache
#: full of views dies inside a reference cycle, where the GC may run the
#: arena finalizer before the views' deallocation).  Holding the handle here
#: keeps ``SharedMemory.__del__`` from raising mid-collection; the sweep
#: below retries the close once the exports are really gone.
_RETIRED_SEGMENTS: List[object] = []


def _close_or_retire(shm) -> None:
    """Close a segment's mapping now, or park it for a later retry."""
    try:
        shm.close()
    except BufferError:  # a decoded view still maps the buffer
        _RETIRED_SEGMENTS.append(shm)
    except Exception:  # pragma: no cover - best-effort cleanup
        pass


def _sweep_retired_segments() -> None:
    """Retry closing parked segment mappings whose views have since died."""
    still_open: List[object] = []
    for shm in _RETIRED_SEGMENTS:
        try:
            shm.close()
        except BufferError:
            still_open.append(shm)
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
    _RETIRED_SEGMENTS[:] = still_open


def _ledger_discard(shm, unlink: bool = True) -> None:
    """Drop ``shm`` from the ledger and release it (best-effort)."""
    _SEGMENT_LEDGER.pop(shm.name, None)
    if unlink:
        try:
            shm.unlink()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
    _close_or_retire(shm)


def _flush_segment_ledger() -> None:
    """Unlink every segment still on the ledger (crash/interrupt leftovers)."""
    for shm in list(_SEGMENT_LEDGER.values()):
        _ledger_discard(shm)
    _sweep_retired_segments()


#: Parent-owned ledger of snapshot-store files published for workers and not
#: yet unlinked — the file-backed counterpart of :data:`_SEGMENT_LEDGER`.
#: Normal operation removes entries when a publication is released;
#: :func:`shutdown_pools` flushes the rest, so a crashed dispatch cannot
#: strand ``*.store`` files in the policy's ``snapshot_store`` directory.
_STORE_FILE_LEDGER: Dict[str, None] = {}


def _store_discard(path: str, unlink: bool = True) -> None:
    """Drop ``path`` from the store-file ledger and unlink it (best-effort)."""
    _STORE_FILE_LEDGER.pop(path, None)
    if unlink:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


def _flush_store_ledger() -> None:
    """Unlink every published store file still on the ledger, plus any
    in-flight store temp files (crash/interrupt leftovers)."""
    for path in list(_STORE_FILE_LEDGER):
        _store_discard(path)
    store.flush_temp_files()


#: Degradation stages already warned about, shared across every executor
#: instance in the process.  A freshly constructed relation (hence executor)
#: on a pool-less host must not re-warn on every construction — one
#: RuntimeWarning per failure mode per process.
#: :func:`repro.exec.policy.reset_executors` clears it.
_DEGRADE_WARNED: set = set()


def _require_shared_memory():
    """Import ``multiprocessing.shared_memory`` or explain why we cannot."""
    if _DISABLE_SHARED_MEMORY:
        raise ExecutorUnavailable("multiprocessing.shared_memory is disabled")
    try:
        from multiprocessing import shared_memory
    except ImportError as error:  # pragma: no cover - platform-specific
        raise ExecutorUnavailable(
            f"multiprocessing.shared_memory is unavailable: {error}"
        ) from error
    return shared_memory


# ----------------------------------------------------------------- descriptors


@dataclass(frozen=True)
class _ShmArray:
    """One shared-memory segment holding a flat array (or a pickle blob)."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    size: int = 0  # used bytes for pickle blobs (segments round up)


@dataclass(frozen=True)
class SnapshotDescriptor:
    """What a worker needs to reconstruct a shipped payload.

    ``kind`` is ``"csr"`` (three array segments + node count), ``"pickle"``
    (one blob segment holding a pickled :class:`SignedGraph`), or ``"store"``
    (no segments: ``store_path`` names a :mod:`repro.signed.store` file the
    worker ``numpy.memmap``\\ s read-only — the file-backed publish mode of
    the ``snapshot_store`` policy knob).  The ``publish_id`` is unique per
    publication, which is what worker-side caches key on — a republished
    (mutated) payload always gets a fresh id.
    """

    publish_id: int
    kind: str
    segments: Tuple[_ShmArray, ...]
    num_nodes: int = 0
    store_path: Optional[str] = None


# ------------------------------------------------------------------ worker side

#: Worker-process cache: publish_id -> (payload object, open shm handles).
_WORKER_PAYLOADS: "OrderedDict[int, Tuple[object, list]]" = OrderedDict()

#: Attachments whose buffers may still be referenced by evicted payloads; kept
#: open (bounded by _WORKER_CACHE_BOUND evictions per snapshot size class).
_RETIRED_HANDLES: List[object] = []


def _init_worker() -> None:
    """Pool initializer: keep workers quiet on Ctrl-C (the parent handles it)."""
    import signal

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _untrack_attachment(shm) -> None:
    """Stop a spawn-mode worker's resource tracker from owning an attachment.

    The parent process owns every segment (it created it and unlinks it).
    Under ``spawn`` each worker runs its *own* resource tracker, and the
    attach-time registration would make that tracker unlink the segment when
    the worker exits — out from under the parent.  Under ``fork`` (and
    ``forkserver``) the tracker process is shared with the parent, duplicate
    registrations collapse in its name set, and unregistering here would
    instead erase the parent's accounting — so we leave it alone.
    """
    try:  # pragma: no cover - accounting only, behaviourally invisible
        import multiprocessing as mp
        from multiprocessing import resource_tracker

        if mp.get_start_method(allow_none=True) != "spawn":
            return
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _attach_payload(descriptor: SnapshotDescriptor):
    """Reconstruct (or fetch from cache) the payload behind ``descriptor``."""
    cached = _WORKER_PAYLOADS.get(descriptor.publish_id)
    if cached is not None:
        _WORKER_PAYLOADS.move_to_end(descriptor.publish_id)
        return cached[0]
    if descriptor.kind == "store":
        # File-backed publication: map the published store file read-only.
        # The node table is skipped — like the shm path, workers get dense
        # placeholder nodes and an empty index; kernels touch only the flat
        # arrays.  The memmaps keep the file readable even after the parent
        # unlinks it on release (POSIX semantics, same as shm segments).
        payload = store.load_snapshot(descriptor.store_path, mmap=True, node_table=False)
        _WORKER_PAYLOADS[descriptor.publish_id] = (payload, [])
        while len(_WORKER_PAYLOADS) > _WORKER_CACHE_BOUND:
            _evict_oldest_payload()
        return payload
    shared_memory = _require_shared_memory()
    if descriptor.kind == "csr":
        handles = []
        arrays = []
        for spec in descriptor.segments:
            shm = shared_memory.SharedMemory(name=spec.name)
            _untrack_attachment(shm)
            handles.append(shm)
            arrays.append(
                np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
            )
        indptr, indices, signs = arrays
        # Dense placeholder nodes: the csr_* kernels only ever touch the flat
        # arrays and dense ids, so the worker never needs the real node
        # objects (which may not even be picklable).
        payload = CSRSignedGraph(
            indptr,
            indices,
            signs,
            nodes=list(range(descriptor.num_nodes)),
            index={},
        )
    else:
        spec = descriptor.segments[0]
        shm = shared_memory.SharedMemory(name=spec.name)
        _untrack_attachment(shm)
        payload = pickle.loads(bytes(shm.buf[: spec.size]))
        shm.close()
        handles = []
    _WORKER_PAYLOADS[descriptor.publish_id] = (payload, handles)
    while len(_WORKER_PAYLOADS) > _WORKER_CACHE_BOUND:
        _evict_oldest_payload()
    return payload


def _evict_oldest_payload() -> None:
    """Drop the least-recently-used cached payload, closing its attachments."""
    _, (_old_payload, old_handles) = _WORKER_PAYLOADS.popitem(last=False)
    for handle in old_handles:
        try:
            handle.close()
        except BufferError:  # a stray view still references the buffer
            _RETIRED_HANDLES.append(handle)


def _chunk_seed(base_seed: int, chunk_index: int) -> int:
    """Deterministic per-chunk RNG seed, independent of worker assignment."""
    return (1_000_003 * (base_seed + 1) + chunk_index) & 0x7FFF_FFFF


def _run_chunk(task):
    """Worker entry point: attach the payload, seed, run one kernel chunk.

    With a :class:`~repro.exec.arena.ResultArena` attached to the task, the
    chunk's dense results are written straight into the shared segment
    (chunk-strided rows starting at ``start``) and only the compact token
    list crosses the pipe; without one, the plain kernel's results are
    returned (pickled) as before.
    """
    descriptor, kernel_name, sources, params, chunk_index, base_seed, arena, start = task
    payload = _attach_payload(descriptor)
    random.seed(_chunk_seed(base_seed, chunk_index))
    if arena is None:
        return KERNELS[kernel_name](payload, sources, params)
    return _run_arena_chunk(arena, payload, sources, params, start)


def _run_arena_chunk(arena: ResultArena, payload, sources, params, start: int):
    """Attach the dispatch's result arena and write this chunk's rows."""
    shared_memory = _require_shared_memory()
    shm = shared_memory.SharedMemory(name=arena.name)
    _untrack_attachment(shm)
    try:
        planes, base = arena_module.map_planes(arena, shm.buf)
        tokens = arena_module.write_chunk(arena, planes, start, payload, sources, params)
        del planes, base  # release the buffer exports before closing
        return tokens
    finally:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a writer kept a stray view
            _RETIRED_HANDLES.append(shm)


# ------------------------------------------------------------------ parent side


class _Published:
    """Parent-side record of one shipped payload.

    ``store_dir`` records which ``snapshot_store`` setting the publication
    was built under (``None`` = shared memory): executors with different
    settings share one pool handle, and a publication is only reused by an
    executor whose mode matches — otherwise it is released and rebuilt.
    """

    __slots__ = ("descriptor", "handles", "generation", "ref", "store_dir")

    def __init__(self, descriptor, handles, generation, ref, store_dir=None) -> None:
        self.descriptor = descriptor
        self.handles = handles
        self.generation = generation
        self.ref = ref
        self.store_dir = store_dir


class _PoolHandle:
    """One persistent worker pool plus its published-payload registry.

    Handles are shared per worker count across every
    :class:`ProcessPoolExecutor` bound to a policy with that count, so a
    relation, its oracle and its engine all ship each snapshot exactly once.
    """

    def __init__(self, workers: int) -> None:
        _require_shared_memory()  # fail fast before forking anything
        import multiprocessing as mp

        try:
            # Start the parent's resource tracker *before* forking workers:
            # forked workers then inherit it, so their attach-time
            # registrations land in the tracker that also sees the parent's
            # create/unlink — one shared ledger instead of per-worker
            # trackers that would mis-report the parent's segments as leaked.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker is an optimisation here
            pass
        try:
            context = mp.get_context()
            self.pool = context.Pool(processes=workers, initializer=_init_worker)
        except (ImportError, OSError, ValueError) as error:
            raise ExecutorUnavailable(f"cannot start a worker pool: {error}") from error
        self.workers = workers
        self.closed = False
        self.published: Dict[int, _Published] = {}
        self.publish_order: deque = deque()
        #: id(payload) -> weakref of payloads whose shipment failed (e.g.
        #: unpicklable nodes); they run serially without re-warning.  The
        #: weakref guards against CPython id reuse: a *new* object at a
        #: recycled address must not inherit the failure.
        self.failed_payloads: Dict[int, Optional[weakref.ref]] = {}
        self._next_publish_id = 0
        #: Result arenas allocated over this pool's lifetime (introspection).
        self.arenas_created = 0

    def mark_failed(self, payload) -> None:
        """Remember that ``payload`` cannot be shipped (serial from now on)."""
        key = id(payload)
        try:
            ref: Optional[weakref.ref] = weakref.ref(
                payload, lambda _ref, key=key: self.failed_payloads.pop(key, None)
            )
        except TypeError:  # pragma: no cover - non-weakrefable payload type
            ref = None
        self.failed_payloads[key] = ref

    def is_failed(self, payload) -> bool:
        """True iff this very object (not a recycled id) failed to ship."""
        key = id(payload)
        if key not in self.failed_payloads:
            return False
        ref = self.failed_payloads[key]
        if ref is None:
            return True
        if ref() is payload:
            return True
        # Stale entry surviving a not-yet-fired callback: drop it.
        self.failed_payloads.pop(key, None)
        return False

    # ------------------------------------------------------------- publishing

    def publish(self, payload, store_dir: Optional[str] = None) -> SnapshotDescriptor:
        """Ship ``payload`` to the workers (reusing a live publication).

        A publication is reused only while the payload object is the same,
        its ``generation`` is unchanged *and* the publish mode matches — a
        churn batch on a :class:`SignedGraph`, or the fresh snapshot it
        produces, republishes automatically (the generation check of the
        tentpole), and so does a policy switch between shared-memory and
        file-backed (``store_dir``) publishing.
        """
        key = id(payload)
        generation = getattr(payload, "generation", None)
        entry = self.published.get(key)
        if (
            entry is not None
            and entry.ref() is payload
            and entry.generation == generation
            and entry.store_dir == store_dir
        ):
            return entry.descriptor
        if entry is not None:
            self.release(key)
        try:
            descriptor, handles = self._build(payload, store_dir)
        except ExecutorUnavailable:
            raise
        except Exception as error:
            raise ExecutorUnavailable(f"cannot ship payload to workers: {error}") from error
        self.published[key] = _Published(
            descriptor,
            handles,
            generation,
            weakref.ref(payload, lambda _ref, key=key: self.release(key)),
            store_dir=store_dir,
        )
        # Invariant: publish_order holds each *live* key exactly once, oldest
        # publish first.  A republish (same object, new generation) moves its
        # key to the back instead of duplicating it, and keys whose
        # publication died (weakref callback) are dropped — so the bound below
        # counts live publications, never the one just created.
        if key in self.publish_order:
            self.publish_order.remove(key)
        self.publish_order.append(key)
        if len(self.publish_order) > len(self.published):
            self.publish_order = deque(
                k for k in self.publish_order if k in self.published
            )
        while len(self.publish_order) > _PUBLISH_BOUND:
            self.release(self.publish_order.popleft())
        return descriptor

    def _build(
        self, payload, store_dir: Optional[str] = None
    ) -> Tuple[SnapshotDescriptor, list]:
        publish_id = self._next_publish_id
        self._next_publish_id += 1
        if store_dir is not None and not isinstance(payload, SignedGraph):
            # File-backed publication: persist the CSR snapshot once into the
            # policy's store directory; workers memmap it read-only.  The
            # file joins the store-file ledger the moment it exists, so even
            # a dispatch that dies before release cannot strand it past
            # shutdown_pools().  Save failures surface as ExecutorUnavailable
            # through publish()'s wrapper → the usual serial degradation.
            # (Dict payloads keep the pickle-blob path: the store format is
            # CSR-specific.)
            path = os.path.join(
                store_dir, f"snapshot-{os.getpid()}-{publish_id}.store"
            )
            # Carry the snapshot's label index (if an oracle built one) as
            # the .store v2 label section: workers and later cold starts load
            # it from the file instead of rebuilding.
            store.save_snapshot(payload, path, labels=snapshot_labels_for(payload))
            _STORE_FILE_LEDGER[path] = None
            descriptor = SnapshotDescriptor(
                publish_id=publish_id,
                kind="store",
                segments=(),
                num_nodes=payload.number_of_nodes(),
                store_path=path,
            )
            return descriptor, []
        shared_memory = _require_shared_memory()
        if isinstance(payload, SignedGraph):
            # copy() strips the CSR cache, delta log and touched-node maps —
            # workers only need the adjacency (same dict insertion order, so
            # dict-kernel traversal order is bit-identical to the parent's).
            blob = pickle.dumps(payload.copy(), protocol=pickle.HIGHEST_PROTOCOL)
            # Dict kernels receive *sources pickled per task*, so they only
            # work when unpickled node copies compare equal to the originals
            # (value semantics: ints, strings, tuples, value dataclasses).
            # Nodes with identity-based __eq__/__hash__ pickle fine but would
            # miss every lookup inside the worker — probe a sample and refuse
            # the shipment so the policy degrades to serial instead.
            roundtrip = pickle.loads(blob)
            import itertools

            for node in itertools.islice(payload, 16):
                if node not in roundtrip:
                    raise ExecutorUnavailable(
                        "graph nodes do not survive pickling with value "
                        f"equality (e.g. {node!r}); dict-backend pool "
                        "execution needs value-semantic nodes"
                    )
            shm = shared_memory.SharedMemory(create=True, size=max(1, len(blob)))
            _SEGMENT_LEDGER[shm.name] = shm
            shm.buf[: len(blob)] = blob
            descriptor = SnapshotDescriptor(
                publish_id=publish_id,
                kind="pickle",
                segments=(_ShmArray(shm.name, (), "B", len(blob)),),
            )
            return descriptor, [shm]
        # Anything else is a CSR snapshot: ship the three flat arrays zero-copy.
        segments = []
        handles = []
        for array in (payload.indptr, payload.indices, payload.signs):
            array = np.ascontiguousarray(array)
            shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
            _SEGMENT_LEDGER[shm.name] = shm
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
            view[...] = array
            del view
            segments.append(_ShmArray(shm.name, array.shape, array.dtype.str))
            handles.append(shm)
        descriptor = SnapshotDescriptor(
            publish_id=publish_id,
            kind="csr",
            segments=tuple(segments),
            num_nodes=payload.number_of_nodes(),
        )
        return descriptor, handles

    def release(self, key: int) -> None:
        """Unlink one publication (workers keep their mapped copies working)."""
        entry = self.published.pop(key, None)
        if entry is None:
            return
        for shm in entry.handles:
            _ledger_discard(shm)
        path = entry.descriptor.store_path
        if path is not None:
            _store_discard(path)

    # ----------------------------------------------------------- result arenas

    def create_arena(
        self, kernel: str, num_sources: int, num_nodes: int, budget: int
    ) -> Tuple[ResultArena, object]:
        """Allocate the shared-memory result segment for one dispatch.

        The segment goes on the parent-owned ledger immediately — before any
        worker sees its name — so even a dispatch that dies between creation
        and cleanup is flushed by :func:`shutdown_pools`.  Raises
        :class:`ExecutorUnavailable` when the layout exceeds ``budget`` bytes
        (``0`` disables the check) or the platform cannot allocate; callers
        then fall back to pickled result shipping, not to serial execution.
        """
        shared_memory = _require_shared_memory()
        size = arena_module.arena_nbytes(kernel, num_sources, num_nodes)
        if budget and size > budget:
            raise ExecutorUnavailable(
                f"result arena of {size} bytes exceeds the "
                f"{budget}-byte arena budget"
            )
        try:
            shm = shared_memory.SharedMemory(create=True, size=max(1, size))
        except OSError as error:
            raise ExecutorUnavailable(f"cannot allocate a result arena: {error}") from error
        _SEGMENT_LEDGER[shm.name] = shm
        self.arenas_created += 1
        return ResultArena(
            name=shm.name, kernel=kernel, num_sources=num_sources, num_nodes=num_nodes
        ), shm

    def release_all(self) -> None:
        """Unlink every publication (next dispatch republishes)."""
        for key in list(self.published):
            self.release(key)

    # --------------------------------------------------------------- shutdown

    def shutdown(self) -> None:
        """Terminate the pool and unlink every shared-memory segment."""
        if self.closed:
            return
        self.closed = True
        self.release_all()
        try:
            self.pool.terminate()
            self.pool.join()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass


_POOL_HANDLES: Dict[int, _PoolHandle] = {}


def _shared_pool_handle(workers: int) -> _PoolHandle:
    """The persistent pool of ``workers`` processes (created on first use)."""
    handle = _POOL_HANDLES.get(workers)
    if handle is None or handle.closed:
        handle = _PoolHandle(workers)
        _POOL_HANDLES[workers] = handle
    return handle


def shutdown_pools() -> None:
    """Terminate every pool and unlink all shared memory (atexit-safe).

    Besides the per-pool teardown, this flushes the parent-owned segment
    ledger — the safety net for segments whose dispatch never reached its own
    cleanup (a worker that died mid-``Pool.map``, an interrupt between arena
    creation and decode), so no stale ``/dev/shm`` entries survive it.
    """
    for handle in list(_POOL_HANDLES.values()):
        handle.shutdown()
    _POOL_HANDLES.clear()
    _flush_segment_ledger()
    _flush_store_ledger()


atexit.register(shutdown_pools)


class ProcessPoolExecutor(Executor):
    """Dispatch kernel batches over a persistent pool of worker processes.

    Bound to one :class:`~repro.exec.policy.ExecutionPolicy` (for worker
    count, chunk size, dispatch threshold and seed); the underlying OS pool
    and the published snapshots are shared across executors with the same
    worker count.  Every result list is bit-identical to
    :class:`~repro.exec.serial.SerialExecutor` on the same inputs — the pool
    only changes *where* the pure kernels run.
    """

    def __init__(self, policy: ExecutionPolicy) -> None:
        self._policy = policy
        self.workers = policy.resolved_workers()
        self._handle = _shared_pool_handle(self.workers)

    @property
    def closed(self) -> bool:
        """True once the underlying pool has been shut down."""
        return self._handle.closed

    @property
    def uses_result_arena(self) -> bool:
        """Whether eligible dispatches ship results through shared memory."""
        return self._policy.result_arena

    def _degrade(self, stage: str, error: Exception) -> None:
        # The seen-set is module-level (not per executor): every freshly built
        # relation constructs its own executor, and a degraded host would
        # otherwise re-warn once per relation instead of once per process.
        if stage in _DEGRADE_WARNED:
            return
        _DEGRADE_WARNED.add(stage)
        warnings.warn(
            f"parallel execution degraded to serial ({stage}: {error})",
            RuntimeWarning,
            stacklevel=4,
        )

    def map_kernel(
        self,
        kernel: str,
        payload,
        sources: Sequence,
        params: Optional[dict] = None,
    ) -> List:
        source_list = list(sources)
        if not source_list:
            return []
        handle = self._handle
        if (
            handle.closed
            or len(source_list) < max(2, self._policy.min_parallel_sources)
            or handle.is_failed(payload)
        ):
            return serial_executor().map_kernel(kernel, payload, source_list, params)
        try:
            descriptor = handle.publish(
                payload, store_dir=self._policy.snapshot_store
            )
        except ExecutorUnavailable as error:
            handle.mark_failed(payload)
            self._degrade("publish", error)
            return serial_executor().map_kernel(kernel, payload, source_list, params)
        # Set-valued CSR kernels ship their dense results through a
        # shared-memory arena instead of pickled arrays: one segment per
        # dispatch, chunk-strided rows, compact tokens over the pipe.  Arena
        # failures (budget, allocation) fall back to pickled shipping — the
        # dispatch stays parallel and the results are identical either way.
        arena = arena_shm = None
        if (
            self._policy.result_arena
            and descriptor.kind in ("csr", "store")
            and arena_module.supports(kernel)
        ):
            try:
                arena, arena_shm = handle.create_arena(
                    kernel,
                    len(source_list),
                    descriptor.num_nodes,
                    self._policy.arena_budget_bytes,
                )
            except ExecutorUnavailable:
                arena = arena_shm = None
        chunk = self._policy.chunk_size or max(
            1, math.ceil(len(source_list) / (self.workers * 4))
        )
        shared_params = dict(params or {})
        tasks = [
            (
                descriptor,
                kernel,
                source_list[start : start + chunk],
                shared_params,
                index,
                self._policy.seed,
                arena,
                start,
            )
            for index, start in enumerate(range(0, len(source_list), chunk))
        ]
        try:
            # Pool.map returns results in *task* order whatever the completion
            # order, so the concatenation below is deterministic by design.
            chunk_results = handle.pool.map(_run_chunk, tasks, chunksize=1)
        except (OSError, EOFError) as error:
            if arena_shm is not None:
                _ledger_discard(arena_shm)
            handle.shutdown()
            self._degrade("dispatch", error)
            return serial_executor().map_kernel(kernel, payload, source_list, params)
        except BaseException:
            # Worker exceptions (and interrupts) propagate, but the dispatch's
            # arena segment must not outlive it — without this, a kernel crash
            # mid-map leaked the segment until process exit.
            if arena_shm is not None:
                _ledger_discard(arena_shm)
            raise
        flat = [result for chunk_result in chunk_results for result in chunk_result]
        if arena is None:
            return flat
        _sweep_retired_segments()
        results = arena_module.decode_results(
            arena, arena_shm, flat, release=_close_or_retire
        )
        # Decoded: drop the name from /dev/shm right away (the mapping stays
        # readable until the last decoded view dies; see decode_results).
        _SEGMENT_LEDGER.pop(arena_shm.name, None)
        try:
            arena_shm.unlink()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
        return results

    def invalidate(self) -> None:
        """Unlink every published snapshot (the next dispatch republishes)."""
        self._handle.release_all()

    def close(self) -> None:
        """Shut down the shared pool this executor dispatches to."""
        self._handle.shutdown()

    def __repr__(self) -> str:
        return f"ProcessPoolExecutor(workers={self.workers}, closed={self.closed})"
