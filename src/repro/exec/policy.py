"""The :class:`ExecutionPolicy`: one object for every execution knob.

Before this layer existed, the choices "which backend runs the per-source
kernels", "when does the CSR backend pay", "how big may each cache grow"
were sprinkled across the relations, the distance oracle, the engine and the
experiment runners as loose keyword arguments (``backend="auto"``,
``bfs_cache_size=...``, ``batched=False``).  Adding a *parallelism* dimension
to that string plumbing would have made it unmaintainable, so all of it now
lives here:

* :class:`ExecutionPolicy` — a frozen, hashable bundle of backend choice,
  adaptive thresholds, worker-pool shape and cache budgets.  Every relation,
  oracle and engine holds exactly one and consults it instead of ad-hoc
  parameters.
* :func:`resolve_policy` — the shim that maps the legacy keyword arguments
  (which remain supported, see the README's deprecation note) onto a policy.
* :func:`executor_for` — policy in, executor out: a shared
  :class:`~repro.exec.serial.SerialExecutor` for serial policies, a
  process-pool executor (:mod:`repro.exec.pool`) for ``workers >= 2``, with a
  one-time-warning fallback to serial when pools cannot be created on the
  platform.

The module is importable without numpy (the CSR-specific threshold defaults
to ``None`` = "the library constant", resolved lazily at the use site).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Dict, Optional, Union

#: A cache-size knob: an explicit entry bound, ``None`` for unbounded, or
#: ``"auto"`` for the byte-aware bound scaled by graph size (the same type the
#: relations have always accepted — see :mod:`repro.utils.lru`).
CacheSize = Union[int, None, str]


class _PolicyDefault:
    """Sentinel for 'take this knob from the policy' in legacy signatures.

    ``None`` cannot play that role because it is a meaningful cache-size value
    (unbounded), so the legacy cache-size keywords default to this sentinel
    instead.
    """

    _instance: Optional["_PolicyDefault"] = None

    def __new__(cls) -> "_PolicyDefault":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<policy default>"


#: The sentinel instance legacy keyword arguments default to.
POLICY_DEFAULT = _PolicyDefault()

_VALID_BACKENDS = ("auto", "dict", "csr")

_VALID_DISTANCE_INDEX = ("auto", "labels", "bfs")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How per-source kernels are executed and how much their caches may hold.

    Instances are immutable and hashable; derive variants with
    :func:`dataclasses.replace` or :func:`resolve_policy`.

    Parameters
    ----------
    backend:
        ``"auto"`` (size- and diameter-adaptive), ``"dict"`` or ``"csr"`` —
        the kernel backend the SP* relations and the SBPH heuristic run on.
    batched:
        When false, every engine query runs the legacy per-pair code path
        (the reference mode the equivalence tests compare against).
    workers:
        ``0`` or ``1`` — serial execution (the default); ``>= 2`` — dispatch
        per-source kernel batches to a persistent pool of that many worker
        processes; ``-1`` — one worker per CPU.  Results are bit-identical to
        serial execution in every mode.
    chunk_size:
        Sources per worker task.  ``None`` derives a chunk size from the
        batch size and worker count (about four tasks per worker, so stragglers
        even out without drowning the batch in per-task IPC).
    min_parallel_sources:
        Batches smaller than this run in-process even under a pool policy —
        shipping a two-source batch to workers costs more than running it.
    result_arena:
        When true (the default), set-valued CSR kernel dispatches ship their
        dense results through a per-dispatch ``multiprocessing.shared_memory``
        *result arena* (workers write rows in place, the parent reads
        zero-copy views) instead of pickling O(n) arrays per source back
        through the pipe.  Results are bit-identical either way; turn it off
        to benchmark or to sidestep a platform's shared-memory limits.
    arena_budget_bytes:
        Upper bound on one dispatch's result-arena segment; a dispatch whose
        layout would exceed it falls back to pickled result shipping (still
        parallel).  ``0`` disables the check.  The default (256 MiB) admits a
        full 50k-node, 150-source BFS sweep with headroom.
    snapshot_store:
        ``None`` (the default) publishes snapshots to workers through
        ``multiprocessing.shared_memory`` segments.  A directory path
        switches publishing to *file-backed* mode: the parent saves the CSR
        snapshot once into that directory (:mod:`repro.signed.store` format)
        and workers ``numpy.memmap`` the file read-only — same
        ``(identity, generation)`` keying, same churn republish, same ledger
        cleanup, bit-identical results.  Use it to keep huge snapshots out
        of ``/dev/shm``, to share one page-cache copy across many worker
        generations, or to leave a warm store file behind for the next run.
    csr_auto_level_threshold:
        Override for
        :data:`repro.compatibility.shortest_path.CSR_AUTO_LEVEL_THRESHOLD`
        (``None`` keeps the library default): the probe eccentricity above
        which ``backend="auto"`` stays on the dict backend.
    distance_index:
        Whether :class:`~repro.compatibility.distance.DistanceOracle` may
        serve queries from the precomputed distance-label index
        (:mod:`repro.signed.labels`) instead of running a BFS.  ``"bfs"``
        (the default) never consults the index; ``"auto"`` consults it
        whenever the oracle would use the CSR backend anyway; ``"labels"``
        always consults it (degrading to the dict-BFS path with a one-time
        :class:`RuntimeWarning` when numpy is missing).  Batched queries
        build/refresh the index lazily per graph generation; per-pair
        queries only consult an index that is already fresh and fall back to
        exact BFS otherwise.  Answers are exact in every mode — landmark
        bounds are used only when provably tight.
    label_budget_bytes:
        Byte budget for the label planes.  An exact 2-hop build that would
        exceed it falls back to landmark sketches; the landmark row count is
        clamped to fit.  The default (64 MiB) holds exact labels for the 50k
        benchmark graph with headroom.
    compatible_cache_size / bfs_cache_size / result_cache_size /
    distance_cache_size / mask_cache_size:
        The per-source cache budgets previously passed to each layer
        individually (compatible sets, SP* BFS results, balanced-path search
        results, distance maps, engine rule masks).  Same semantics as
        before: an ``int`` bound, ``None`` for unbounded, ``"auto"`` for the
        byte-aware scaled bound.
    seed:
        Base seed for the deterministic per-chunk RNG seeding inside worker
        processes (kernels that draw randomness see the same stream for the
        same chunk regardless of which worker runs it or in which order
        chunks complete).
    """

    backend: str = "auto"
    batched: bool = True
    workers: int = 0
    chunk_size: Optional[int] = None
    min_parallel_sources: int = 4
    result_arena: bool = True
    arena_budget_bytes: int = 256 * 2**20
    snapshot_store: Optional[str] = None
    csr_auto_level_threshold: Optional[int] = None
    distance_index: str = "bfs"
    label_budget_bytes: int = 64 * 2**20
    compatible_cache_size: CacheSize = "auto"
    bfs_cache_size: CacheSize = "auto"
    result_cache_size: CacheSize = "auto"
    distance_cache_size: CacheSize = "auto"
    mask_cache_size: CacheSize = "auto"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.backend not in _VALID_BACKENDS:
            raise ValueError(
                f"backend must be one of {_VALID_BACKENDS}, got {self.backend!r}"
            )
        validate_workers(self.workers)
        if self.chunk_size is not None:
            validate_chunk_size(self.chunk_size)
        if self.min_parallel_sources < 1:
            raise ValueError(
                f"min_parallel_sources must be >= 1, got {self.min_parallel_sources}"
            )
        if self.arena_budget_bytes < 0:
            raise ValueError(
                "arena_budget_bytes must be >= 0 (0 disables the budget), "
                f"got {self.arena_budget_bytes}"
            )
        if self.snapshot_store is not None:
            validate_snapshot_store(self.snapshot_store)
        if self.distance_index not in _VALID_DISTANCE_INDEX:
            raise ValueError(
                f"distance_index must be one of {_VALID_DISTANCE_INDEX}, "
                f"got {self.distance_index!r}"
            )
        if (
            not isinstance(self.label_budget_bytes, int)
            or isinstance(self.label_budget_bytes, bool)
            or self.label_budget_bytes < 1
        ):
            raise ValueError(
                "label_budget_bytes must be a positive byte budget for the "
                f"distance-label planes; got {self.label_budget_bytes!r}"
            )

    # ------------------------------------------------------------- resolution

    def resolved_workers(self) -> int:
        """The effective worker count (``-1`` resolves to the CPU count)."""
        if self.workers == -1:
            import os

            return max(1, os.cpu_count() or 1)
        return max(1, self.workers)

    @property
    def parallel(self) -> bool:
        """True iff this policy dispatches kernel batches to a worker pool."""
        return self.resolved_workers() > 1

    def executor(self):
        """The executor serving this policy (see :func:`executor_for`)."""
        return executor_for(self)


def resolve_policy(
    policy: Optional[ExecutionPolicy] = None, **overrides
) -> ExecutionPolicy:
    """Merge legacy keyword arguments onto an :class:`ExecutionPolicy`.

    ``policy=None`` starts from the default policy.  An override equal to
    :data:`POLICY_DEFAULT` keeps the policy's value, as does ``None`` for the
    non-cache knobs (``backend``, ``batched``, ...) where ``None`` has no
    legacy meaning; anything else replaces the field.  Cache-size knobs use
    the sentinel precisely so that an explicit legacy ``None`` (= unbounded)
    still gets through.  This is the single shim behind every deprecated
    per-layer keyword, so "legacy kwarg wins over the policy field when
    explicitly given" holds uniformly.
    """
    base = policy if policy is not None else ExecutionPolicy()
    updates = {}
    for name, value in overrides.items():
        if value is POLICY_DEFAULT:
            continue
        if value is None and not name.endswith("_cache_size"):
            continue
        updates[name] = value
    # replace() re-runs ExecutionPolicy.__post_init__, which is the single
    # validation point for every knob — overrides included.
    return replace(base, **updates) if updates else base


def validate_workers(workers, name: str = "workers") -> None:
    """Raise :class:`ValueError` unless ``workers`` is a legal worker count.

    The single source of the rule and its message: every construction path —
    direct :class:`ExecutionPolicy` instantiation, :func:`resolve_policy`
    overrides (the funnel behind the experiment configs and legacy kwargs)
    and the CLI's parse-time validators — goes through it, so a bad value
    dies with one explanation of what the knob means instead of an opaque
    ``ValueError`` surfacing from ``multiprocessing`` at first dispatch.
    """
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < -1:
        raise ValueError(
            f"{name} must be -1 (one per CPU), 0 or 1 (serial), or >= 2 "
            f"(pool size); got {workers!r}"
        )


def validate_chunk_size(chunk_size, name: str = "chunk_size") -> None:
    """Raise :class:`ValueError` unless ``chunk_size`` is a legal task size."""
    if not isinstance(chunk_size, int) or isinstance(chunk_size, bool) or chunk_size < 1:
        raise ValueError(
            f"{name} must be a positive number of sources per worker "
            f"task (or omitted to derive one per dispatch); got {chunk_size!r}"
        )


def validate_snapshot_store(snapshot_store, name: str = "snapshot_store") -> None:
    """Raise :class:`ValueError` unless ``snapshot_store`` names a usable directory.

    The directory must already exist (publishing must not silently create
    trees on mistyped paths) and be a directory — the same single-source
    rule-and-message discipline as :func:`validate_workers`, shared by
    policy construction and the CLI's ``--snapshot-store`` validators.
    """
    import os

    if not isinstance(snapshot_store, str) or not snapshot_store:
        raise ValueError(
            f"{name} must be the path of an existing directory to publish "
            f"snapshot files into; got {snapshot_store!r}"
        )
    if not os.path.isdir(snapshot_store):
        raise ValueError(
            f"{name} directory does not exist: {snapshot_store!r} (create it "
            "first; the pool will not create store directories implicitly)"
        )


# --------------------------------------------------------------------- lookup

#: Process-pool executors keyed by policy (each wraps a pool shared per
#: worker count); serial policies all share one stateless executor.
_EXECUTORS: Dict[ExecutionPolicy, object] = {}

#: Set after pool creation failed once: later pool policies degrade to serial
#: without retrying (and without re-warning).
_POOLS_UNAVAILABLE = False


def executor_for(policy: ExecutionPolicy):
    """Return the executor that serves ``policy``.

    Serial policies (``workers <= 1``) share one
    :class:`~repro.exec.serial.SerialExecutor`.  Pool policies get a
    :class:`~repro.exec.pool.ProcessPoolExecutor` bound to the policy (pools
    themselves are shared per worker count).  If the platform cannot run a
    pool — no ``multiprocessing.shared_memory``, no process support — the
    policy degrades to the serial executor with a one-time
    :class:`RuntimeWarning`, mirroring the numpy-free backend degradation.
    """
    global _POOLS_UNAVAILABLE
    from repro.exec.serial import serial_executor

    if not policy.parallel or _POOLS_UNAVAILABLE:
        return serial_executor()
    executor = _EXECUTORS.get(policy)
    if executor is None or getattr(executor, "closed", False):
        from repro.exec.pool import ExecutorUnavailable, ProcessPoolExecutor

        try:
            executor = ProcessPoolExecutor(policy)
        except ExecutorUnavailable as error:
            _POOLS_UNAVAILABLE = True
            warnings.warn(
                f"process pools are unavailable on this platform ({error}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            return serial_executor()
        _EXECUTORS[policy] = executor
    return executor


def reset_executors() -> None:
    """Close every pool and forget cached executors (tests, forked servers)."""
    global _POOLS_UNAVAILABLE
    from repro.exec import pool

    _EXECUTORS.clear()
    _POOLS_UNAVAILABLE = False
    pool._DEGRADE_WARNED.clear()
    pool.shutdown_pools()
