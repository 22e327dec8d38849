"""``repro.exec`` — the execution-policy layer.

One :class:`ExecutionPolicy` object bundles every knob that used to travel as
loose keyword arguments through the compatibility stack — backend choice,
the auto-backend threshold, cache budgets — and adds the worker-pool dimension:
``workers >= 2`` dispatches per-source kernel batches (signed BFS, distance
sweeps, balanced-path searches) to a persistent process pool that receives
frozen CSR snapshots zero-copy through ``multiprocessing.shared_memory``.
Serial and pooled execution are bit-identical; see the README's
"Execution policies" section and :mod:`repro.exec.pool` for the worker model.
"""

from repro.exec.arena import ResultArena
from repro.exec.kernels import KERNELS, register_kernel
from repro.exec.policy import (
    POLICY_DEFAULT,
    CacheSize,
    ExecutionPolicy,
    executor_for,
    reset_executors,
    resolve_policy,
)
from repro.exec.pool import (
    ExecutorUnavailable,
    ProcessPoolExecutor,
    SnapshotDescriptor,
    shutdown_pools,
)
from repro.exec.serial import Executor, SerialExecutor, serial_executor

__all__ = [
    "CacheSize",
    "ExecutionPolicy",
    "Executor",
    "ExecutorUnavailable",
    "KERNELS",
    "POLICY_DEFAULT",
    "ProcessPoolExecutor",
    "ResultArena",
    "SerialExecutor",
    "SnapshotDescriptor",
    "executor_for",
    "register_kernel",
    "reset_executors",
    "resolve_policy",
    "serial_executor",
    "shutdown_pools",
]
