"""repro.storage — durability under the serve layer.

A write-ahead log (:mod:`~repro.storage.wal`), compacted snapshots
(:mod:`~repro.storage.snapshots`), the :class:`Storage` engine tying them
around an :class:`~repro.serve.EntityStore`
(:mod:`~repro.storage.engine`), and an advisory directory lock
guaranteeing one live engine per data dir (:mod:`~repro.storage.locks`).
The store's blocking buckets live in memory and are persisted only as part
of its snapshots; WAL replay refills them.  The engine, the WAL and the snapshot
writer call :func:`repro.resilience.faults.check` at six ``storage.*`` fault
sites; the recovery tests kill a child process at each of them.

See ``docs/storage.md`` for the on-disk formats and the recovery
invariants, and ``docs/resilience.md`` for the failure modes
(:class:`StorageReadOnly`, :class:`StorageLocked`).
"""

from __future__ import annotations

from .engine import (META_FILENAME, RecoveryReport, STORAGE_FORMAT_VERSION,
                     Storage, StorageConfig, StorageError, StorageLocked,
                     StorageReadOnly)
from .locks import DirectoryLock
from .snapshots import SnapshotManager
from .wal import WALAppend, WALError, WriteAheadLog

__all__ = [
    "Storage", "StorageConfig", "StorageError", "StorageLocked",
    "StorageReadOnly", "RecoveryReport",
    "STORAGE_FORMAT_VERSION", "META_FILENAME", "DirectoryLock",
    "WriteAheadLog", "WALAppend", "WALError",
    "SnapshotManager",
]
