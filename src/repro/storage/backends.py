"""SQLite-backed posting lists: the cold-shard bucket store.

The three blocking indexes of :class:`~repro.serve.EntityStore` delegate
bucket membership to a pluggable store
(:class:`~repro.pipeline.index.MemoryBucketStore` by default).
:class:`SQLiteIndexBackend` supplies the same interface on top of one
SQLite database — on disk, bucket state pages instead of living in RAM —
selected with ``StoreConfig(backend="sqlite")``.

Semantics are bit-identical to the in-memory store, cap-for-cap:

* a bucket grows to at most ``cap + 1`` rows — the extra row marks the
  overflow while bounding storage (enforced *in* the INSERT, a single
  guarded statement);
* probes see only live buckets (``size <= cap``).

A probe is a single SQL pass: it annotates every posting row under the
probed keys with its bucket size via a window function (``COUNT(*) OVER
(PARTITION BY key)``) and filters on it, so overflow semantics are evaluated
inside the database — the traversal-structure-in-SQL encoding the DMR-XPath
line of work demonstrates.  Only streamed indexes use a bucket store; a
bulk-built index keeps its own posting columns.

Layout: one ``postings`` table shared by all indexes of a store
(``index_id`` discriminates), rows in ``rowid`` order = insertion order,
keys JSON-encoded (injective across the ``str`` and ``(band, value)``
key types the indexes use).

Durability note: the WAL + snapshots of :mod:`repro.storage.engine` are
the source of truth; this database is the paging layer for bucket state.
A fresh backend therefore *clears* its tables (a new ``EntityStore`` is
empty by definition) and recovery refills it through
``load_state_dict``/replay.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from itertools import islice
from pathlib import Path
from typing import (Dict, Hashable, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, Union)

__all__ = ["SQLiteIndexBackend", "SQLiteBucketStore"]

_PROBE_CHUNK = 400  # stay far below SQLite's bound-parameter limit


def _encode_key(key: Hashable) -> str:
    """Injective text encoding of a bucket key (str or flat tuple)."""
    if isinstance(key, tuple):
        key = list(key)
    return json.dumps(key, separators=(",", ":"), sort_keys=True)


def _decode_key(text: str) -> Hashable:
    value = json.loads(text)
    return tuple(value) if isinstance(value, list) else value


class SQLiteIndexBackend:
    """One SQLite database hosting the bucket stores of a store's indexes.

    ``path=None`` keeps the database in memory (same SQL path, no file) —
    useful for parity tests; a real path puts bucket state on disk.

    All statements run behind one lock: callers (the entity store) already
    serialize writers, but queries may probe from other threads.
    """

    def __init__(self, path: Union[str, Path, None] = None) -> None:
        self.path = Path(path) if path is not None else None
        target = str(self.path) if self.path is not None else ":memory:"
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(target, check_same_thread=False,
                                     isolation_level=None)
        self._stores: List["SQLiteBucketStore"] = []
        with self._lock:
            if self.path is not None:
                # Crash safety comes from the engine's WAL; the backend only
                # needs internal consistency, which SQLite's own WAL gives
                # cheaply.
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS postings ("
                " index_id INTEGER NOT NULL,"
                " key TEXT NOT NULL,"
                " position INTEGER NOT NULL)")
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS postings_by_key"
                " ON postings(index_id, key)")
            # The engine's snapshots/WAL own durability; a fresh backend
            # starts empty and is refilled by load_state_dict/replay.
            self._conn.execute("DELETE FROM postings")

    def bucket_store(self) -> "SQLiteBucketStore":
        """A new bucket store on the next free ``index_id``."""
        store = SQLiteBucketStore(self, len(self._stores))
        self._stores.append(store)
        return store

    def bucket_stores(self, count: int) -> List["SQLiteBucketStore"]:
        return [self.bucket_store() for _ in range(count)]

    def execute(self, sql: str, params: Sequence[object] = ()) -> sqlite3.Cursor:
        with self._lock:
            return self._conn.execute(sql, params)

    def executemany(self, sql: str, rows: Iterable[Sequence[object]]) -> None:
        with self._lock:
            self._conn.execute("BEGIN")
            try:
                self._conn.executemany(sql, rows)
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")

    def close(self) -> None:
        with self._lock:
            self._conn.close()


class SQLiteBucketStore:
    """The :class:`~repro.pipeline.index.MemoryBucketStore` interface over
    one ``index_id`` partition of a :class:`SQLiteIndexBackend`."""

    def __init__(self, backend: SQLiteIndexBackend, index_id: int) -> None:
        self._backend = backend
        self._index_id = index_id

    # ------------------------------------------------------------------ #
    # Bucket-store interface
    # ------------------------------------------------------------------ #
    def members(self, key: Hashable) -> List[int]:
        rows = self._backend.execute(
            "SELECT position FROM postings WHERE index_id = ? AND key = ?"
            " ORDER BY rowid",
            (self._index_id, _encode_key(key))).fetchall()
        return [row[0] for row in rows]

    def add(self, key: Hashable, position: int, cap: int) -> None:
        # Guarded append in one statement: grow while size <= cap, so the
        # bucket holds at most cap + 1 rows (the overflow marker) — the
        # exact bound MemoryBucketStore.add enforces.
        encoded = _encode_key(key)
        self._backend.execute(
            "INSERT INTO postings(index_id, key, position)"
            " SELECT ?, ?, ?"
            " WHERE (SELECT COUNT(*) FROM postings"
            "        WHERE index_id = ? AND key = ?) <= ?",
            (self._index_id, encoded, position, self._index_id, encoded, cap))

    def probe(self, keys: Iterable[Hashable], cap: int) -> Set[int]:
        positions: Set[int] = set()
        encoded = [_encode_key(key) for key in keys]
        iterator = iter(encoded)
        while True:
            chunk = list(islice(iterator, _PROBE_CHUNK))
            if not chunk:
                break
            placeholders = ",".join("?" for _ in chunk)
            rows = self._backend.execute(
                "WITH sized AS ("
                " SELECT position, COUNT(*) OVER (PARTITION BY key)"
                "        AS bucket_size"
                " FROM postings"
                f" WHERE index_id = ? AND key IN ({placeholders}))"
                " SELECT DISTINCT position FROM sized WHERE bucket_size <= ?",
                [self._index_id, *chunk, cap]).fetchall()
            positions.update(row[0] for row in rows)
        return positions

    def sizes(self) -> Dict[Hashable, int]:
        rows = self._backend.execute(
            "SELECT key, COUNT(*) FROM postings WHERE index_id = ?"
            " GROUP BY key", (self._index_id,)).fetchall()
        return {_decode_key(key): count for key, count in rows}

    def overflowed(self, cap: int) -> int:
        row = self._backend.execute(
            "SELECT COUNT(*) FROM (SELECT key FROM postings"
            " WHERE index_id = ? GROUP BY key HAVING COUNT(*) > ?)",
            (self._index_id, cap)).fetchone()
        return int(row[0])

    def entries(self) -> Iterator[Tuple[Hashable, List[int]]]:
        # rowid order means each key's first occurrence follows bucket
        # creation order and members stay in insertion order — the same
        # iteration order MemoryBucketStore (an insertion-ordered dict)
        # produces.
        rows = self._backend.execute(
            "SELECT key, position FROM postings WHERE index_id = ?"
            " ORDER BY rowid", (self._index_id,)).fetchall()
        buckets: Dict[str, List[int]] = {}
        for key, position in rows:
            buckets.setdefault(key, []).append(position)
        return iter([(_decode_key(key), members)
                     for key, members in buckets.items()])

    def load(self, entries: Iterable[Tuple[Hashable, Sequence[int]]]) -> None:
        self._backend.execute("DELETE FROM postings WHERE index_id = ?",
                              (self._index_id,))
        self._backend.executemany(
            "INSERT INTO postings(index_id, key, position) VALUES (?, ?, ?)",
            ((self._index_id, _encode_key(key), int(position))
             for key, members in entries for position in members))

    def __len__(self) -> int:
        row = self._backend.execute(
            "SELECT COUNT(DISTINCT key) FROM postings WHERE index_id = ?",
            (self._index_id,)).fetchone()
        return int(row[0])
