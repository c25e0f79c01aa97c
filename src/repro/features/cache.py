"""Process-wide cache of encoded attribute slots.

By Eq. (2)-(3) the contrastive features of one attribute depend only on the
pair's two values of it, so the unit this cache holds is a *slot row*: the
``(K, D)`` feature vectors and ``(K,)`` feature mask of one
``(left text, right text)`` value pair.  Training and evaluating a scenario
encodes the same support, target and test pairs many times (once per AdaMEL
variant, baseline and figure that revisits it), and a serving process is
sent the same probe records again; the :class:`EncodingCache` encodes and
stores each distinct value pair of those pair lists once per process.  The
batch pipelines do not use it: :meth:`PairEncoder.encode
<repro.features.encoder.PairEncoder.encode>` encodes their
:class:`~repro.data.records.PairColumns` candidates straight through, since a
bulk arrival's value pairs seldom recur in a later call and hashing every
slot of every corpus into the arena cost more than the reuse saved.

Each encoder configuration has its own *arena*: value-pair key -> row id over
one ``(capacity, K, D)`` array, allocated with ``np.empty`` on the first store
so that pages are only touched as rows are written.  Rows are appended and
never rewritten.  A store that would exceed the byte budget first drops the
least recently used arenas of other configurations, then, if it still does not
fit, starts this arena over with fresh arrays.  A reader that looked ids up
keeps the arrays it read them from, so the rows it gets stay right across a
reset.

Keys are exact: an arena belongs to one encoder fingerprint (schema, feature
kinds, tokenizer and embedder configuration) and one generation of the
:class:`~repro.text.tokenizer.TextTable`, its keys are ``left text id << 32 |
right text id`` there.  A newer generation starts the arena over; an older
one misses and stores nothing, so no id is read where it names another text.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, NamedTuple, Sequence, Tuple

import numpy as np

from ..obs import BoundHandles

__all__ = ["EncodingCache", "get_default_cache"]

# Covers ≈ 120 k slot rows of the benchmark encoder (K = 2, D = 32: 528 B a
# row): the value pairs of a fit's scenario and of a serving process's
# repeated probes.  Batch linkage candidates never reach the cache.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

# Computes the rows of the keys at the given positions: (M, K, D) + (M, K).
RowEncoder = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


class _CacheInstruments(NamedTuple):
    hits: object
    misses: object
    evictions: object
    size_bytes: object
    entries: object


def _bind_cache_instruments(registry) -> _CacheInstruments:
    return _CacheInstruments(
        hits=registry.counter("cache_hits_total", "Encoding cache slot lookups served"),
        misses=registry.counter("cache_misses_total", "Encoding cache slot lookups missed"),
        evictions=registry.counter("cache_evictions_total",
                                   "Slot rows dropped to stay within the byte budget"),
        size_bytes=registry.gauge("cache_size_bytes", "Bytes held by cached slot rows"),
        entries=registry.gauge("cache_entries_count", "Slot rows in the encoding cache"),
    )


class _Arena:
    """Append-only slot rows of one encoder configuration."""

    __slots__ = ("generation", "index", "features", "mask", "count", "row_bytes")

    def __init__(self, generation: int, capacity: int, shape: Tuple[int, ...]) -> None:
        self.generation = generation
        self.index: Dict[Hashable, int] = {}
        self.features = np.empty((capacity,) + shape, dtype=np.float64)
        self.mask = np.empty((capacity, shape[0]), dtype=np.float64)
        self.count = 0
        self.row_bytes = self.features[0].nbytes + self.mask[0].nbytes


class EncodingCache:
    """Byte-bounded arena of encoded slot rows, one per encoder configuration.

    Thread-safe: concurrent serve workers share the process-wide cache.  A
    :meth:`fetch` takes the internal lock once to look its keys up and once to
    store the rows it had to encode; reading the hit rows needs no lock,
    because a row below an arena's ``count`` is never rewritten.

    Parameters
    ----------
    max_bytes:
        Memory budget for the stored rows (features plus mask).
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        # Least recently used first.
        self._arenas: "OrderedDict[str, _Arena]" = OrderedDict()
        self.current_bytes = 0
        self.entries = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._obs = BoundHandles(_bind_cache_instruments)

    def __len__(self) -> int:
        with self._lock:
            return self.entries

    def fetch(self, arena_name: Tuple[str, int], keys: Sequence[Hashable],
              encode: RowEncoder) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(len(keys), K, D)`` rows and ``(len(keys), K)`` mask of ``keys``.

        ``arena_name`` is ``(encoder fingerprint, text-table generation)``
        and ``keys`` (non-empty) are that generation's value-pair keys, one
        per slot.  Rows the arena holds are read from it; ``encode(positions)``
        computes the rows of ``keys[i]`` for every other ``i``, and they are
        stored.  Every key counts as one lookup, a hit or a miss.
        """
        fingerprint, generation = arena_name
        with self._lock:
            arena = self._arenas.get(fingerprint)
            if arena is None or arena.generation != generation:
                ids = np.full(len(keys), -1, dtype=np.intp)
            else:
                self._arenas.move_to_end(fingerprint)
                ids = np.fromiter(map(arena.index.get, keys, itertools.repeat(-1)),
                                  dtype=np.intp, count=len(keys))
                features, mask = arena.features, arena.mask
            missing = np.flatnonzero(ids < 0)
            self.hits += len(keys) - len(missing)
            self.misses += len(missing)
        instruments = self._obs.get()
        if instruments is not None:
            instruments.hits.inc(len(keys) - len(missing))
            instruments.misses.inc(len(missing))
        if not len(missing):
            return features[ids], mask[ids]
        fresh_features, fresh_mask = encode(missing)
        self._store(fingerprint, generation, list(map(keys.__getitem__, missing.tolist())),
                    fresh_features, fresh_mask)
        if len(missing) == len(keys):
            return fresh_features, fresh_mask
        # The arrays read under the lock: a reset since then has not touched them.
        hit = np.flatnonzero(ids >= 0)
        out_features = np.empty((len(keys),) + fresh_features.shape[1:], dtype=np.float64)
        out_mask = np.empty((len(keys),) + fresh_mask.shape[1:], dtype=np.float64)
        out_features[hit] = features[ids[hit]]
        out_mask[hit] = mask[ids[hit]]
        out_features[missing] = fresh_features
        out_mask[missing] = fresh_mask
        return out_features, out_mask

    def _store(self, fingerprint: str, generation: int, keys: Sequence[Hashable],
               features: np.ndarray, mask: np.ndarray) -> None:
        """Append the rows of ``keys`` (repeats stored once) to the arena of
        ``fingerprint``; a newer ``generation`` starts it over, an older one
        stores nothing."""
        row_bytes = features[0].nbytes + mask[0].nbytes
        evicted = 0
        with self._lock:
            arena = self._arenas.get(fingerprint)
            if arena is not None and arena.generation > generation:
                return  # the keys name other texts in the arena's generation
            new = dict(zip(keys, itertools.count()))  # a repeated key: its last position
            if arena is not None and arena.generation == generation:
                for key in new.keys() & arena.index.keys():
                    del new[key]
            needed = len(new) * row_bytes
            # Rows that can never fit must not flush the cache.
            if not new or needed > self.max_bytes:
                return
            if arena is not None and arena.generation != generation:
                evicted += self._drop(fingerprint)
                arena = None
            for other in [name for name in self._arenas if name != fingerprint]:
                if self.current_bytes + needed <= self.max_bytes:
                    break
                evicted += self._drop(other)
            if arena is not None and self.current_bytes + needed > self.max_bytes:
                evicted += self._drop(fingerprint)
                arena = None
            if arena is None:
                arena = _Arena(generation, self.max_bytes // row_bytes, features.shape[1:])
                self._arenas[fingerprint] = arena
            start, stop = arena.count, arena.count + len(new)
            positions = list(new.values())
            arena.features[start:stop] = features[positions]
            arena.mask[start:stop] = mask[positions]
            arena.index.update(zip(new, range(start, stop)))
            arena.count = stop
            self.entries += len(new)
            self.current_bytes += needed
            self.evictions += evicted
            current_bytes, entries = self.current_bytes, self.entries
        instruments = self._obs.get()
        if instruments is not None:
            if evicted:
                instruments.evictions.inc(evicted)
            instruments.size_bytes.set(current_bytes)
            instruments.entries.set(entries)

    def _drop(self, fingerprint: str) -> int:
        """Forget one arena (lock held); returns the rows it held."""
        arena = self._arenas.pop(fingerprint)
        self.current_bytes -= arena.count * arena.row_bytes
        self.entries -= arena.count
        return arena.count

    def clear(self) -> None:
        """Drop every arena and reset the hit/miss counters."""
        with self._lock:
            self._arenas.clear()
            self.current_bytes = 0
            self.entries = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def lookup_counts(self) -> Tuple[int, int]:
        """``(hits, misses)`` read atomically under the cache lock.

        Readers that want a consistent view (the trainer's hit-rate math,
        delta-based accounting across a fit) must use this instead of reading
        the ``hits`` / ``misses`` attributes separately — two unlocked reads
        can straddle a concurrent lookup and tear the pair.
        """
        with self._lock:
            return self.hits, self.misses

    def hit_rate(self) -> float:
        """Fraction of slot lookups served from the cache (0.0 before any)."""
        hits, misses = self.lookup_counts()
        total = hits + misses
        return hits / total if total else 0.0

    def stats(self) -> Dict[str, int]:
        """Counters for diagnostics and benchmark reports (in slot rows)."""
        with self._lock:
            return {
                "entries": self.entries,
                "bytes": self.current_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:
        return (f"EncodingCache(entries={self.entries}, "
                f"bytes={self.current_bytes}, hits={self.hits}, misses={self.misses})")


_DEFAULT_CACHE = EncodingCache()


def get_default_cache() -> EncodingCache:
    """The process-wide cache shared by every encoder unless told otherwise."""
    return _DEFAULT_CACHE
