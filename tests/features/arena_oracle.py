"""Oracle for the ``EncodingCache`` arena: rows that are a function of their key,
and the structural invariants the byte budget rests on."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.features import EncodingCache


def reference_rows(keys: Sequence[Tuple[str, str]], kinds: int = 2, dim: int = 4
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """``(len(keys), kinds, dim)`` features and ``(len(keys), kinds)`` masks
    of keys ``("l<i>", "r<j>")``: every entry is ``1000 i + j`` (mask: its parity)."""
    values = np.array([int(left[1:]) * 1000 + int(right[1:]) for left, right in keys],
                      dtype=np.float64)
    features = np.broadcast_to(values[:, None, None], (len(keys), kinds, dim)).copy()
    return features, np.broadcast_to(values[:, None] % 2, (len(keys), kinds)).copy()


def fetch_checked(cache: EncodingCache, keys: Sequence[Tuple[str, str]], fingerprint: str = "enc",
                  kinds: int = 2, dim: int = 4) -> None:
    """Fetch ``keys`` and assert that every returned row is its key's."""
    features, mask = cache.fetch(
        (fingerprint, 0), keys,
        lambda positions: reference_rows([keys[i] for i in positions], kinds, dim))
    expected_features, expected_mask = reference_rows(keys, kinds, dim)
    assert np.array_equal(features, expected_features)
    assert np.array_equal(mask, expected_mask)


def cache_invariants_hold(cache: EncodingCache) -> bool:
    """Held bytes = the arenas' rows <= the budget, and every id names a held row."""
    with cache._lock:
        arenas = list(cache._arenas.values())
        held = sum(arena.count * arena.row_bytes for arena in arenas)
        ids_in_range = all(0 <= row < arena.count for arena in arenas
                           for row in arena.index.values())
        return (cache.current_bytes == held <= cache.max_bytes and ids_in_range
                and cache.entries == sum(arena.count for arena in arenas))
