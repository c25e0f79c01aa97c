"""Deterministic feature hashing of tokens and character n-grams.

The paper embeds word tokens with pretrained 300-dimensional FastText vectors.
FastText's defining property — that out-of-vocabulary words still receive
meaningful vectors because they are composed of character n-gram vectors — is
what the AdaMEL experiments depend on (abbreviations such as "N. D." must stay
close to "Neil Diamond").  Offline we reproduce that property with the hashing
trick: every character n-gram is hashed into a fixed-size table of random but
deterministic Gaussian vectors.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["stable_hash", "stable_hashes", "char_ngrams", "HashedVectorTable"]

# Bucket vectors are a pure function of (dim, num_buckets, seed, bucket), so
# the lazily generated vectors are shared process-wide across all table
# instances with the same configuration.  Trainers construct a fresh embedder
# (and thus a fresh table) per fit; sharing keeps the hot vocabulary warm.
_SHARED_BUCKET_CACHES: Dict[Tuple[int, int, int], Dict[int, np.ndarray]] = {}

_FNV_OFFSET = 1469598103934665603
_FNV_PRIME = 1099511628211
_MASK = 0x7FFFFFFFFFFFFFFF
_PADDED_BYTES = 64


def stable_hash(text: str, salt: int = 0) -> int:
    """FNV-1a hash of ``text`` mixed with ``salt``; stable across processes."""
    value = (_FNV_OFFSET ^ (salt * 0x9E3779B97F4A7C15)) & _MASK
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK
    return value


def stable_hashes(texts: Sequence[str], salt: int = 0) -> np.ndarray:
    """:func:`stable_hash` of every text as int64, one array step per byte
    position (uint64 products wrap mod 2**64, so their low 63 bits agree) up
    to ``_PADDED_BYTES``: longer texts are hashed one by one, so neither the
    padded matrix nor the steps grow with a batch's longest text."""
    data = [text.encode("utf-8") for text in texts]
    lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    width = int(min(lengths.max(initial=0), _PADDED_BYTES))
    padded = np.frombuffer(b"".join(item.ljust(width, b"\0")[:width] for item in data),
                           dtype=np.uint8).reshape(len(data), width)
    values = np.full(len(data), (_FNV_OFFSET ^ (salt * 0x9E3779B97F4A7C15)) & _MASK,
                     dtype=np.uint64)
    for position in range(width):
        step = ((values ^ padded[:, position]) * np.uint64(_FNV_PRIME)) & np.uint64(_MASK)
        values = np.where(position < lengths, step, values)
    for index in np.flatnonzero(lengths > width).tolist():
        values[index] = stable_hash(texts[index], salt)
    return values.astype(np.int64)


def char_ngrams(token: str, min_n: int = 3, max_n: int = 5,
                add_word_boundaries: bool = True) -> List[str]:
    """Return the character n-grams of ``token`` (FastText-style).

    Word boundary markers ``<`` and ``>`` are added so that prefixes/suffixes
    hash differently from word-internal n-grams.
    """
    if min_n < 1 or max_n < min_n:
        raise ValueError(f"invalid n-gram range [{min_n}, {max_n}]")
    word = f"<{token}>" if add_word_boundaries else token
    grams: List[str] = []
    for n in range(min_n, max_n + 1):
        if len(word) < n:
            continue
        grams.extend(word[i:i + n] for i in range(len(word) - n + 1))
    return grams


class HashedVectorTable:
    """A virtual table of ``num_buckets`` Gaussian vectors addressed by hash.

    Vectors are generated lazily and deterministically from the bucket index
    and a global seed, so the table needs no storage proportional to the
    vocabulary and two processes always agree on every vector.
    """

    def __init__(self, dim: int, num_buckets: int = 1 << 20, seed: int = 13) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        self.dim = dim
        self.num_buckets = num_buckets
        self.seed = seed
        self._cache = _SHARED_BUCKET_CACHES.setdefault((dim, num_buckets, seed), {})

    def bucket(self, key: str) -> int:
        """Map a string key to its bucket index."""
        return stable_hash(key, salt=self.seed) % self.num_buckets

    def buckets(self, keys: Sequence[str]) -> np.ndarray:
        """Bucket indices of ``keys`` as an int64 array."""
        return stable_hashes(keys, salt=self.seed) % self.num_buckets

    def vector_for_bucket(self, bucket: int) -> np.ndarray:
        """Return the deterministic Gaussian vector for ``bucket``."""
        cached = self._cache.get(bucket)
        if cached is not None:
            return cached
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, bucket]))
        vector = rng.standard_normal(self.dim) / np.sqrt(self.dim)
        if len(self._cache) < 200_000:  # bound memory while keeping hot keys fast
            self._cache[bucket] = vector
        return vector

    def vectors_for_buckets(self, buckets: Sequence[int]) -> np.ndarray:
        """Stack the vectors of ``buckets`` into a ``(len(buckets), dim)`` array."""
        out = np.empty((len(buckets), self.dim), dtype=np.float64)
        for i, bucket in enumerate(buckets):
            out[i] = self.vector_for_bucket(int(bucket))
        return out

    def vector(self, key: str) -> np.ndarray:
        """Return the vector assigned to a string key."""
        return self.vector_for_bucket(self.bucket(key))

    def vectors(self, keys: Iterable[str]) -> np.ndarray:
        """Stack the vectors of ``keys`` into a ``(len(keys), dim)`` array."""
        key_list = list(keys)
        if not key_list:
            return np.zeros((0, self.dim))
        return self.vectors_for_buckets(self.buckets(key_list))

    def fingerprint(self) -> str:
        """Configuration fingerprint used in encoding-cache keys."""
        return f"table:dim={self.dim}:buckets={self.num_buckets}:seed={self.seed}"
