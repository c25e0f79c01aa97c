"""Token embedders.

``HashedEmbedder`` is the offline substitute for pretrained FastText vectors
(see DESIGN.md): each token's vector is the average of its hashed character
n-gram vectors plus a whole-word hashed vector.  The embeddings are *fixed*
(never trained), matching how AdaMEL and the baselines use FastText.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .hashing import HashedVectorTable, char_ngrams
from .tokenizer import Tokenizer

__all__ = ["TokenEmbedder", "HashedEmbedder", "TokenTable", "Vocabulary",
           "missing_value_vector"]

DEFAULT_EMBEDDING_DIM = 64
DEFAULT_VOCABULARY_SIZE = 100_000


class TokenTable:
    """token -> row id over one append-only, growable ``(V, D)`` matrix.

    A row, once assigned, never changes and never moves to another id: growth
    reallocates :attr:`rows` but keeps every id, so ids resolved earlier stay
    valid for as long as the caller holds the table.  Resolving known tokens
    takes no lock; assigning ids to new ones does, and publishes an id only
    after its row is in place — so read :attr:`rows` *after* resolving ids.
    """

    def __init__(self, dim: int, embed: Callable[[Sequence[str]], np.ndarray]) -> None:
        self.index: Dict[str, int] = {}
        self.rows = np.empty((256, dim), dtype=np.float64)
        self._embed = embed
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def ids(self, tokens: Sequence[str]) -> np.ndarray:
        """Row ids of ``tokens`` (int64), assigning new rows to unseen ones."""
        lookup = self.index.__getitem__
        try:
            return np.fromiter(map(lookup, tokens), dtype=np.int64, count=len(tokens))
        except KeyError:
            pass
        with self._lock:
            index = self.index
            unseen = [token for token in dict.fromkeys(tokens) if token not in index]
            if unseen:
                size = len(index)
                needed = size + len(unseen)
                rows = self.rows
                if needed > len(rows):
                    rows = np.empty((max(needed, 2 * len(rows)), rows.shape[1]),
                                    dtype=np.float64)
                    rows[:size] = self.rows[:size]
                rows[size:needed] = self._embed(unseen)
                self.rows = rows
                for row, token in enumerate(unseen, start=size):
                    index[token] = row
        return np.fromiter(map(lookup, tokens), dtype=np.int64, count=len(tokens))


class Vocabulary:
    """The current :class:`TokenTable` of one embedder configuration.

    Bounded by starting over: :meth:`table` hands out a fresh, empty table
    once the current one holds ``capacity`` tokens.  A caller resolves all
    ids of one piece of work against the table it was handed, which keeps
    growing for it past the bound if need be — ids from before a reset are
    therefore never mixed with ids from after it.
    """

    def __init__(self, dim: int, embed: Callable[[Sequence[str]], np.ndarray]) -> None:
        self._dim = dim
        self._embed = embed
        self._lock = threading.Lock()
        self._table = TokenTable(dim, embed)

    def table(self, capacity: int = DEFAULT_VOCABULARY_SIZE) -> TokenTable:
        table = self._table
        if len(table) >= capacity:
            with self._lock:
                if self._table is table:
                    self._table = TokenTable(self._dim, self._embed)
                table = self._table
        return table

    def clear(self) -> None:
        with self._lock:
            self._table = TokenTable(self._dim, self._embed)


# Token embeddings are a pure function of the embedder configuration, so the
# vocabulary is shared process-wide across instances with the same
# configuration (trainers build a fresh embedder per fit).  Only plain
# HashedEmbedder instances register here, so a subclass with changed
# behaviour never shares rows with its base.
_SHARED_VOCABULARIES: Dict[Tuple[Hashable, ...], Vocabulary] = {}

# Monotonic tokens for identity-based fingerprints: unlike ``id()``, a token
# is never reused after an embedder is garbage collected, so a stale entry in
# the process-wide encoding cache can never match a new embedder.
_IDENTITY_TOKENS = itertools.count()


def missing_value_vector(dim: int, scale: float = 1.0) -> np.ndarray:
    """The fixed normalised non-zero vector used for missing attribute values.

    The paper initialises missing attribute values (challenges C1/C2) with "a
    fixed normalized non-zero vector" so that gradients still flow through the
    corresponding feature; this returns that vector.
    """
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    vector = np.ones(dim, dtype=np.float64)
    return scale * vector / np.linalg.norm(vector)


class TokenEmbedder:
    """Interface: map token sequences to a fixed-dimensional summary vector."""

    dim: int

    def embed_token(self, token: str) -> np.ndarray:
        raise NotImplementedError

    def embed_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        """Sum the embeddings of ``tokens`` (paper Eq. 3 summarisation).

        Empty token lists map to the fixed missing-value vector.
        """
        if not tokens:
            return missing_value_vector(self.dim)
        total = np.zeros(self.dim, dtype=np.float64)
        for token in tokens:
            total += self.embed_token(token)
        return total

    def embed_token_batch(self, tokens: Sequence[str]) -> np.ndarray:
        """Embed many tokens at once into a ``(len(tokens), dim)`` matrix.

        The default implementation loops over :meth:`embed_token`; subclasses
        may override with a vectorised path that produces identical values.
        """
        out = np.empty((len(tokens), self.dim), dtype=np.float64)
        for i, token in enumerate(tokens):
            out[i] = self.embed_token(token)
        return out

    def vocabulary(self) -> TokenTable:
        """The token table to resolve one encode call's token ids against.

        Rows are :meth:`embed_token_batch` values.  The default keeps a
        private vocabulary per embedder instance.
        """
        vocabulary = getattr(self, "_vocabulary", None)
        if vocabulary is None:
            vocabulary = self._vocabulary = Vocabulary(self.dim, self.embed_token_batch)
        return vocabulary.table()

    def embed_token_matrix(self, tokens: Sequence[str], length: int) -> np.ndarray:
        """Return a padded ``(length, dim)`` matrix of per-token embeddings."""
        matrix = np.zeros((length, self.dim), dtype=np.float64)
        for i, token in enumerate(tokens[:length]):
            matrix[i] = self.embed_token(token)
        return matrix

    def embed_text(self, text: str) -> np.ndarray:
        """Tokenise then embed a raw attribute value."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Configuration fingerprint used in encoding-cache keys.

        The default is instance-identity based, which is always safe (never
        shares cache entries between embedders that could differ); embedders
        whose output is a pure function of their configuration override this.
        """
        token = getattr(self, "_identity_token", None)
        if token is None:
            token = next(_IDENTITY_TOKENS)
            self._identity_token = token
        return f"{type(self).__qualname__}@{token}"


class HashedEmbedder(TokenEmbedder):
    """FastText-style fixed embeddings via hashed character n-grams.

    Parameters
    ----------
    dim:
        Embedding dimensionality (the paper uses 300; smaller defaults keep
        CPU experiments fast without changing behaviour).
    min_n, max_n:
        Character n-gram range (FastText defaults: 3..6; we default to 3..5).
    tokenizer:
        Tokeniser used by :meth:`embed_text`; defaults to the paper's
        configuration (crop to 20 tokens).
    cache_size:
        Bound on the tokens the vocabulary holds; see :class:`Vocabulary`.
    """

    def __init__(self, dim: int = DEFAULT_EMBEDDING_DIM, min_n: int = 3, max_n: int = 5,
                 seed: int = 13, tokenizer: Optional[Tokenizer] = None,
                 cache_size: int = DEFAULT_VOCABULARY_SIZE) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.min_n = min_n
        self.max_n = max_n
        self.table = HashedVectorTable(dim=dim, seed=seed)
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        # Subclasses may change embedding behaviour in ways this config does
        # not capture, so only plain HashedEmbedder instances share rows.
        if type(self) is HashedEmbedder:
            key = (dim, min_n, max_n, seed, self.table.num_buckets)
            vocabulary = _SHARED_VOCABULARIES.get(key)
            if vocabulary is None:
                # The shared vocabulary computes rows through the first
                # embedder of its configuration, which it keeps alive: a few
                # scalars plus the (itself shared) bucket-vector table.
                vocabulary = _SHARED_VOCABULARIES.setdefault(
                    key, Vocabulary(dim, self._embed_unseen))
            self._vocabulary = vocabulary
        else:
            self._vocabulary = Vocabulary(dim, self._embed_unseen)
        self._cache_size = cache_size

    def vocabulary(self) -> TokenTable:
        """The configuration's shared table, bounded by ``cache_size`` tokens."""
        return self._vocabulary.table(self._cache_size)

    def clear_memo(self) -> None:
        """Drop this configuration's shared token vocabulary (benchmarks)."""
        self._vocabulary.clear()

    def _piece_keys(self, token: str) -> List[str]:
        keys = [f"word::{token}"]
        keys.extend(f"ngram::{gram}" for gram in char_ngrams(token, self.min_n, self.max_n))
        return keys

    def embed_token(self, token: str) -> np.ndarray:
        table = self.vocabulary()
        row = table.index.get(token)
        if row is None:
            row = table.ids((token,))[0]
        return table.rows[row]

    def embed_token_batch(self, tokens: Sequence[str]) -> np.ndarray:
        """Embed many tokens at once: their rows of the vocabulary table."""
        table = self.vocabulary()
        ids = table.ids(tokens)
        return table.rows[ids]

    def _embed_unseen(self, tokens: Sequence[str]) -> np.ndarray:
        """Compute the vectors of tokens the vocabulary does not hold yet.

        Each token is expanded into its hashed pieces (whole word + character
        n-grams), the piece vectors are gathered in one pass and averaged per
        token with ``np.add.reduce`` over the token's contiguous block — the
        same reduction ``np.mean`` over the stacked pieces performs.
        """
        out = np.empty((len(tokens), self.dim), dtype=np.float64)
        keys: List[str] = []
        counts: List[int] = []
        for token in tokens:
            piece_keys = self._piece_keys(token)
            counts.append(len(piece_keys))
            keys.extend(piece_keys)
        piece_vectors = self.table.vectors(keys)
        start = 0
        for row, count in enumerate(counts):
            out[row] = np.add.reduce(piece_vectors[start:start + count], axis=0) / count
            start += count
        return out

    def embed_text(self, text: str) -> np.ndarray:
        return self.embed_tokens(self.tokenizer(text))

    def fingerprint(self) -> str:
        """Configuration fingerprint used in encoding-cache keys.

        Only plain :class:`HashedEmbedder` output is a pure function of this
        configuration; subclasses that do not override this fall back to the
        identity-based default, which never matches another instance.
        """
        if type(self) is HashedEmbedder:
            return (f"hashed:dim={self.dim}:n={self.min_n}-{self.max_n}:"
                    f"{self.table.fingerprint()}")
        return super().fingerprint()

    def similarity(self, token_a: str, token_b: str) -> float:
        """Cosine similarity between two token embeddings (diagnostics)."""
        a = self.embed_token(token_a)
        b = self.embed_token(token_b)
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        return float(a @ b / denom) if denom > 0 else 0.0
