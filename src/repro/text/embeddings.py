"""Token embedders.

``HashedEmbedder`` is the offline substitute for pretrained FastText vectors
(see DESIGN.md): each token's vector is the average of its hashed character
n-gram vectors plus a whole-word hashed vector.  The embeddings are *fixed*
(never trained), matching how AdaMEL and the baselines use FastText.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

import numpy as np

from .hashing import HashedVectorTable, char_ngrams
from .tokenizer import Generation, Tokenizer, text_table

__all__ = ["TokenEmbedder", "HashedEmbedder", "missing_value_vector"]

DEFAULT_EMBEDDING_DIM = 64

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

    def rows(self, generation: Generation, token_ids: np.ndarray) -> np.ndarray:
        """The embedding rows of ``generation``'s tokens, a ``(T, dim)``
        matrix indexed by token id that holds at least ``token_ids``.

        Rows are :meth:`_embed_rows` values, computed once per generation and
        shared by every embedder with this :meth:`fingerprint`.
        """
        return generation.rows(self.fingerprint(), self.dim, token_ids, self._embed_rows)

    def _embed_rows(self, tokens: Sequence[str]) -> np.ndarray:
        return self.embed_token_batch(tokens)

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

    A token's vector is computed once per text-table generation and shared
    by every plain instance of the same configuration (:meth:`fingerprint`).
    """

    def __init__(self, dim: int = DEFAULT_EMBEDDING_DIM, min_n: int = 3, max_n: int = 5,
                 seed: int = 13, tokenizer: Optional[Tokenizer] = None) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.min_n = min_n
        self.max_n = max_n
        self.table = HashedVectorTable(dim=dim, seed=seed)
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self._config_key = f"hashed:dim={dim}:n={min_n}-{max_n}:{self.table.fingerprint()}"

    def clear_memo(self) -> None:
        """Start the process-wide text table over, and with it every
        generation's rows (benchmarks)."""
        text_table().clear()

    def _piece_keys(self, token: str) -> List[str]:
        keys = [f"word::{token}"]
        keys.extend(f"ngram::{gram}" for gram in char_ngrams(token, self.min_n, self.max_n))
        return keys

    def embed_token(self, token: str) -> np.ndarray:
        row = text_table().generation().row(self.fingerprint(), token)
        return self.embed_token_batch([token])[0] if row is None else row

    def embed_token_batch(self, tokens: Sequence[str]) -> np.ndarray:
        """Embed many tokens at once: their rows of the text table's generation."""
        generation = text_table().generation()
        ids = np.array(generation.token_ids(tokens), dtype=np.int64)
        return self.rows(generation, ids)[ids]

    def _embed_rows(self, tokens: Sequence[str]) -> np.ndarray:
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
            return self._config_key
        return super().fingerprint()

    def similarity(self, token_a: str, token_b: str) -> float:
        """Cosine similarity between two token embeddings (diagnostics)."""
        a = self.embed_token(token_a)
        b = self.embed_token(token_b)
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        return float(a @ b / denom) if denom > 0 else 0.0
