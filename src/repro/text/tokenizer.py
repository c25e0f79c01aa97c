"""Tokenisation and normalisation of attribute values.

AdaMEL operates on the word tokens of textual attribute values (``r[A]``).
The paper crops each attribute to at most 20 tokens and sums their
embeddings; the same cropping default is used here.
"""

from __future__ import annotations

import itertools
import re
import threading
import unicodedata
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

__all__ = ["MEMO_SIZE", "admit", "tokenize", "normalize_text", "Tokenizer"]

# Words may contain internal dots (e.g. "ebay.com") and keep a trailing dot so
# that abbreviations such as "n." remain single tokens close to their full form.
_TOKEN_PATTERN = re.compile(r"[a-z0-9]+(?:\.[a-z0-9]+)*\.?|[^\sa-z0-9]", re.IGNORECASE)
DEFAULT_CROP_SIZE = 20

# Attribute values repeat heavily across entity pairs (every record appears in
# many pairs), so tokenisation results are memoised process-wide.  Tokenisation
# is a pure function of the input text, which keeps the memo exact.  The same
# bound caps every text-keyed memo, here and in the blocking indexes.
MEMO_SIZE = 1 << 16

# Monotonic tokens for per-instance subclass fingerprints: unlike ``id()``,
# never reused after an instance is garbage collected.
_IDENTITY_TOKENS = itertools.count()


def normalize_text(text: str) -> str:
    """Lowercase, strip accents and collapse whitespace."""
    if not isinstance(text, str):
        text = "" if text is None else str(text)
    decomposed = unicodedata.normalize("NFKD", text)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return re.sub(r"\s+", " ", stripped.strip().lower())


def _tokenize(text: str) -> Tuple[str, ...]:
    normalized = normalize_text(text)
    if not normalized:
        return ()
    return tuple(match.group(0) for match in _TOKEN_PATTERN.finditer(normalized))


_tokenize_cached = lru_cache(maxsize=MEMO_SIZE)(_tokenize)


def tokenize(text: str) -> List[str]:
    """Split a value into lowercase word tokens; empty values yield ``[]``."""
    if not isinstance(text, str):
        text = "" if text is None else str(text)
    return list(_tokenize_cached(text))


def admit(memo: Dict[str, object], text: str, value: object,
          bound: int = MEMO_SIZE) -> None:
    """Store ``memo[text]``; a memo at ``bound`` starts over rather than
    refusing new texts for the rest of the process.

    Not locked: a memo shared across threads needs a lock around this, or
    values that are a pure function of their text, so that a racing clear or
    lost write only means a later recompute.
    """
    if len(memo) >= bound:
        memo.clear()
    memo[text] = value


class _TextMemo:
    """What one tokenizer configuration remembers about the texts it has seen.

    ``tokens`` maps a text to its token tuple.  ``ids`` holds, per vocabulary
    table (see :meth:`Tokenizer.ids_memo`), a text -> token-row-id array map;
    it is keyed weakly, so a vocabulary generation that is reset away takes
    its ids with it and stale ids can never meet a newer table.
    """

    def __init__(self) -> None:
        self.tokens: Dict[str, Tuple[str, ...]] = {}
        self.ids: "WeakKeyDictionary[object, Dict[str, np.ndarray]]" = WeakKeyDictionary()
        self.lock = threading.Lock()

    def clear(self) -> None:
        with self.lock:
            self.tokens.clear()
            self.ids.clear()


class Tokenizer:
    """Configurable tokeniser combining normalisation and cropping.

    Parameters
    ----------
    crop_size:
        Maximum number of tokens retained per attribute value (paper: 20).
    keep_punctuation:
        When False, punctuation-only tokens are dropped.
    cache_size:
        Bound on the texts each memo holds; a full memo is emptied and starts
        over, so texts seen after the bound are still memoised.
    """

    # One memo per (class, crop_size, keep_punctuation) configuration, shared
    # by all Tokenizer instances: trainers construct a fresh tokenizer per
    # fit, and sharing keeps the memo warm across fits within one process.
    # Keying on the concrete class keeps a subclass with changed behaviour
    # from sharing (and poisoning) the base class's memo.
    _shared_caches: Dict[Tuple[type, int, bool], _TextMemo] = {}

    def __init__(self, crop_size: int = DEFAULT_CROP_SIZE, keep_punctuation: bool = False,
                 cache_size: int = MEMO_SIZE) -> None:
        if crop_size <= 0:
            raise ValueError(f"crop_size must be positive, got {crop_size}")
        self.crop_size = crop_size
        self.keep_punctuation = keep_punctuation
        self._cache_size = cache_size
        # Subclasses may carry behaviour-changing state this base class does
        # not know about, so only plain Tokenizer instances share a memo (and
        # a config-based fingerprint); subclass instances get private ones.
        if type(self) is Tokenizer:
            self._memo = self._shared_caches.setdefault(
                (type(self), crop_size, keep_punctuation), _TextMemo())
        else:
            self._memo = _TextMemo()

    def clear_memo(self) -> None:
        """Drop this configuration's shared text memos: text -> tokens and
        every text -> token ids map (benchmarks)."""
        self._memo.clear()

    def __call__(self, text: str) -> List[str]:
        if not isinstance(text, str):
            text = "" if text is None else str(text)
        memo = self._memo.tokens
        tokens = memo.get(text)
        if tokens is None:
            tokens = self._tokenise(text)
            self._admit(memo, text, tokens)
        return list(tokens)

    def _tokenise(self, text: str) -> Tuple[str, ...]:
        """Tokenise without consulting or filling any memo.

        Not through :func:`tokenize`: its process-wide memo would keep a
        second copy of what this class's own memos already hold per text.
        """
        tokens: Sequence[str] = _tokenize(text)
        if not self.keep_punctuation:
            tokens = [tok for tok in tokens if any(ch.isalnum() for ch in tok)]
        return tuple(tokens[:self.crop_size])

    def _admit(self, memo: Dict[str, object], text: str, value: object) -> None:
        """:func:`admit` at this tokenizer's bound, under the memo lock."""
        with self._memo.lock:
            admit(memo, text, value, self._cache_size)

    def ids_memo(self, table: object) -> Dict[str, np.ndarray]:
        """The text -> token-row-id memo kept for vocabulary ``table``.

        Read it with ``.get``; fill it through :meth:`token_ids`.  The ids are
        only meaningful in ``table``, which is why the memo is per table.
        """
        memo = self._memo.ids.get(table)
        if memo is None:
            with self._memo.lock:
                memo = self._memo.ids.setdefault(table, {})
        return memo

    def token_ids(self, texts: Sequence[str], table) -> List[np.ndarray]:
        """Row ids in ``table`` of each text's tokens, memoised per text.

        ``table`` is a :class:`~repro.text.embeddings.TokenTable`; all texts
        are resolved with one ``table.ids`` call, so unseen tokens are
        embedded as one batch.
        """
        memo = self.ids_memo(table)
        # The ids stand in for the tokens from here on, so the text -> tokens
        # memo is not filled as well — unless a subclass redefined calling.
        tokenise = self._tokenise if type(self).__call__ is Tokenizer.__call__ else self
        token_lists = [tokenise(text) for text in texts]
        lengths = [len(tokens) for tokens in token_lists]
        flat = table.ids([token for tokens in token_lists for token in tokens])
        ids = np.split(flat, np.cumsum(lengths[:-1])) if texts else []
        for text, text_ids in zip(texts, ids):
            self._admit(memo, text, text_ids)
        return ids

    def fingerprint(self) -> str:
        """Configuration fingerprint used in encoding-cache keys.

        Only plain :class:`Tokenizer` output is a pure function of the config
        captured here; a subclass that does not override this gets a
        per-instance fingerprint (never reused within the process), so its
        cache entries can never be served to a differently-behaving instance.
        """
        if type(self) is Tokenizer:
            return f"tok:crop={self.crop_size}:punct={int(self.keep_punctuation)}"
        token = getattr(self, "_identity_token", None)
        if token is None:
            token = next(_IDENTITY_TOKENS)
            self._identity_token = token
        return f"tok[{type(self).__qualname__}]@{token}"

    def __repr__(self) -> str:
        return f"Tokenizer(crop_size={self.crop_size}, keep_punctuation={self.keep_punctuation})"
