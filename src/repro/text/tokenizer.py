"""Tokenisation of attribute values, and the one table of texts it fills.

AdaMEL operates on the word tokens of textual attribute values (``r[A]``).
The paper crops each attribute to at most 20 tokens and sums their
embeddings; the same cropping default is used here.

Every layer that reads tokens — the :class:`Tokenizer` and token embedders of
the pair encoder, and the blocking indexes of :mod:`repro.pipeline.index` —
reads them from one process-wide :class:`TextTable`.  It issues integer ids to
texts and tokens in first-occurrence order (never by hash, so no output
depends on ``PYTHONHASHSEED``), tokenises each distinct text once, and keeps
what consumers derive per id (token ids after cropping, blocking keys, token
hashes, embedding rows) in columns indexed by id.  A record's text ids are
computed once per generation and kept on the record (:meth:`Generation.cells`).

The table is bounded by starting over: once it holds ``bound`` texts the next
caller gets a fresh :class:`Generation`, and every id, column, record row and
cache arena of the old one becomes unreachable.  A piece of work pins one
generation and resolves all of its ids against it, so no stale id can name a
different text.
"""

from __future__ import annotations

import itertools
import operator
import re
import threading
import unicodedata
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..data.records import Record

__all__ = ["MEMO_SIZE", "Generation", "TextTable", "text_table", "tokenize",
           "normalize_text", "Tokenizer"]

# Words may contain internal dots (e.g. "ebay.com") and keep a trailing dot so
# that abbreviations such as "n." remain single tokens close to their full form.
_TOKEN_PATTERN = re.compile(r"[a-z0-9]+(?:\.[a-z0-9]+)*\.?|[^\sa-z0-9]", re.IGNORECASE)
DEFAULT_CROP_SIZE = 20

# Texts one generation of the text table holds before the next caller starts a
# new one (tokens and keys are bounded through their texts).  A batch-linkage
# corpus of 2.4 k records brings about 2 500 distinct texts.
MEMO_SIZE = 1 << 16

# Monotonic tokens for per-instance subclass fingerprints and for generation
# serials: unlike ``id()``, never reused within the process.
_IDENTITY_TOKENS = itertools.count()
_SERIALS = itertools.count()

# Where a record keeps its text ids: ``(generation serial, attribute names, ids)``.
_ROW = "_text_row"
_NO_ROW = (-1, (), ())

# A column's values for the ids ``todo`` of a generation: flat, and a count per id.
Compute = Callable[["Generation", np.ndarray], Tuple[Sequence, Sequence[int]]]


def normalize_text(text: str) -> str:
    """Lowercase, strip accents and collapse whitespace."""
    if not isinstance(text, str):
        text = "" if text is None else str(text)
    if not text.isascii():  # ASCII is its own NFKD form, with no combining marks
        decomposed = unicodedata.normalize("NFKD", text)
        text = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return re.sub(r"\s+", " ", text.strip().lower())


def _tokenize(text: str) -> Tuple[str, ...]:
    return tuple(_TOKEN_PATTERN.findall(normalize_text(text)))


def _as_text(value: object) -> str:
    return value if isinstance(value, str) else ("" if value is None else str(value))


def _grown(array: np.ndarray, size: int, fill: object) -> np.ndarray:
    """``array`` extended to at least ``size`` rows (doubling), new rows ``fill``."""
    grown = np.full((max(size, 2 * len(array)),) + array.shape[1:], fill, dtype=array.dtype)
    grown[:len(array)] = array
    return grown


class Generation:
    """The ids a :class:`TextTable` issued between two start-overs.

    ``texts[i]`` is text ``i`` (text 0 is the missing value ``""``),
    ``text_tokens[i]`` the ids of its tokens, and ``tokens[j]`` token (or
    key string) ``j``.  Ids are issued under a lock; reading known ones
    takes none.  Columns and rows only ever grow, so arrays a reader got
    stay right for the ids it asked for.
    """

    def __init__(self) -> None:
        self.serial = next(_SERIALS)
        self._lock = threading.Lock()
        self._text_ids: Dict[str, int] = {}
        self.texts: List[str] = []
        self.text_tokens: List[Tuple[int, ...]] = []
        self._token_ids: Dict[str, int] = {}
        self.tokens: List[str] = []
        self._layouts: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        # key -> CSR [values, used, starts, lengths]; lengths < 0: not computed.
        self._columns: Dict[Hashable, list] = {}
        # key -> ((T, D) rows by token id, computed mask).
        self._rows: Dict[Hashable, Tuple[np.ndarray, np.ndarray]] = {}
        # key -> {id: values}: the per-record reads of what gather() holds.
        self._tuples: Dict[Hashable, Dict[int, Tuple[int, ...]]] = {}
        self.intern([""])

    def __len__(self) -> int:
        return len(self.texts)

    def intern(self, texts: Sequence[str]) -> List[int]:
        """Ids of ``texts`` (strings), tokenising and issuing new ones."""
        ids = list(map(self._text_ids.get, texts))
        if None not in ids:
            return ids
        fresh = {text: _tokenize(text) for text in
                 dict.fromkeys(text for text, known in zip(texts, ids) if known is None)}
        with self._lock:
            for text, tokens in fresh.items():
                if text not in self._text_ids:
                    self.text_tokens.append(tuple(map(self._token_id, tokens)))
                    self.texts.append(text)
                    self._text_ids[text] = len(self.texts) - 1
        return list(map(self._text_ids.__getitem__, texts))

    def _token_id(self, token: str) -> int:
        """The id of ``token``, issued if new (lock held)."""
        token_id = self._token_ids.get(token)
        if token_id is None:
            self.tokens.append(token)
            token_id = self._token_ids[token] = len(self.tokens) - 1
        return token_id

    def token_ids(self, tokens: Iterable[str]) -> List[int]:
        """Ids of ``tokens`` (any key strings), issuing new ones."""
        with self._lock:
            return list(map(self._token_id, tokens))

    def tokens_of(self, text_id: int) -> Tuple[str, ...]:
        """The tokens of text ``text_id``."""
        return tuple(map(self.tokens.__getitem__, self.text_tokens[text_id]))

    def gather(self, key: Hashable, ids: np.ndarray,
               compute: Compute) -> Tuple[np.ndarray, np.ndarray]:
        """Column ``key``'s int64 values of ``ids`` concatenated in order, and
        per value the position in ``ids`` it belongs to.

        Each id's values are computed once: ``compute(self, todo)`` gives the flat
        values and per-id lengths of the ids not computed yet (called outside
        the lock: it may issue tokens or embed them).
        """
        with self._lock:
            column = self._columns.get(key)
            if column is None:
                column = self._columns[key] = [np.empty(0, dtype=np.int64), 0,
                                               np.empty(0, dtype=np.int64),
                                               np.empty(0, dtype=np.int64)]
            if len(ids) and ids.max() >= len(column[3]):
                column[2] = _grown(column[2], int(ids.max()) + 1, 0)
                column[3] = _grown(column[3], int(ids.max()) + 1, -1)
            values, starts, lengths = column[0], column[2][ids], column[3][ids]
        if lengths.min(initial=0) < 0:
            todo = np.unique(ids[lengths < 0])
            flat, counts = compute(self, todo)
            counts = np.asarray(counts, dtype=np.int64)
            with self._lock:
                values, used = column[0], column[1]
                if used + len(flat) > len(values):
                    column[0] = values = _grown(values, used + len(flat), 0)
                values[used:used + len(flat)] = flat
                column[2][todo] = np.cumsum(counts) - counts + used
                column[3][todo] = counts
                column[1] = used + len(flat)
                starts, lengths = column[2][ids], column[3][ids]
        ends = np.cumsum(lengths)  # where each id's values end in the output
        segments = np.repeat(np.arange(len(ids)), lengths)
        return values[np.repeat(starts - ends + lengths, lengths) + np.arange(len(segments))], segments

    def column(self, key: Hashable, ids: Sequence[int],
               compute: Compute) -> List[Tuple[int, ...]]:
        """Column ``key``'s values of each of ``ids`` as tuples: what
        :meth:`gather` gives a batch, for one record's few ids (dict reads
        beat array gathers there), computed once per id by ``compute``."""
        column = self._tuples.get(key) or self._tuples.setdefault(key, {})
        values = list(map(column.get, ids))
        if None in values:
            todo = list(dict.fromkeys(i for i, value in zip(ids, values) if value is None))
            flat, counts = compute(self, np.array(todo, dtype=np.int64))
            ends = list(itertools.accumulate(counts))
            column.update(zip(todo, (tuple(flat[end - count:end])
                                     for count, end in zip(counts, ends))))
            values = list(map(column.__getitem__, ids))
        return values

    def row(self, key: Hashable, token: str) -> Optional[np.ndarray]:
        """Row ``key`` of ``token`` if computed, else None (unlocked: it never changes)."""
        matrix, done = self._rows.get(key, (None, ()))
        token_id = self._token_ids.get(token, len(done))
        return matrix[token_id] if token_id < len(done) and done[token_id] else None

    def rows(self, key: Hashable, dim: int, token_ids: np.ndarray,
             embed: Callable[[Sequence[str]], np.ndarray]) -> np.ndarray:
        """Embedding rows ``key``: a ``(T, dim)`` matrix by token id holding at
        least ``token_ids``, each row computed once by ``embed`` (unlocked)."""
        with self._lock:
            matrix, done = self._grown_rows(key, dim)
            missing = ~done[token_ids]
            todo = np.unique(token_ids[missing]) if missing.any() else None
        if todo is not None:
            vectors = embed(list(map(self.tokens.__getitem__, todo.tolist())))
            with self._lock:
                matrix, done = self._grown_rows(key, dim)
                matrix[todo] = vectors
                done[todo] = True
        return matrix

    def _grown_rows(self, key: Hashable, dim: int) -> Tuple[np.ndarray, np.ndarray]:
        """Rows ``key`` and their mask, covering every token (lock held)."""
        matrix, done = self._rows.get(key) or (np.empty((0, dim)), np.zeros(0, dtype=bool))
        if len(done) < len(self.tokens):
            matrix, done = _grown(matrix, len(self.tokens), 0.0), _grown(done, len(self.tokens), False)
            self._rows[key] = matrix, done
        return matrix, done

    def cells(self, records: Sequence[Record], attributes: Optional[Sequence[str]] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Text ids of the records' values over ``attributes`` (default: each
        record's own, in order) record-major, and how many each record has.

        A record's ids are interned once per generation and kept on it with
        its attribute names, so blocking and encoding it resolve its texts
        once, and records that share a layout are gathered by concatenation.
        """
        rows = list(map(getattr, records, itertools.repeat(_ROW), itertools.repeat(_NO_ROW)))
        if not rows:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        serials, layouts, ids = zip(*rows)
        if serials.count(self.serial) != len(rows):
            # Not re-read from the records: a thread on another generation
            # may overwrite their rows meanwhile.
            stale = [i for i, serial in enumerate(serials) if serial != self.serial]
            for i, row in zip(stale, self._add_rows([records[i] for i in stale])):
                rows[i] = row
            _, layouts, ids = zip(*rows)
        if attributes is None:
            return (np.concatenate(ids),
                    np.fromiter(map(len, layouts), dtype=np.int64, count=len(layouts)))
        wanted = tuple(attributes)
        counts = np.full(len(rows), len(wanted), dtype=np.int64)
        if layouts.count(self._layouts.get(wanted)) == len(layouts):
            return np.concatenate(ids), counts
        cells = [list(map(dict(zip(layout, row)).get, wanted, itertools.repeat(0)))
                 for layout, row in zip(layouts, ids)]
        return np.array(cells, dtype=np.int64).reshape(-1), counts

    def record_texts(self, record: Record, attributes: Optional[Sequence[str]] = None
                     ) -> List[int]:
        """:meth:`cells` of one record, as a list."""
        serial, layout, ids = getattr(record, _ROW, _NO_ROW)
        if serial != self.serial:
            [(_, layout, ids)] = self._add_rows([record])
        ids = ids.tolist()
        return ids if attributes is None else list(
            map(dict(zip(layout, ids)).get, attributes, itertools.repeat(0)))

    def _add_rows(self, records: Sequence[Record]) -> List[Tuple[int, Tuple[str, ...], np.ndarray]]:
        """Intern the values of ``records``; keep their rows on them and return them."""
        layouts = [self._layouts.setdefault(names, names)
                   for names in map(operator.methodcaller("attribute_names"), records)]
        values = list(itertools.chain.from_iterable(map(Record.value_tuple, records, layouts)))
        if set(map(type, values)) - {str}:
            values = list(map(_as_text, values))
        ids = np.array(self.intern(values), dtype=np.int64)
        ends = list(itertools.accumulate(map(len, layouts)))
        rows = [(self.serial, names, ids[start:end])
                for names, start, end in zip(layouts, [0] + ends, ends)]
        for record, row in zip(records, rows):
            object.__setattr__(record, _ROW, row)  # frozen records: a cache, not a field
        return rows


class TextTable:
    """text -> id and token -> id for the whole process, one generation at a time.

    :meth:`generation` hands out a fresh, empty generation once the current
    one holds ``bound`` texts.  A caller resolves every id of one piece of
    work against the generation it was handed, which keeps growing for it
    past the bound if need be.
    """

    bound = MEMO_SIZE

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._generation = Generation()

    def generation(self) -> Generation:
        """The generation to pin for one piece of work."""
        generation = self._generation
        if len(generation.texts) >= self.bound:
            with self._lock:
                if self._generation is generation:
                    self._generation = Generation()
                generation = self._generation
        return generation

    def clear(self) -> None:
        """Start over: forget every text and token (benchmarks)."""
        with self._lock:
            self._generation = Generation()


_TEXT_TABLE = TextTable()


def text_table() -> TextTable:
    """The process-wide text table."""
    return _TEXT_TABLE


def tokenize(text: str) -> List[str]:
    """Split a value into lowercase word tokens; empty values yield ``[]``."""
    generation = _TEXT_TABLE.generation()
    return list(generation.tokens_of(generation.intern([_as_text(text)])[0]))


class Tokenizer:
    """Configurable tokeniser combining normalisation and cropping.

    Parameters
    ----------
    crop_size:
        Maximum number of tokens retained per attribute value (paper: 20).
    keep_punctuation:
        When False, punctuation-only tokens are dropped.
    """

    def __init__(self, crop_size: int = DEFAULT_CROP_SIZE,
                 keep_punctuation: bool = False) -> None:
        if crop_size <= 0:
            raise ValueError(f"crop_size must be positive, got {crop_size}")
        self.crop_size = crop_size
        self.keep_punctuation = keep_punctuation
        self._config_key = f"tok:crop={crop_size}:punct={int(keep_punctuation)}"

    def clear_memo(self) -> None:
        """Start the process-wide text table over (benchmarks)."""
        _TEXT_TABLE.clear()

    def __call__(self, text: str) -> List[str]:
        generation, key = _TEXT_TABLE.generation(), self.fingerprint()
        # A known text's tokens are two dict reads away.
        tokens = generation._tuples.get(key, {}).get(generation._text_ids.get(text))
        if tokens is None:
            [tokens] = generation.column(key, generation.intern([_as_text(text)]),
                                         self._kept_tokens)
        return list(tokens)

    def _crop(self, tokens: Sequence[str]) -> Sequence[str]:
        if not self.keep_punctuation:
            tokens = [tok for tok in tokens if any(ch.isalnum() for ch in tok)]
        return tokens[:self.crop_size]

    def _kept_tokens(self, generation: Generation, todo: np.ndarray
                     ) -> Tuple[List[str], List[int]]:
        """Column values: the tokens kept of each text of ``todo``."""
        kept = [self._crop(generation.tokens_of(text)) for text in todo.tolist()]
        return list(itertools.chain.from_iterable(kept)), list(map(len, kept))

    def _kept(self, generation: Generation, todo: np.ndarray) -> Tuple[List[int], List[int]]:
        """Column values: the ids of the tokens kept of each text of ``todo``."""
        tokens, counts = self._kept_tokens(generation, todo)
        return generation.token_ids(tokens), counts

    def token_ids(self, generation: Generation, text_ids: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """The ids of the tokens this tokenizer keeps of each text of
        ``text_ids``, concatenated, and per id its position in ``text_ids``:
        a column of ``generation`` per configuration, computed once per text."""
        return generation.gather(self.fingerprint(), text_ids, self._kept)

    def fingerprint(self) -> str:
        """Configuration fingerprint used in encoding-cache keys.

        Only plain :class:`Tokenizer` output is a pure function of the config
        captured here; a subclass that does not override this gets a
        per-instance fingerprint (never reused within the process), so its
        cache entries can never be served to a differently-behaving instance.
        """
        if type(self) is Tokenizer:
            return self._config_key
        token = getattr(self, "_identity_token", None)
        if token is None:
            token = next(_IDENTITY_TOKENS)
            self._identity_token = token
        return f"tok[{type(self).__qualname__}]@{token}"

    def __repr__(self) -> str:
        return f"Tokenizer(crop_size={self.crop_size}, keep_punctuation={self.keep_punctuation})"
