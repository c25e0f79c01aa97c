"""Candidate-generation indexes: MinHash-LSH, inverted tokens, initials keys.

Scalable linkage never enumerates all record pairs; it builds *indexes* whose
buckets group records likely to refer to the same entity (the hashing/canopy
blocking family the paper cites via Cohen & Richman).  Three complementary
indexes are provided:

* :class:`InvertedTokenIndex` — exact token overlap.  Every token posts the
  records containing it; records sharing a (non-stop-word) token become
  candidates.  High recall when sources agree on at least one rare token.
* :class:`MinHashLSHIndex` — Jaccard-similar token *sets*.  Records are
  sketched with vectorized MinHash signatures and banded into buckets, so
  records sharing many tokens collide even when no single token is rare.
* :class:`InitialsKeyIndex` — token-initial keys that survive abbreviation,
  linking "E. B." to "Elliott Bianchi" when no token is shared at all.

Every index is filled one of two ways, and keeps to the one it started with:

* **bulk** — :meth:`add_records` over chunks, for the batch pipeline.  A
  chunk's keys are one gather over per-text columns of the process-wide
  :class:`~repro.text.tokenizer.TextTable` (long tokens, initials keys; MinHash
  hashes each distinct token once per table generation) and one sort that
  dedupes ``(record, key)``; they are appended as int64 codes to two posting
  columns (code, record position), and :meth:`candidate_pairs` groups the
  columns with one sort, so a run of equal codes is a bucket.
* **streamed** — :meth:`ingest_one` (:meth:`preview_one` + :meth:`commit_one`)
  one record at a time, for the online store: an in-memory dict of capped
  buckets (key → member positions) that answers :meth:`probe_keys`.  The
  buckets are a pure function of the records in position order, so they are
  never persisted: a restored store re-streams its records.

Calling one path's methods on an index filled by the other raises
:class:`IndexModeError` instead of answering from empty state.  Both paths
cap bucket sizes the same way — a bucket of more than ``max_bucket_size``
records is dead and emits no pairs (the standard treatment of blocks
dominated by frequent keys) — so a bulk build and a stream of the same
records yield the same candidate pairs, counters and bucket sizes.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import (Dict, Hashable, Iterable, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from ..data.records import Record
from ..text.hashing import stable_hash, stable_hashes
from ..text.tokenizer import Generation, text_table

__all__ = ["IndexModeError", "InitialsKeyIndex", "InvertedTokenIndex",
           "MinHashLSHIndex", "build_blocking_indexes"]

# Modulus for the universal hash family h(x) = (a*x + b) mod p. With a
# Mersenne prime below 2**31 every operand stays below 2**31, so the uint64
# products never overflow and the modulo is exact — the family keeps the
# pairwise-independence property MinHash's collision math relies on.
_MERSENNE_PRIME = (1 << 31) - 1
_HASH_RANGE = np.uint64(_MERSENNE_PRIME)
# A MinHash posting code is ``band << 31 | value``: band values are below 2**31.
_BAND_SHIFT = 31

_BULK = "bulk"
_STREAMED = "streamed"


class IndexModeError(RuntimeError):
    """A call on the other ingestion path than the one that filled the index.

    A bulk-built index (:meth:`~_BucketedIndex.add_records`) keeps posting
    columns and has no buckets to probe or preview; a
    streamed index (:meth:`~_BucketedIndex.ingest_one`) keeps no posting
    columns to add to or group.  Either would otherwise answer from empty
    state — a silent wrong answer.
    """


def _long_tokens(min_length: int, generation: Generation, todo: np.ndarray
                 ) -> Tuple[List[int], List[int]]:
    """Column values: each text's distinct tokens of at least ``min_length`` chars."""
    tokens = generation.tokens
    lists = [[token for token in dict.fromkeys(generation.text_tokens[text])
              if len(tokens[token]) >= min_length] for text in todo.tolist()]
    return [token for ids in lists for token in ids], list(map(len, lists))


def _text_keys(generation: Generation, records: Sequence[Record],
               attributes: Optional[Sequence[str]], key: Hashable, compute
               ) -> Tuple[np.ndarray, np.ndarray]:
    """The key ids of every value of ``records`` (column ``key``, one gather
    over the texts) record-major, with duplicates, and the record of each."""
    cells, counts = generation.cells(records, attributes)
    keys, cell = generation.gather(key, cells, compute)
    return keys, np.repeat(np.arange(len(records), dtype=np.int64), counts)[cell]


def _run_starts(grouped: np.ndarray) -> np.ndarray:
    """Offsets where each run of equal values in sorted ``grouped`` begins."""
    boundary = np.ones(len(grouped), dtype=bool)
    boundary[1:] = grouped[1:] != grouped[:-1]
    return np.flatnonzero(boundary)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, ascending (one sort, then each run's head)."""
    values = np.sort(values)
    return values[_run_starts(values)]


class _Runs(NamedTuple):
    """A bulk index's posting columns grouped into buckets (one run per key)."""

    members: np.ndarray   # positions, grouped by code (any order within a run)
    starts: np.ndarray    # offset of each run in ``members``
    lengths: np.ndarray   # each run's member count
    codes: np.ndarray     # each run's key code
    first: np.ndarray     # each run's first column offset (key first-occurrence)


class _BucketedIndex:
    """Shared scaffolding: record registry, capped buckets, pair emission.

    Subclasses decide which bucket keys a record lands in; this base class
    owns the record-id/source registry and both ingestion paths (see the
    module docstring).  Bulk: ``add_records`` appends a chunk's int64 key
    codes and positions to the posting columns (:meth:`_add_postings`), and
    :meth:`candidate_pairs`, :meth:`stats` and :meth:`bucket_sizes` read the
    columns grouped by one sort.  Streamed: ``_buckets``, a dict from key
    to member positions in insertion order.  A bucket keeps at most
    ``max_bucket_size + 1`` members: the extra one marks it overflowed
    (dead, no pairs, no longer growing) while bounding memory.
    """

    def __init__(self, max_bucket_size: int) -> None:
        if max_bucket_size < 2:
            raise ValueError(f"bucket cap must be >= 2, got {max_bucket_size}")
        self.max_bucket_size = max_bucket_size
        self._record_ids: List[str] = []
        self._sources: List[str] = []
        self._buckets: Dict[Hashable, List[int]] = {}
        # None until add_records (_BULK) or commit_one (_STREAMED).
        self._mode: Optional[str] = None
        # Bulk posting columns, one array per chunk: key codes and positions.
        self._codes: List[np.ndarray] = []
        self._positions: List[np.ndarray] = []
        self._grouped: Optional[_Runs] = None
        # Key -> code for indexes with string keys, in first-occurrence order.
        self._key_codes: Dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._record_ids)

    @property
    def record_ids(self) -> List[str]:
        """Ids of the indexed records, in insertion order."""
        return list(self._record_ids)

    @property
    def sources(self) -> List[str]:
        """Sources of the indexed records, aligned with :attr:`record_ids`."""
        return list(self._sources)

    def _check_mode(self, mode: str, call: str) -> None:
        """Refuse ``call`` (a ``mode`` operation) on an index filled the other way."""
        if self._mode is not None and self._mode != mode:
            raise IndexModeError(
                f"{type(self).__name__}.{call} needs a {mode} index, but this one "
                f"is {self._mode}: add_records builds an index in bulk, "
                f"ingest_one / commit_one stream into it")

    def _record_keys(self, record: Record) -> Iterable[Hashable]:
        """The bucket keys ``record`` lands in (subclass hook).

        Must match the keys the subclass's ``add_records`` posts, so the
        single-record :meth:`ingest_one` and the read-only :meth:`probe` stay
        bit-compatible with bulk ingestion.
        """
        raise NotImplementedError

    def bucket_keys(self, record: Record) -> List[Hashable]:
        """The bucket keys ``record`` lands in (public, read-only).

        A pure function of the record and the index configuration — nothing
        is registered or mutated, and any process that computes a record's
        keys under an equally-configured index gets the identical key set.
        """
        return list(self._record_keys(record))

    # ------------------------------------------------------------------ #
    # Bulk ingestion: posting columns
    # ------------------------------------------------------------------ #
    def _add_postings(self, batch: Sequence[Record], codes: np.ndarray,
                      counts: np.ndarray) -> int:
        """Register ``batch`` and append its postings to the columns.

        ``codes`` holds the batch's int64 key codes record by record, each
        record's in its ``_record_keys`` order; ``counts[i]`` is how many of
        them belong to ``batch[i]``.
        """
        self._mode = _BULK
        start = len(self._record_ids)
        self._record_ids.extend(record.record_id for record in batch)
        self._sources.extend(record.source for record in batch)
        self._codes.append(codes)
        self._positions.append(np.repeat(
            np.arange(start, start + len(batch), dtype=np.int64), counts))
        self._grouped = None
        return len(batch)

    def _code_keys(self, codes: np.ndarray) -> List[Hashable]:
        """The bucket keys of posting ``codes`` (interned keys by default)."""
        keys = list(self._key_codes)
        return [keys[code] for code in codes.tolist()]

    def _runs(self) -> _Runs:
        """The posting columns grouped by key: one argsort by code."""
        if self._grouped is None:
            codes = (np.concatenate(self._codes) if self._codes
                     else np.empty(0, dtype=np.int64))
            positions = (np.concatenate(self._positions) if self._positions
                         else np.empty(0, dtype=np.int64))
            self._codes, self._positions = [codes], [positions]
            order = np.argsort(codes)
            grouped = codes[order]
            starts = _run_starts(grouped)
            self._grouped = _Runs(members=positions[order], starts=starts,
                                  lengths=np.diff(np.append(starts, len(grouped))),
                                  codes=grouped[starts],
                                  first=np.minimum.reduceat(order, starts))
        return self._grouped

    def candidate_pairs(self, cross_source_only: bool = False
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Position pairs sharing a non-overflowed bucket of a bulk index.

        Returned as int64 ``(left, right)`` arrays with ``left < right``,
        unique and sorted by ``(left, right)``.  Every live bucket size (2 to
        the cap) takes one gather: ``np.triu_indices`` lays out all pairs of
        that size's buckets at once.  A pair shared by several buckets is
        kept once.
        """
        self._check_mode(_BULK, "candidate_pairs")
        runs = self._runs()
        live = (runs.lengths >= 2) & (runs.lengths <= self.max_bucket_size)
        lefts, rights = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for size in np.unique(runs.lengths[live]).tolist():
            starts = runs.starts[live & (runs.lengths == size)]
            members = runs.members[starts[:, None] + np.arange(size)]
            first, second = np.triu_indices(size, 1)
            lefts.append(members[:, first].ravel())
            rights.append(members[:, second].ravel())
        pairs = np.concatenate(lefts), np.concatenate(rights)
        left, right = np.minimum(*pairs), np.maximum(*pairs)
        if cross_source_only and len(left):
            table: Dict[str, int] = {}
            source_codes = np.array([table.setdefault(source, len(table))
                                     for source in self._sources], dtype=np.int64)
            cross = source_codes[left] != source_codes[right]
            left, right = left[cross], right[cross]
        count = max(len(self._record_ids), 1)
        pair_codes = _sorted_unique(left * count + right)
        return pair_codes // count, pair_codes % count

    # ------------------------------------------------------------------ #
    # Streamed ingestion: capped buckets
    # ------------------------------------------------------------------ #
    def preview_one(self, record: Record
                    ) -> Tuple[int, List[Tuple[int, int]], List[List[int]], List[Hashable]]:
        """Plan one record's insertion without mutating anything.

        Returns ``(position, emitted, retracted, keys)``:

        * ``position`` — the registry slot the record *would* take;
        * ``emitted`` — ``(existing, position)`` pairs that would newly share
          a live bucket, one entry *per shared bucket* (callers counting
          per-bucket support see the same pair once per co-bucket);
        * ``retracted`` — the member lists of buckets this record would tip
          over ``max_bucket_size``.  Batch :meth:`candidate_pairs` emits
          nothing from overflowed buckets, so pairs previously supported by
          such a bucket lose that support;
        * ``keys`` — the record's bucket keys, to pass to :meth:`commit_one`
          (so e.g. MinHash signatures are computed once per insert).

        The preview/commit split lets callers fail between planning and
        mutation (e.g. a scoring error) without half-ingested state.
        """
        self._check_mode(_STREAMED, "preview_one")
        position = len(self._record_ids)
        keys = list(self._record_keys(record))
        emitted: List[Tuple[int, int]] = []
        retracted: List[List[int]] = []
        for key in keys:
            bucket = self._buckets.get(key, ())
            if len(bucket) > self.max_bucket_size:
                continue  # already overflowed: dead and no longer growing
            if len(bucket) == self.max_bucket_size:
                # This record would tip the bucket over the cap, withdrawing
                # its support from the pairs among the prior members.
                retracted.append(list(bucket))
                continue
            emitted.extend((member, position) for member in bucket)
        return position, emitted, retracted, keys

    def commit_one(self, record: Record, keys: Sequence[Hashable]) -> int:
        """Apply a :meth:`preview_one` plan: register and bucket the record.

        A stream of ``commit_one`` calls yields the candidate pairs, counters
        and bucket sizes ``add_records`` over the same record sequence does.
        """
        self._check_mode(_STREAMED, "commit_one")
        self._mode = _STREAMED
        position = self._register(record)
        for key in keys:
            self._bucket_add(key, position)
        return position

    def ingest_one(self, record: Record) -> Tuple[int, List[Tuple[int, int]], List[List[int]]]:
        """Insert one record and report the candidate-pair deltas it caused
        (:meth:`preview_one` and :meth:`commit_one` in one step)."""
        position, emitted, retracted, keys = self.preview_one(record)
        self.commit_one(record, keys)
        return position, emitted, retracted

    def probe(self, record: Record) -> Set[int]:
        """Positions sharing a live bucket with ``record``, without inserting.

        The read-only lookup used by online queries: overflowed buckets are
        skipped (matching :meth:`candidate_pairs` semantics) and the probe
        record itself is never registered.  Key computation
        (:meth:`_record_keys`) is pure, so callers that must minimise lock
        hold time can precompute keys and call :meth:`probe_keys` directly.
        """
        return self.probe_keys(self._record_keys(record))

    def probe_keys(self, keys: Iterable[Hashable]) -> Set[int]:
        """Positions in live buckets under any of ``keys`` (read-only)."""
        self._check_mode(_STREAMED, "probe_keys")
        positions: Set[int] = set()
        for key in keys:
            bucket = self._buckets.get(key)
            if bucket and len(bucket) <= self.max_bucket_size:
                positions.update(bucket)
        return positions

    def _register(self, record: Record) -> int:
        """Add a record to the registry and return its position."""
        position = len(self._record_ids)
        self._record_ids.append(record.record_id)
        self._sources.append(record.source)
        return position

    def _bucket_add(self, key: Hashable, position: int) -> None:
        """Append to a bucket unless it has already overflowed its cap."""
        bucket = self._buckets.setdefault(key, [])
        if len(bucket) <= self.max_bucket_size:  # one extra entry marks overflow
            bucket.append(position)

    # ------------------------------------------------------------------ #
    # Counters (either path)
    # ------------------------------------------------------------------ #
    def _bucket_count(self) -> int:
        if self._mode == _BULK:
            return len(self._runs().starts)
        return len(self._buckets)

    def _overflowed(self) -> int:
        if self._mode == _BULK:
            return int(np.count_nonzero(self._runs().lengths > self.max_bucket_size))
        return sum(1 for bucket in self._buckets.values()
                   if len(bucket) > self.max_bucket_size)

    def bucket_sizes(self) -> Dict[Hashable, int]:
        """Member count of every bucket (overflowed ones included).

        An overflowed bucket counts ``max_bucket_size + 1``, the members a
        streamed bucket keeps; buckets come in key first-occurrence order.
        """
        if self._mode != _BULK:
            return {key: len(bucket) for key, bucket in self._buckets.items()}
        runs = self._runs()
        order = np.argsort(runs.first)
        sizes = np.minimum(runs.lengths[order], self.max_bucket_size + 1)
        return dict(zip(self._code_keys(runs.codes[order]), sizes.tolist()))

    def skew_stats(self, top_k: int = 5) -> Dict[str, object]:
        """Bucket-size skew summary: Gini coefficient, extremes, and the
        ``top_k`` hottest buckets (the observability hook skew-aware
        sharding will select partitions on).  Walks every bucket — a
        diagnostics call, not a per-ingest one."""
        from ..obs.stats import bucket_skew

        return bucket_skew(self.bucket_sizes(), top_k=top_k)


class _TextKeyedIndex(_BucketedIndex):
    """An index keyed by strings derived per attribute value (tokens,
    initials keys): :meth:`_text_values` computes them per text, and a bulk
    build reads them as the text table's column ``_column``."""

    _column: Hashable

    def _text_values(self, generation: Generation, todo: np.ndarray
                     ) -> Tuple[List[int], List[int]]:
        """Column values: the key ids of each text of ``todo`` (subclass hook)."""
        raise NotImplementedError

    def _record_keys(self, record: Record) -> List[str]:
        generation = text_table().generation()
        keys = generation.column(self._column, generation.record_texts(record, self.attributes),
                                 self._text_values)
        return sorted(set(map(generation.tokens.__getitem__, itertools.chain.from_iterable(keys))))

    def add_records(self, records: Iterable[Record]) -> int:
        """Post a batch of records to the bulk columns; returns how many.

        Each record's keys are posted once, in string order (its
        :meth:`_record_keys`), and interned to codes in first-occurrence
        order, never by hash, so the columns do not depend on
        ``PYTHONHASHSEED``.
        """
        self._check_mode(_BULK, "add_records")
        batch = list(records)
        generation = text_table().generation()
        keys, owners = _text_keys(generation, batch, self.attributes, self._column,
                                  self._text_values)
        distinct = np.unique(keys)
        strings = list(map(generation.tokens.__getitem__, distinct.tolist()))
        by_string = np.array(sorted(range(len(strings)), key=strings.__getitem__),
                             dtype=np.int64)
        rank = np.empty(len(distinct), dtype=np.int64)
        rank[by_string] = np.arange(len(distinct))
        postings = _sorted_unique(owners * len(distinct)
                                  + rank[np.searchsorted(distinct, keys)])
        owners, ranks = np.divmod(postings, max(len(distinct), 1))
        first_seen = np.argsort(np.unique(ranks, return_index=True)[1])
        table = self._key_codes
        codes = np.empty(len(distinct), dtype=np.int64)
        codes[first_seen] = [table.setdefault(strings[i], len(table))
                             for i in by_string[first_seen].tolist()]
        return self._add_postings(batch, codes[ranks],
                                  np.bincount(owners, minlength=len(batch)))


class InvertedTokenIndex(_TextKeyedIndex):
    """Incremental inverted index from token to the records containing it.

    Parameters
    ----------
    attributes:
        Attributes whose tokens key the index (default: every attribute
        present on each record).
    min_token_length:
        Shorter tokens are ignored (they behave like stop words); values
        below 1 are treated as 1.
    max_postings:
        Posting lists longer than this are treated as stop words: their
        tokens emit no candidate pairs, and a streamed index's lists stop
        growing (one extra entry is kept to mark the overflow).
    """

    def __init__(self, attributes: Optional[Sequence[str]] = None,
                 min_token_length: int = 3, max_postings: int = 64) -> None:
        super().__init__(max_bucket_size=max_postings)
        self.attributes = list(attributes) if attributes is not None else None
        self.min_token_length = max(min_token_length, 1)
        self._column = ("tokens", self.min_token_length)

    @property
    def max_postings(self) -> int:
        return self.max_bucket_size

    def _text_values(self, generation: Generation, todo: np.ndarray
                     ) -> Tuple[List[int], List[int]]:
        return _long_tokens(self.min_token_length, generation, todo)

    def stats(self) -> Dict[str, int]:
        """Index size counters for pipeline reports."""
        return {
            "records": len(self._record_ids),
            "tokens": self._bucket_count(),
            "overflowed_tokens": self._overflowed(),
        }


class InitialsKeyIndex(_TextKeyedIndex):
    """Blocking keys from token initials, linking abbreviations to full forms.

    Unseen sources abbreviate identifying values ("Elliott Bianchi" becomes
    "E. B."), leaving *zero* shared tokens for the other indexes to key on —
    but the initials survive.  For every attribute value the index emits the
    sorted initials of each token prefix (2 up to ``max_prefix_tokens``
    tokens), so "Elliott Bianchi", "E. B." and "B. L. (live)" style variants
    collide regardless of token order or trailing locale noise.

    Keys are attribute-agnostic: a name abbreviated into one attribute still
    matches the full form stored under another (e.g. ``name`` vs
    ``name_native_language``).

    Scale caveat: initials keys are inherently low-entropy (only ~350
    distinct two-token keys exist), so beyond a few thousand records most
    buckets exceed any sane cap and the index gracefully degrades toward a
    no-op — this is the information-theoretic floor of abbreviation blocking,
    not a tuning problem.  Raise ``max_bucket_size`` when abbreviation recall
    matters more than the quadratic per-bucket candidate cost, or shard the
    corpus (e.g. by entity type) before indexing.
    """

    def __init__(self, attributes: Optional[Sequence[str]] = None,
                 max_prefix_tokens: int = 4, max_bucket_size: int = 64) -> None:
        if max_prefix_tokens < 2:
            raise ValueError(f"max_prefix_tokens must be >= 2, got {max_prefix_tokens}")
        super().__init__(max_bucket_size=max_bucket_size)
        self.attributes = list(attributes) if attributes is not None else None
        self.max_prefix_tokens = max_prefix_tokens
        self._column = ("initials", max_prefix_tokens)

    def _text_values(self, generation: Generation, todo: np.ndarray
                     ) -> Tuple[List[int], List[int]]:
        lists = []
        for text in todo.tolist():
            # A token is a word, its first char alnum, or a single char.
            initials = [token[0] for token in generation.tokens_of(text) if token[0].isalnum()]
            lengths = range(2, min(len(initials), self.max_prefix_tokens) + 1)
            lists.append({"".join(sorted(initials[:length])) for length in lengths})
        return (generation.token_ids(key for keys in lists for key in sorted(keys)),
                list(map(len, lists)))

    def stats(self) -> Dict[str, int]:
        """Index size counters for pipeline reports."""
        return {
            "records": len(self._record_ids),
            "keys": self._bucket_count(),
            "overflowed_keys": self._overflowed(),
        }


class MinHashLSHIndex(_BucketedIndex):
    """Vectorized MinHash signatures banded into LSH buckets.

    Every record's token set is sketched with ``num_perm`` universal-hash
    minima computed as one numpy reduction per batch; the signature is split
    into ``bands`` bands whose row values are combined into one bucket key.
    Records colliding in *any* band become candidates, so recall grows with
    the number of bands while each band's rows control precision.

    Parameters
    ----------
    attributes:
        Attributes contributing tokens (default: all present per record).
    num_perm:
        Number of hash permutations (signature length); must be divisible by
        ``bands``.
    bands:
        Number of LSH bands; ``rows = num_perm // bands`` per band.
    min_token_length:
        Shorter tokens are ignored when sketching.
    max_bucket_size:
        Buckets beyond this size are stop-word-like and emit no pairs (a
        streamed index's member lists also stop growing, bounding memory).
    seed:
        Seed of the hash family; two indexes with equal configuration and
        ingestion order build identical buckets.
    """

    def __init__(self, attributes: Optional[Sequence[str]] = None, num_perm: int = 128,
                 bands: int = 32, min_token_length: int = 2, max_bucket_size: int = 64,
                 seed: int = 7) -> None:
        if num_perm <= 0 or bands <= 0 or num_perm % bands:
            raise ValueError(f"num_perm ({num_perm}) must be a positive multiple "
                             f"of bands ({bands})")
        super().__init__(max_bucket_size=max_bucket_size)
        self.attributes = list(attributes) if attributes is not None else None
        self.num_perm = num_perm
        self.bands = bands
        self.rows = num_perm // bands
        self.min_token_length = min_token_length
        self.seed = seed
        rng = np.random.default_rng(np.random.SeedSequence([seed, num_perm, bands]))
        self._a = rng.integers(1, _MERSENNE_PRIME, size=num_perm, dtype=np.uint64)
        self._b = rng.integers(0, _MERSENNE_PRIME, size=num_perm, dtype=np.uint64)

    # ------------------------------------------------------------------ #
    # Sketching
    # ------------------------------------------------------------------ #
    def _token_hashes(self, generation: Generation, todo: np.ndarray
                      ) -> Tuple[List[int], List[int]]:
        """Column values: each token's hash below the prime."""
        tokens = list(map(generation.tokens.__getitem__, todo.tolist()))
        return (stable_hashes(tokens, salt=self.seed) % _MERSENNE_PRIME).tolist(), [1] * len(todo)

    def signatures(self, records: Sequence[Record]) -> np.ndarray:
        """MinHash signatures of ``records`` as a ``(num_perm, N)`` array.

        Every distinct token of the batch is hashed (once per generation of
        the text table) and permuted once; each record's minima are one
        gather and ``min`` per token count.
        """
        if not records:
            return np.empty((self.num_perm, 0), dtype=np.uint64)
        generation = text_table().generation()
        tokens, owners = _text_keys(generation, records, self.attributes,
                                    ("tokens", self.min_token_length),
                                    partial(_long_tokens, self.min_token_length))
        distinct, column = np.unique(tokens, return_inverse=True)
        empty = np.flatnonzero(np.bincount(owners, minlength=len(records)) == 0)
        hashes, _ = generation.gather(("minhash", self.seed), distinct, self._token_hashes)
        permuted = self._permuted(hashes, [records[i] for i in empty.tolist()])
        # Each record's distinct columns, record-major.
        postings = _sorted_unique(np.concatenate((
            owners * len(permuted) + column.ravel(),
            empty * len(permuted) + len(distinct) + np.arange(len(empty)))))
        owners, column = np.divmod(postings, len(permuted))
        starts = _run_starts(owners)  # every record has a posting
        counts = np.diff(np.append(starts, len(owners)))
        # Per-record minima, records grouped by token count: one gather each.
        signatures = np.empty((len(records), self.num_perm), dtype=np.uint64)
        for count in np.unique(counts).tolist():
            group = np.flatnonzero(counts == count)
            signatures[group] = permuted[column[starts[group][:, None]
                                                + np.arange(count)]].min(axis=1)
        return signatures.T

    def _permuted(self, hashes: Sequence[int], empty: Sequence[Record]) -> np.ndarray:
        """``(U + E, P)`` permuted token ``hashes``, then of one sentinel per
        record of ``empty``: an all-empty record must not collide with every
        other one in every band."""
        sentinels = [stable_hash(f"\x00empty:{record.record_id}", salt=self.seed)
                     % _MERSENNE_PRIME for record in empty]
        hashes = np.concatenate((hashes, np.array(sentinels, dtype=np.int64)))
        return (hashes.astype(np.uint64)[:, None] * self._a + self._b) % _HASH_RANGE

    def _band_keys(self, signatures: np.ndarray) -> np.ndarray:
        """Combine each band's rows into one integer key per record: (bands, N).

        Polynomial hash over the band's rows, folded for all bands at once
        (one step per row); ``combined < 2**31`` and the mixer is below
        2**20, so the uint64 products are exact.
        """
        blocks = signatures.reshape(self.bands, self.rows, signatures.shape[1])
        combined = blocks[:, 0].copy()
        mixer = np.uint64(1_000_003)
        for row in range(1, self.rows):
            combined = (combined * mixer + blocks[:, row]) % _HASH_RANGE
        return combined

    def _record_keys(self, record: Record) -> List[Tuple[int, int]]:
        # One record: its tokens and their hashes read as tuples, its minima one reduction.
        generation = text_table().generation()
        tokens = generation.column(("tokens", self.min_token_length),
                                   generation.record_texts(record, self.attributes),
                                   partial(_long_tokens, self.min_token_length))
        tokens = list(set(itertools.chain.from_iterable(tokens)))
        hashes = generation.column(("minhash", self.seed), tokens, self._token_hashes)
        permuted = self._permuted(np.array(hashes, dtype=np.int64).reshape(-1),
                                  [] if tokens else [record])
        return list(enumerate(self._band_keys(permuted.min(axis=0)[:, None])[:, 0].tolist()))

    def _code_keys(self, codes: np.ndarray) -> List[Hashable]:
        mask = (1 << _BAND_SHIFT) - 1
        return [(code >> _BAND_SHIFT, code & mask) for code in codes.tolist()]

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def add_records(self, records: Iterable[Record]) -> int:
        """Sketch a batch of records and post its band keys to the bulk
        columns, each ``(band, value)`` key as the code ``band << 31 | value``;
        returns how many were added."""
        self._check_mode(_BULK, "add_records")
        batch = list(records)
        keys = self._band_keys(self.signatures(batch)).astype(np.int64)
        bands = np.arange(self.bands, dtype=np.int64)[:, None] << _BAND_SHIFT
        # (bands, N) -> record-major, bands in order: each record's _record_keys.
        codes = (bands | keys).T.ravel()
        return self._add_postings(batch, codes, np.full(len(batch), self.bands))

    def stats(self) -> Dict[str, int]:
        """Index size counters for pipeline reports."""
        return {
            "records": len(self._record_ids),
            "buckets": self._bucket_count(),
            "overflowed_buckets": self._overflowed(),
            "bands": self.bands,
            "rows": self.rows,
        }


def build_blocking_indexes(attributes: Optional[Sequence[str]] = None,
                           num_perm: int = 128, bands: int = 32,
                           lsh_max_bucket_size: int = 8, max_postings: int = 8,
                           initials_max_bucket_size: int = 16,
                           min_token_length: int = 3, seed: int = 7,
                           ) -> Tuple[MinHashLSHIndex, InvertedTokenIndex,
                                      InitialsKeyIndex]:
    """The canonical blocking-index triple, from the shared config knobs.

    One construction site for the three complementary indexes so the batch
    candidate stage (:class:`~repro.pipeline.candidates.CandidateGenerationStage`)
    and the online :class:`~repro.serve.EntityStore` can never drift apart:
    equal knobs produce indexes with identical bucket keys and cap
    semantics, which is the foundation of every streamed==batch parity
    guarantee in this codebase.
    """
    return (
        MinHashLSHIndex(attributes=attributes, num_perm=num_perm, bands=bands,
                        min_token_length=min_token_length,
                        max_bucket_size=lsh_max_bucket_size, seed=seed),
        InvertedTokenIndex(attributes=attributes,
                           min_token_length=min_token_length,
                           max_postings=max_postings),
        InitialsKeyIndex(attributes=attributes,
                         max_bucket_size=initials_max_bucket_size),
    )
