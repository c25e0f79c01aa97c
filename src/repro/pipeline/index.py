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

* **bulk** — :meth:`add_records` over chunks, for the batch pipeline.  Each
  chunk's keys are appended as int64 codes to two posting columns (code,
  record position); :meth:`candidate_pairs` groups the columns with one
  sort, so a run of equal codes is a bucket and blocking is a sort
  over key columns, not per-key Python work.
* **streamed** — :meth:`ingest_one` (:meth:`preview_one` + :meth:`commit_one`)
  one record at a time, for the online store: an in-memory dict of capped
  buckets (key → member positions) that answers :meth:`probe_keys` and
  round-trips through :meth:`state_dict`.

Calling one path's methods on an index filled by the other raises
:class:`IndexModeError` instead of answering from empty state.  Both paths
cap bucket sizes the same way — a bucket of more than ``max_bucket_size``
records is dead and emits no pairs (the standard treatment of blocks
dominated by frequent keys) — so a bulk build and a stream of the same
records yield the same candidate pairs, counters and bucket sizes.
"""

from __future__ import annotations

from typing import (Dict, Hashable, Iterable, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from ..data.records import Record
from ..text.hashing import stable_hash
from ..text.tokenizer import admit, tokenize

__all__ = ["IndexModeError", "InitialsKeyIndex", "InvertedTokenIndex",
           "MinHashLSHIndex", "build_blocking_indexes", "record_tokens"]

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
    columns and has no buckets to probe, preview or snapshot; a
    streamed index (:meth:`~_BucketedIndex.ingest_one`) keeps no posting
    columns to add to or group.  Either would otherwise answer from empty
    state — a silent wrong answer.
    """


def record_tokens(record: Record, attributes: Optional[Sequence[str]] = None,
                  min_token_length: int = 2) -> List[str]:
    """The token set of a record over ``attributes`` (default: all present).

    Tokens shorter than ``min_token_length`` are dropped; the token set is
    returned sorted so that downstream hashing is order-independent.
    """
    names = record.attribute_names() if attributes is None else attributes
    tokens: Set[str] = set()
    for attribute in names:
        for token in tokenize(record.value(attribute)):
            if len(token) >= min_token_length:
                tokens.add(token)
    return sorted(tokens)


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
        # None until add_records (_BULK) or commit_one / load_state_dict (_STREAMED).
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
                f"ingest_one / commit_one / load_state_dict stream into it")

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

    def _add_interned(self, records: Iterable[Record]) -> int:
        """Bulk-add records whose keys are interned to codes by first occurrence.

        Codes follow the order keys are first seen, never a hash, so the
        columns do not depend on ``PYTHONHASHSEED``.
        """
        self._check_mode(_BULK, "add_records")
        batch = list(records)
        table = self._key_codes
        codes: List[int] = []
        counts: List[int] = []
        for record in batch:
            keys = self._record_keys(record)
            counts.append(len(keys))
            codes.extend([table.setdefault(key, len(table)) for key in keys])
        return self._add_postings(batch, np.array(codes, dtype=np.int64),
                                  np.array(counts, dtype=np.int64))

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

    # ------------------------------------------------------------------ #
    # State serialization (materialized snapshots of a streamed index)
    # ------------------------------------------------------------------ #
    def _encode_key(self, key: Hashable) -> object:
        """JSON-safe encoding of one bucket key (subclass hook; default: as-is)."""
        return key

    def _decode_key(self, key: object) -> Hashable:
        """Inverse of :meth:`_encode_key`."""
        return key

    def state_dict(self) -> Dict[str, object]:
        """A JSON-serializable copy of the full index state.

        Everything mutable is *copied* (cheap python list copies), so callers
        may build the state under a lock and serialize it outside — the
        copy-under-lock half of the snapshot protocol in
        :mod:`repro.storage.snapshots`.
        """
        self._check_mode(_STREAMED, "state_dict")
        return {
            "record_ids": list(self._record_ids),
            "sources": list(self._sources),
            "buckets": [[self._encode_key(key), list(members)]
                        for key, members in self._buckets.items()],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Replace the index state with one produced by :meth:`state_dict`.

        The configuration (caps, bands, seeds...) is *not* part of the state:
        the index must be constructed with the same knobs it was saved under,
        exactly as model ``state_dict`` conventions have it.
        """
        self._check_mode(_STREAMED, "load_state_dict")
        self._mode = _STREAMED
        self._record_ids = [str(record_id) for record_id in state["record_ids"]]
        self._sources = [str(source) for source in state["sources"]]
        self._buckets = {self._decode_key(key): [int(member) for member in members]
                         for key, members in state["buckets"]}

    def skew_stats(self, top_k: int = 5) -> Dict[str, object]:
        """Bucket-size skew summary: Gini coefficient, extremes, and the
        ``top_k`` hottest buckets (the observability hook skew-aware
        sharding will select partitions on).  Walks every bucket — a
        diagnostics call, not a per-ingest one."""
        from ..obs.stats import bucket_skew

        return bucket_skew(self.bucket_sizes(), top_k=top_k)


class InvertedTokenIndex(_BucketedIndex):
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

    @property
    def max_postings(self) -> int:
        return self.max_bucket_size

    def _record_keys(self, record: Record) -> List[str]:
        return record_tokens(record, self.attributes, self.min_token_length)

    def add_records(self, records: Iterable[Record]) -> int:
        """Post a batch of records to the bulk columns; returns how many."""
        return self._add_interned(records)

    def stats(self) -> Dict[str, int]:
        """Index size counters for pipeline reports."""
        return {
            "records": len(self._record_ids),
            "tokens": self._bucket_count(),
            "overflowed_tokens": self._overflowed(),
        }


class InitialsKeyIndex(_BucketedIndex):
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
        # Attribute values repeat across records; memoised process-locally.
        self._value_keys_memo: Dict[str, Tuple[str, ...]] = {}

    def _value_keys(self, text: str) -> Tuple[str, ...]:
        """The initials keys of one attribute value, memoised per text."""
        keys = self._value_keys_memo.get(text)
        if keys is None:
            initials = [token[0] for token in tokenize(text)
                        if any(ch.isalnum() for ch in token)]
            lengths = range(2, min(len(initials), self.max_prefix_tokens) + 1)
            keys = tuple(sorted({"".join(sorted(initials[:length])) for length in lengths}))
            admit(self._value_keys_memo, text, keys)
        return keys

    def _record_keys(self, record: Record) -> List[str]:
        names = record.attribute_names() if self.attributes is None else self.attributes
        keys: Set[str] = set()
        for attribute in names:
            keys.update(self._value_keys(record.value(attribute)))
        return sorted(keys)

    def add_records(self, records: Iterable[Record]) -> int:
        """Post a batch of records to the bulk columns; returns how many."""
        return self._add_interned(records)

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
        # Token hashes repeat heavily across records; memoised process-locally.
        self._token_hash_memo: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Sketching
    # ------------------------------------------------------------------ #
    def _token_hashes(self, record: Record) -> List[int]:
        memo = self._token_hash_memo
        hashes: List[int] = []
        for token in record_tokens(record, self.attributes, self.min_token_length):
            value = memo.get(token)
            if value is None:
                value = stable_hash(token, salt=self.seed) % _MERSENNE_PRIME
                admit(memo, token, value)
            hashes.append(value)
        if not hashes:
            # An all-empty record must not collide with every other empty
            # record in every band; give it a unique sentinel "token".
            hashes.append(stable_hash(f"\x00empty:{record.record_id}", salt=self.seed)
                          % _MERSENNE_PRIME)
        return hashes

    def signatures(self, records: Sequence[Record]) -> np.ndarray:
        """MinHash signatures of ``records`` as a ``(num_perm, N)`` array."""
        if not records:
            return np.empty((self.num_perm, 0), dtype=np.uint64)
        token_lists = [self._token_hashes(record) for record in records]
        offsets = np.zeros(len(token_lists), dtype=np.int64)
        offsets[1:] = np.cumsum([len(hashes) for hashes in token_lists])[:-1]
        flat = np.fromiter((value for hashes in token_lists for value in hashes),
                           dtype=np.uint64,
                           count=sum(len(hashes) for hashes in token_lists))
        # (P, T) permuted hashes -> per-record minima along the token axis.
        permuted = (self._a[:, None] * flat[None, :] + self._b[:, None]) % _HASH_RANGE
        return np.minimum.reduceat(permuted, offsets, axis=1)

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
        keys = self._band_keys(self.signatures([record]))
        return list(enumerate(keys[:, 0].tolist()))

    def _encode_key(self, key: Hashable) -> object:
        return list(key)  # (band, value) tuples are not JSON keys

    def _decode_key(self, key: object) -> Hashable:
        band, value = key  # type: ignore[misc]
        return (int(band), int(value))

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
