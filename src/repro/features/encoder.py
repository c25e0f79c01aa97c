"""Pair encoding: entity pairs -> fixed-shape token-embedding feature tensors.

Following Eq. (3) of the paper, an entity pair is represented by ``F = 2|A|``
token-embedding features ``h = [h_1, ..., h_F]`` where each ``h_j`` is the sum
of the (fixed, pretrained-style) embeddings of that relational feature's word
tokens.  Features with no tokens — missing attribute values, challenges C1/C2 —
are encoded with a fixed normalised non-zero vector so that their per-feature
affine transformation still receives gradient.

``PairEncoder.encode`` never works pair by pair.  Every record appears in
many candidate pairs and a corpus has far fewer distinct attribute texts than
record x attribute slots, so a call is planned per *distinct record* and
executed as flat array operations:

1. **Vocabulary table** (:class:`~repro.text.embeddings.TokenTable`): token ->
   row id in one append-only ``(V, D)`` matrix per embedder configuration,
   shared process-wide.  A call pins one table; ids never move within it.
2. **Value memo** (:meth:`~repro.text.tokenizer.Tokenizer.ids_memo`):
   attribute text -> the row ids of its tokens, kept with the tokenizer's
   memo (``Tokenizer.clear_memo()`` drops it) and bounded by its
   ``cache_size``.
3. **CSR layout**: the call's distinct records are looked up once each
   (``A`` memo reads per record) and their ids laid out as one token stream
   with per-(record, attribute) lengths and offsets; ragged gathers expand it
   to one stream per side over the (pair, attribute) slots.
4. **Integer-key membership**: with the key ``slot * V + token``, one sort
   tells for every token of either side whether the other side's value of
   the same slot holds it — the *shared* / *unique* split of Eq. (2), with the
   token order and multiplicity of
   :func:`~repro.features.relational.extract_relational_features`.
5. **Grouped sums**: slots are grouped by token count and summed with
   ``rows[ids].sum(axis=1)``, then normalised with batched row norms.

This is bit-identical to the per-pair definition
(:meth:`PairEncoder.encode_pair`, which the tests stack as their oracle:
``tests/features/encode_oracle.py``) because the same table rows are
added in the same row-sequential order and the norm is the same BLAS dot.  It
pays off when records are reused across the pairs of a call and texts across
calls: with warm memos a one-pair call costs 1.25x what the per-pair
extraction did (136 vs 109 us), two pairs break even, 256 pairs take 3.3 ms
instead of 12.0.  Encoded rows are memoised per pair in a process-wide
:class:`~repro.features.cache.EncodingCache`, so support/target sets encoded
once are reused across epochs, variants and experiments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..data.records import EntityPair
from ..data.schema import Schema
from ..text.embeddings import HashedEmbedder, TokenEmbedder, missing_value_vector
from ..text.tokenizer import Tokenizer
from .cache import EncodingCache, get_default_cache
from .relational import SHARED_SUFFIX, UNIQUE_SUFFIX, RelationalFeatureExtractor

__all__ = ["EncodedPair", "EncodedBatch", "PairEncoder"]

# Fingerprint tokens for tokenizers/embedders that expose no fingerprint():
# monotonic, so they are never reused within a process (unlike ``id()``).
_ANONYMOUS_TOKENS = itertools.count()


@dataclass
class EncodedPair:
    """The encoded representation of one entity pair."""

    features: np.ndarray  # shape (F, D): token-embedding per relational feature
    label: Optional[int]
    pair_id: str
    feature_mask: np.ndarray  # shape (F,): 1.0 where the feature had tokens


@dataclass
class EncodedBatch:
    """A batch of encoded pairs stacked into arrays."""

    features: np.ndarray  # shape (N, F, D)
    labels: np.ndarray  # shape (N,), -1 for unlabeled
    pair_ids: List[str]
    feature_mask: np.ndarray  # shape (N, F)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def embedding_dim(self) -> int:
        return self.features.shape[2]

    def labeled_view(self) -> "EncodedBatch":
        """Return the subset of the batch that carries labels."""
        mask = self.labels >= 0
        return EncodedBatch(
            features=self.features[mask],
            labels=self.labels[mask],
            pair_ids=[pid for pid, keep in zip(self.pair_ids, mask) if keep],
            feature_mask=self.feature_mask[mask],
        )

    def subset(self, indices: Sequence[int]) -> "EncodedBatch":
        """Return the pairs at ``indices`` as a new batch."""
        index_array = np.asarray(indices, dtype=np.int64)
        return EncodedBatch(
            features=self.features[index_array],
            labels=self.labels[index_array],
            pair_ids=[self.pair_ids[i] for i in index_array],
            feature_mask=self.feature_mask[index_array],
        )


class PairEncoder:
    """Encode entity pairs into ``(F, D)`` feature arrays.

    Parameters
    ----------
    schema:
        Aligned attribute schema shared by the source and target domain.
    embedder:
        Token embedder (defaults to the hashed FastText substitute).
    tokenizer:
        Tokeniser applied to attribute values (default: crop to 20 tokens).
    feature_kinds:
        Which contrastive features to produce (``("shared", "unique")`` by
        default; the ablation of Table 6 uses single-kind encoders).
    cache:
        Encoding cache to reuse per-pair feature rows across calls; defaults
        to the process-wide cache from :func:`~repro.features.cache.get_default_cache`.
    use_cache:
        Set ``False`` to always encode from scratch (diagnostics, benchmarks).
    """

    def __init__(self, schema: Schema, embedder: Optional[TokenEmbedder] = None,
                 tokenizer: Optional[Tokenizer] = None,
                 feature_kinds: Sequence[str] = ("shared", "unique"),
                 cache: Optional[EncodingCache] = None, use_cache: bool = True) -> None:
        self.schema = schema
        self.embedder = embedder if embedder is not None else HashedEmbedder()
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.extractor = RelationalFeatureExtractor(schema, self.tokenizer, feature_kinds)
        self._missing = missing_value_vector(self.embedder.dim)
        # Explicit None check: an empty EncodingCache is falsy (it has __len__).
        self.cache: Optional[EncodingCache] = None
        if use_cache:
            self.cache = cache if cache is not None else get_default_cache()
        # Components without a fingerprint() get a fresh token per encoder
        # (never reused, unlike id()): cache entries are then private to this
        # encoder instead of potentially matching an unrelated component.
        self._fingerprint = "|".join((
            "schema:" + ",".join(schema.attributes),
            "kinds:" + ",".join(self.extractor.feature_kinds),
            self.tokenizer.fingerprint() if hasattr(self.tokenizer, "fingerprint")
            else f"tok@{next(_ANONYMOUS_TOKENS)}",
            self.embedder.fingerprint() if hasattr(self.embedder, "fingerprint")
            else f"emb@{next(_ANONYMOUS_TOKENS)}",
        ))

    @property
    def fingerprint(self) -> str:
        """Identity of this encoder's configuration (part of cache keys)."""
        return self._fingerprint

    @property
    def num_features(self) -> int:
        """``F``: number of relational features per pair."""
        return self.extractor.num_features

    @property
    def embedding_dim(self) -> int:
        """``D``: dimension of each feature's token embedding."""
        return self.embedder.dim

    @property
    def feature_names(self) -> List[str]:
        return self.extractor.names

    def encode_pair(self, pair: EntityPair) -> EncodedPair:
        """Encode one pair into its ``(F, D)`` feature matrix.

        Each feature's summed token embedding is L2-normalised so that feature
        vectors live on a common scale regardless of how many tokens the
        attribute value contains; the missing-value vector is unit-norm by
        construction, so present and missing features are comparable and the
        per-feature affine layers (Eq. 4) train stably.
        """
        relational = self.extractor(pair)
        features = np.empty((len(relational), self.embedder.dim), dtype=np.float64)
        mask = np.zeros(len(relational), dtype=np.float64)
        for index, feature in enumerate(relational):
            if feature.is_empty:
                features[index] = self._missing
            else:
                summed = self.embedder.embed_tokens(list(feature.tokens))
                norm = np.linalg.norm(summed)
                features[index] = summed / norm if norm > 0 else self._missing
                mask[index] = 1.0
        return EncodedPair(features=features, label=pair.label, pair_id=pair.pair_id,
                           feature_mask=mask)

    def encode(self, pairs: Sequence[EntityPair]) -> EncodedBatch:
        """Encode a sequence of pairs into a stacked :class:`EncodedBatch`.

        Cached pair rows are reused; the remaining pairs are encoded with the
        vectorised array path.  The output is bit-identical to stacking
        :meth:`encode_pair` over ``pairs``.
        """
        pairs = list(pairs)
        if not pairs:
            return self._empty_batch()
        num_pairs = len(pairs)
        features = np.empty((num_pairs, self.num_features, self.embedding_dim),
                            dtype=np.float64)
        mask = np.empty((num_pairs, self.num_features), dtype=np.float64)

        # Each distinct record's attribute values, read once per call and used
        # both for the (exact-by-value) cache keys and for the array path.
        # Keyed by identity: ``pairs`` keeps every record alive for the call.
        attributes = self.schema.attributes
        records = {id(record): record for pair in pairs for record in (pair.left, pair.right)}
        values = {key: record.value_tuple(attributes) for key, record in records.items()}

        cache = self.cache
        keys: List[Tuple[Hashable, ...]] = []
        if cache is not None:
            fingerprint = self._fingerprint
            keys = [(fingerprint, pair.pair_id, values[id(pair.left)], values[id(pair.right)])
                    for pair in pairs]
            missing_rows: List[int] = []
            for i, key in enumerate(keys):
                entry = cache.lookup(key)
                if entry is None:
                    missing_rows.append(i)
                else:
                    features[i] = entry[0]
                    mask[i] = entry[1]
        else:
            missing_rows = list(range(num_pairs))

        if missing_rows:
            fresh_features, fresh_mask = self._encode_arrays(
                [pairs[i] for i in missing_rows], values)
            features[missing_rows] = fresh_features
            mask[missing_rows] = fresh_mask
            if cache is not None:
                for j, i in enumerate(missing_rows):
                    cache.store(keys[i], fresh_features[j], fresh_mask[j])

        labels = np.array([pair.label if pair.label is not None else -1 for pair in pairs],
                          dtype=np.int64)
        return EncodedBatch(features=features, labels=labels,
                            pair_ids=[pair.pair_id for pair in pairs], feature_mask=mask)

    def _empty_batch(self) -> EncodedBatch:
        empty = np.zeros((0, self.num_features, self.embedding_dim))
        return EncodedBatch(features=empty, labels=np.zeros(0, dtype=np.int64),
                            pair_ids=[], feature_mask=np.zeros((0, self.num_features)))

    def _token_streams(self, pairs: Sequence[EntityPair], values: Dict[int, Tuple[str, ...]]
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Token row ids of both sides of every (pair, attribute) slot.

        Returns ``(left_tokens, left_slots, right_tokens, right_slots, rows)``:
        the flat token-id stream of each side with the slot ``n * A + a``
        every token belongs to (slots ascending, tokens in value order), and
        the embedding matrix the ids index.  Python work is O(A) per distinct
        record; the expansion to pairs is ragged gathers.
        """
        num_attributes = len(self.schema.attributes)
        record_index: Dict[int, int] = {}
        left = [record_index.setdefault(id(pair.left), len(record_index)) for pair in pairs]
        right = [record_index.setdefault(id(pair.right), len(record_index)) for pair in pairs]
        texts = [text for key in record_index for text in values[key]]

        # Pin one vocabulary table for the call: every id below is a row of it.
        table = self.embedder.vocabulary()
        value_ids = list(map(self.tokenizer.ids_memo(table).get, texts))
        unseen = list(dict.fromkeys(
            text for text, ids in zip(texts, value_ids) if ids is None))
        if unseen:
            resolved = dict(zip(unseen, self.tokenizer.token_ids(unseen, table)))
            value_ids = [resolved[text] if ids is None else ids
                         for text, ids in zip(texts, value_ids)]
        rows = table.rows  # read after the ids: holds every row they name

        # CSR over (record, attribute): tokens, lengths, start offsets.
        record_tokens = np.concatenate(value_ids)
        lengths = np.fromiter(map(len, value_ids), dtype=np.int64, count=len(value_ids))
        offsets = np.cumsum(lengths) - lengths
        attribute = np.arange(num_attributes)
        streams = []
        for side in (left, right):
            cells = (np.asarray(side, dtype=np.int64)[:, None] * num_attributes
                     + attribute).ravel()
            streams.extend(_ragged_gather(record_tokens, offsets[cells], lengths[cells]))
        return (*streams, rows)

    def _encode_arrays(self, pairs: Sequence[EntityPair], values: Dict[int, Tuple[str, ...]]
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised encoding of ``pairs`` into ``(N, F, D)`` + ``(N, F)`` arrays.

        ``values`` maps ``id(record)`` to the record's attribute values.  The
        contrastive features of :func:`extract_relational_features` are
        computed for all slots at once as set algebra on integer keys
        ``slot * V + token``: *shared* is the left tokens whose key occurs on
        the right (left order, left multiplicity); *unique* is the left
        tokens that do not, followed by the right tokens whose key does not
        occur on the left.  The per-feature embedding sums then run as
        grouped reductions (one per distinct token count), whose
        row-sequential accumulation order and batched-BLAS row norms are
        bit-identical to the sequential ``embed_tokens`` + ``np.linalg.norm``
        of :meth:`encode_pair`.
        """
        num_pairs = len(pairs)
        num_features, dim = self.num_features, self.embedding_dim
        kinds = self.extractor.feature_kinds
        left_tokens, left_slots, right_tokens, right_slots, rows = \
            self._token_streams(pairs, values)

        # len(rows) exceeds every id, so a key names one (slot, token); slots
        # times vocabulary stays far below 2**63 for anything that fits in RAM.
        left_shared, right_shared = _on_both_sides(left_slots * len(rows) + left_tokens,
                                                   right_slots * len(rows) + right_tokens)
        left_only, right_only = ~left_shared, ~right_shared
        by_kind = {
            SHARED_SUFFIX: ([left_tokens[left_shared]], [left_slots[left_shared]]),
            UNIQUE_SUFFIX: ([left_tokens[left_only], right_tokens[right_only]],
                            [left_slots[left_only], right_slots[right_only]]),
        }

        # One token stream ordered by output feature slot (n * F + a * K + k);
        # the stable sort keeps left-only tokens ahead of right-only ones.
        tokens = np.concatenate([part for kind in kinds for part in by_kind[kind][0]])
        feature_slots = np.concatenate([part * len(kinds) + k for k, kind in enumerate(kinds)
                                        for part in by_kind[kind][1]])
        tokens = tokens[np.argsort(feature_slots, kind="stable")]
        counts = np.bincount(feature_slots, minlength=num_pairs * num_features)
        starts = np.cumsum(counts) - counts

        # Summed token embeddings per feature slot; empty slots stay zero.
        flat_features = np.zeros((num_pairs * num_features, dim), dtype=np.float64)
        for length in np.flatnonzero(np.bincount(counts)[1:]) + 1:
            slots = np.flatnonzero(counts == length)
            ids = tokens[starts[slots][:, None] + np.arange(length)]  # (M, length)
            # Reducing axis 1 of the C-contiguous (M, length, D) gather
            # accumulates rows sequentially — the same order as the
            # token-by-token sum of TokenEmbedder.embed_tokens.
            flat_features[slots] = rows[ids].sum(axis=1)
        # Batched row norms via BLAS dot, matching np.linalg.norm on each 1-D
        # row exactly.  A zero norm is an empty slot or a sum that cancelled.
        norms = np.sqrt(np.matmul(flat_features[:, None, :], flat_features[:, :, None]))[:, 0, 0]
        zero_norm = norms == 0.0
        np.divide(flat_features, np.where(zero_norm, 1.0, norms)[:, None], out=flat_features)
        flat_features[zero_norm] = self._missing

        return (flat_features.reshape(num_pairs, num_features, dim),
                (counts > 0).astype(np.float64).reshape(num_pairs, num_features))


def _on_both_sides(left_keys: np.ndarray, right_keys: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Per key of either side, whether the other side holds it too (one sort)."""
    _, group = np.unique(np.concatenate((left_keys, right_keys)), return_inverse=True)
    left_group, right_group = group[:len(left_keys)], group[len(left_keys):]
    on_left = np.zeros(len(group), dtype=bool)
    on_right = np.zeros(len(group), dtype=bool)
    on_left[left_group] = True
    on_right[right_group] = True
    on_both = on_left & on_right
    return on_both[left_group], on_both[right_group]


def _ragged_gather(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate ``values[starts[i]:starts[i] + lengths[i]]`` over all ``i``.

    Returns the gathered values and, per gathered element, its segment ``i``.
    """
    segments = np.repeat(np.arange(len(lengths)), lengths)
    first = np.cumsum(lengths) - lengths  # where each segment begins in the output
    positions = np.repeat(starts - first, lengths) + np.arange(len(segments))
    return values[positions], segments
