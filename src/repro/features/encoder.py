"""Pair encoding: entity pairs -> fixed-shape token-embedding feature tensors.

Following Eq. (3) of the paper, an entity pair is represented by ``F = K|A|``
token-embedding features ``h = [h_1, ..., h_F]`` (``K`` contrastive kinds per
attribute) where each ``h_j`` is the sum of the (fixed, pretrained-style)
embeddings of that relational feature's word tokens.  Features with no tokens
— missing attribute values, challenges C1/C2 — are encoded with a fixed
normalised non-zero vector so that their per-feature affine transformation
still receives gradient.

By Eq. (2) the ``K`` features of an attribute depend only on the pair's two
values of it.  ``PairEncoder.encode`` therefore works neither pair by pair nor
(pair, attribute) by (pair, attribute): a call is planned over its distinct
*slots* ``(attribute, left value, right value)`` and executed as flat array
operations:

1. **Slot plan**: a record keeps the ids of its texts in the process-wide
   :class:`~repro.text.tokenizer.TextTable`, interned once per generation.
   The call gathers them into a ``(2N, A)`` id matrix — from the pairs'
   records, or, for a :class:`~repro.data.records.PairColumns` view, by
   indexing its records' ``(R, A)`` matrix (gathered once per generation for
   the view and all its slices) with the slice's positions.  It numbers texts
   by first occurrence, and one ``np.unique`` over the int64 keys
   ``(attribute, left, right)`` (attribute-major) gives the ``S`` distinct
   slots and the slot of every (pair, attribute) — a :class:`SlotPlan`.
2. **Encoding cache** (:class:`~repro.features.cache.EncodingCache`), for a
   list of pairs only: a slot's rows depend on its two texts only, so the
   cache maps the key ``left id << 32 | right id`` to a row of an
   append-only arena per encoder configuration and table generation (slots
   of different attributes with the same two texts share it); only the
   slots it misses are encoded below.  A ``PairColumns`` view — a batch
   pipeline's candidates — skips this step and encodes every slot: a bulk
   arrival's value pairs seldom recur in a later call, and hashing them
   cost more than the reuse saved (``docs/benchmarking.md``).
3. **Token stream**: the tokenizer's token ids of each text (a column of the
   generation, computed once per text) are gathered into one stream, one
   segment per slot side; embedding rows are indexed by the same token ids.
4. **Integer-key membership**: with the key ``slot * V + token``, one sort
   tells for every token of either side whether the other side's value holds
   it — the *shared* / *unique* split of Eq. (2), with the token order and
   multiplicity of
   :func:`~repro.features.relational.extract_relational_features`.
5. **Grouped sums**: slots are grouped by token count and summed with
   ``rows[ids].sum(axis=1)``, then normalised with batched row norms.

This is bit-identical to the per-pair definition
(:meth:`PairEncoder.encode_pair`, which the tests stack as their oracle:
``tests/features/encode_oracle.py``) because the same table rows are added in
the same row-sequential order and the norm is the same BLAS dot.  The batch's
``features`` are the plan laid out per pair, materialised on first access; the
network's inference forward (``AdaMELNetwork.forward_numpy``) reads the plan
itself and evaluates Eq. 4-6 once per slot.  Per call on one core, warm text
table, cold cache, against the per-pair extraction stacked: one pair 0.29 vs
0.08 ms, two pairs 0.27 vs 0.18 ms, 19 pairs 0.40 vs 1.6 ms, 256 pairs 2.2 vs
29 ms, 2 048 pairs 14 vs 214 ms.  A 13-pair call whose slots all hit the
cache takes 0.08 ms: plan overhead that pays off only when the forward reads
the plan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..data.records import EntityPair, PairColumns
from ..data.schema import Schema
from ..text.embeddings import HashedEmbedder, TokenEmbedder, missing_value_vector
from ..text.tokenizer import Generation, Tokenizer, text_table
from .cache import EncodingCache, get_default_cache
from .relational import SHARED_SUFFIX, UNIQUE_SUFFIX, RelationalFeatureExtractor

__all__ = ["EncodedPair", "EncodedBatch", "PairEncoder", "SlotPlan"]

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


@dataclass(eq=False)
class SlotPlan:
    """Pairs as the distinct attribute slots their features come from.

    ``rows`` ``(S, K, D)`` holds the ``K`` feature vectors of every distinct
    slot, attribute-major: attribute ``a``'s slots are
    ``rows[offsets[a]:offsets[a + 1]]``.  ``index`` ``(N, A)`` is the slot of
    every (pair, attribute), so feature ``a * K + k`` of pair ``n`` is
    ``rows[index[n, a], k]``.
    """

    rows: np.ndarray
    index: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    @property
    def num_features(self) -> int:
        return self.index.shape[1] * self.rows.shape[1]

    def expand(self, per_slot: np.ndarray) -> np.ndarray:
        """``(S, K, ...)`` per-slot values laid out per pair: ``(N, F, ...)``."""
        return per_slot[self.index].reshape(
            (len(self.index), self.num_features) + per_slot.shape[2:])

    def take(self, indices: np.ndarray) -> "SlotPlan":
        """The plan of the pairs at ``indices`` (the rows are shared)."""
        return SlotPlan(self.rows, self.index[indices], self.offsets)

    @classmethod
    def from_features(cls, features: np.ndarray) -> "SlotPlan":
        """The plan of dense ``(N, F, D)`` features: every feature is its own
        attribute (``K = 1``) whose slots are the byte-distinct rows of its
        column (compared as opaque bytes: +0.0 and -0.0 stay apart)."""
        num_pairs, num_features, dim = features.shape
        index = np.empty((num_pairs, num_features), dtype=np.intp)
        offsets = [0]
        distinct = []
        for j in range(num_features):
            column = np.ascontiguousarray(features[:, j, :])
            keys = column.view(np.dtype((np.void, dim * column.itemsize))).ravel()
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            distinct.append(column[first])
            index[:, j] = inverse.ravel() + offsets[-1]
            offsets.append(offsets[-1] + len(first))
        rows = np.concatenate(distinct)[:, None, :]
        return cls(rows, index, np.asarray(offsets, dtype=np.intp))


class EncodedBatch:
    """A batch of encoded pairs: their :class:`SlotPlan` and labels.

    ``features`` ``(N, F, D)`` and ``feature_mask`` ``(N, F)`` are the plan
    laid out per pair, materialised on first access.
    """

    def __init__(self, plan: SlotPlan, slot_mask: np.ndarray, labels: np.ndarray) -> None:
        self.plan = plan
        self.slot_mask = slot_mask  # (S, K): 1.0 where the slot's feature had tokens
        self.labels = labels  # (N,), -1 for unlabeled
        self._features: Optional[np.ndarray] = None
        self._feature_mask: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def num_features(self) -> int:
        return self.plan.num_features

    @property
    def embedding_dim(self) -> int:
        return self.plan.rows.shape[2]

    @property
    def features(self) -> np.ndarray:
        if self._features is None:
            self._features = self.plan.expand(self.plan.rows)
        return self._features

    @property
    def feature_mask(self) -> np.ndarray:
        if self._feature_mask is None:
            self._feature_mask = self.plan.expand(self.slot_mask)
        return self._feature_mask

    def labeled_view(self) -> "EncodedBatch":
        """Return the subset of the batch that carries labels."""
        return self.subset(np.flatnonzero(self.labels >= 0))

    def subset(self, indices: Sequence[int]) -> "EncodedBatch":
        """Return the pairs at ``indices`` as a new batch."""
        index_array = np.asarray(indices, dtype=np.intp)
        return EncodedBatch(self.plan.take(index_array), self.slot_mask,
                            self.labels[index_array])


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
        Encoding cache to reuse slot rows across calls; defaults to the
        process-wide cache from :func:`~repro.features.cache.get_default_cache`.
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
        self._attributes = tuple(schema.attributes)
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
        """Identity of this encoder's configuration (names its cache arena)."""
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
        """Encode a sequence of pairs into an :class:`EncodedBatch`.

        For a list of pairs, value pairs the cache holds are reused and the
        others are encoded with the array path.  A
        :class:`~repro.data.records.PairColumns` view (what the batch
        pipelines score) is encoded from its position columns (its pairs are
        unlabeled), building no pair, and never consults the cache: it looks
        up no key and stores no row.  Either way the batch's features are
        bit-identical to stacking :meth:`encode_pair` over ``pairs``.
        """
        if not isinstance(pairs, PairColumns):
            pairs = list(pairs)
        if not len(pairs):
            return self._empty_batch()
        # Pin one text-table generation: every id below names one of its texts.
        generation = text_table().generation()
        index, offsets, left, right = self._plan(self._side_cells(generation, pairs))
        if self.cache is None or isinstance(pairs, PairColumns):
            # A view is a bulk relation: its value pairs seldom recur in a
            # later call, so hashing them into the cache costs more than the
            # reuse saves.
            rows, mask = self._encode_value_pairs(generation, left, right)
        else:
            # A slot's rows depend on its two texts only: slots of different
            # attributes with the same value pair share a cache row.
            rows, mask = self.cache.fetch(
                (self._fingerprint, generation.serial), (left << 32 | right).tolist(),
                lambda positions: self._encode_value_pairs(generation, left[positions],
                                                           right[positions]))
        if isinstance(pairs, PairColumns):
            labels = np.full(len(pairs), -1, dtype=np.int64)
        else:
            labels = np.array([pair.label if pair.label is not None else -1
                               for pair in pairs], dtype=np.int64)
        return EncodedBatch(SlotPlan(rows, index, offsets), mask, labels)

    def _empty_batch(self) -> EncodedBatch:
        kinds = len(self.extractor.feature_kinds)
        attributes = len(self.schema.attributes)
        plan = SlotPlan(np.zeros((0, kinds, self.embedding_dim)),
                        np.zeros((0, attributes), dtype=np.intp),
                        np.zeros(attributes + 1, dtype=np.intp))
        return EncodedBatch(plan, np.zeros((0, kinds)), np.zeros(0, dtype=np.int64))

    def _side_cells(self, generation: Generation, pairs: Sequence[EntityPair]) -> np.ndarray:
        """The ``(2N, A)`` text ids of the pairs' records, left and right side
        of each pair in turn: indexed out of a view's record matrix, or
        gathered from the pairs' records."""
        if isinstance(pairs, PairColumns):
            sides = np.stack((pairs.left, pairs.right), axis=1).ravel()
            return pairs.text_ids(generation, self._attributes)[sides]
        sides = [record for pair in pairs for record in (pair.left, pair.right)]
        return generation.cells(sides, self._attributes)[0].reshape(
            len(sides), len(self._attributes))

    @staticmethod
    def _plan(side_cells: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The slots of the ``(2N, A)`` text ids ``side_cells``: ``(index,
        offsets, left, right)``.

        ``index`` is the ``(N, A)`` slot of every (pair, attribute) and
        ``offsets`` the ``(A + 1,)`` attribute offsets of the slots (see
        :class:`SlotPlan`); ``left`` / ``right`` hold each slot's two text
        ids.  Slots are ordered by attribute, then by the first occurrence of
        their left and right texts in the call.  Two ``np.unique`` calls over
        int64 keys.
        """
        num_sides, num_attributes = side_cells.shape
        cells = side_cells.ravel()
        # A text's call-local id is the position of its first occurrence.
        _, first, inverse = np.unique(cells, return_index=True, return_inverse=True)
        local = first[inverse].reshape(num_sides, num_attributes)
        num_cells = len(cells)
        # Attribute-major keys a C^2 + left C + right (C = 2 N A cells).
        as_left = (np.arange(num_attributes) * num_cells + local[0::2]) * num_cells
        slot_keys, index = np.unique((as_left + local[1::2]).ravel(), return_inverse=True)
        offsets = np.searchsorted(slot_keys, np.arange(num_attributes + 1)
                                  * (num_cells * num_cells))
        left, right = np.divmod(slot_keys % (num_cells * num_cells), num_cells)
        return (index.reshape(num_sides // 2, num_attributes), offsets,
                cells[left], cells[right])

    def _encode_value_pairs(self, generation: Generation, left: np.ndarray,
                            right: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Encode the value pairs of texts ``(left[m], right[m])`` of
        ``generation`` into ``(M, K, D)`` rows + ``(M, K)`` masks.

        The contrastive features of :func:`extract_relational_features` are
        computed for all value pairs at once as set algebra on integer keys
        ``m * V + token``: *shared* is the left tokens whose key occurs on
        the right (left order, left multiplicity); *unique* is the left tokens
        that do not, followed by the right tokens whose key does not occur on
        the left.  The per-feature embedding sums then run as grouped
        reductions (one per distinct token count), whose row-sequential
        accumulation order and batched-BLAS row norms are bit-identical to the
        sequential ``embed_tokens`` + ``np.linalg.norm`` of
        :meth:`encode_pair`.
        """
        num_pairs = len(left)
        kinds = self.extractor.feature_kinds
        num_kinds, dim = len(kinds), self.embedding_dim

        # One token stream over the left texts, then the right ones.
        stream, sides = self.tokenizer.token_ids(generation, np.concatenate((left, right)))
        rows = self.embedder.rows(generation, stream)  # (T, D) by token id
        on_left = sides < num_pairs
        left_tokens, left_slots = stream[on_left], sides[on_left]
        right_tokens, right_slots = stream[~on_left], sides[~on_left] - num_pairs

        # len(rows) exceeds every id, so a key names one (value pair, token).
        left_shared, right_shared = _on_both_sides(left_slots * len(rows) + left_tokens,
                                                   right_slots * len(rows) + right_tokens)
        left_only, right_only = ~left_shared, ~right_shared
        by_kind = {
            SHARED_SUFFIX: ([left_tokens[left_shared]], [left_slots[left_shared]]),
            UNIQUE_SUFFIX: ([left_tokens[left_only], right_tokens[right_only]],
                            [left_slots[left_only], right_slots[right_only]]),
        }

        # One token stream ordered by output feature (m * K + k); the stable
        # sort keeps left-only tokens ahead of right-only ones.
        tokens = np.concatenate([part for kind in kinds for part in by_kind[kind][0]])
        feature_slots = np.concatenate([part * num_kinds + k for k, kind in enumerate(kinds)
                                        for part in by_kind[kind][1]])
        tokens = tokens[np.argsort(feature_slots, kind="stable")]
        counts = np.bincount(feature_slots, minlength=num_pairs * num_kinds)
        offsets = np.cumsum(counts) - counts

        # Summed token embeddings per feature; empty features stay zero.
        flat_features = np.zeros((num_pairs * num_kinds, dim), dtype=np.float64)
        for length in np.flatnonzero(np.bincount(counts)[1:]) + 1:
            slots = np.flatnonzero(counts == length)
            ids = tokens[offsets[slots][:, None] + np.arange(length)]  # (M, length)
            # Reducing axis 1 of the C-contiguous (M, length, D) gather
            # accumulates rows sequentially — the same order as the
            # token-by-token sum of TokenEmbedder.embed_tokens.
            flat_features[slots] = rows[ids].sum(axis=1)
        # Batched row norms via BLAS dot, matching np.linalg.norm on each 1-D
        # row exactly.  A zero norm is an empty feature or a sum that cancelled.
        norms = np.sqrt(np.matmul(flat_features[:, None, :], flat_features[:, :, None]))[:, 0, 0]
        zero_norm = norms == 0.0
        np.divide(flat_features, np.where(zero_norm, 1.0, norms)[:, None], out=flat_features)
        flat_features[zero_norm] = self._missing

        return (flat_features.reshape(num_pairs, num_kinds, dim),
                (counts > 0).astype(np.float64).reshape(num_pairs, num_kinds))


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

