"""EntityMatcher baseline (Fu et al., IJCAI 2020) — hierarchical matching.

EntityMatcher matches heterogeneous records at three granularities: tokens are
soft-aligned *across attributes* (so a value that moved to a different column
can still be compared), token comparisons are aggregated per attribute, and an
entity-level representation feeds the classifier.  This reproduction keeps the
hierarchy — cross-attribute token alignment → attribute aggregation with a
bi-GRU → entity-level attention — in fully batched tensor operations.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..data.records import EntityPair
from ..nn import functional as F
from ..nn.attention import AdditiveAttention
from ..nn.layers import MLP, Linear
from ..nn.module import Module
from ..nn.recurrent import GRU
from ..nn.tensor import Tensor, recomputed_leaf
from .common import BaselineConfig, SupervisedPairModel

__all__ = ["EntityMatcherNetwork", "EntityMatcher"]


class EntityMatcherNetwork(Module):
    """Token-level cross-attribute alignment with hierarchical aggregation."""

    # Forward reads its input through recomputed leaves over a stable batch
    # buffer, so the shared training loop may capture and replay it.
    replay_safe = True

    def __init__(self, num_attributes: int, tokens_per_attribute: int, embedding_dim: int,
                 hidden_dim: int, classifier_hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_attributes = num_attributes
        self.tokens_per_attribute = tokens_per_attribute
        self.embedding_dim = embedding_dim
        self.hidden_dim = hidden_dim
        # Token comparison vector: [|t - aligned| ; t * aligned]  (2D per token).
        self.compare_proj = Linear(2 * embedding_dim, hidden_dim, rng=rng)
        self.attribute_encoder = GRU(hidden_dim, hidden_dim, bidirectional=True, rng=rng)
        self.attribute_attention = AdditiveAttention(2 * hidden_dim, hidden_dim, rng=rng)
        self.classifier = MLP(2 * 2 * hidden_dim, [classifier_hidden_dim], 1, rng=rng)

    def _align(self, queries: Tensor, keys: Tensor) -> Tensor:
        """Soft-align each query token against all key tokens (cross-attribute)."""
        scores = (queries @ keys.transpose(0, 2, 1)) / float(np.sqrt(self.embedding_dim))
        weights = F.softmax(scores, axis=-1)
        return weights @ keys

    def _side_representation(self, own: Tensor, other: Tensor, batch: int) -> Tensor:
        """Compare one record's tokens against the other record and aggregate."""
        aligned = self._align(own, other)                                 # (N, T, D)
        comparison = F.concatenate([(own - aligned).abs(), own * aligned], axis=-1)
        projected = F.relu(self.compare_proj(comparison))                 # (N, T, H)
        per_attribute = projected.reshape(batch * self.num_attributes,
                                          self.tokens_per_attribute, self.hidden_dim)
        _, attribute_state = self.attribute_encoder(per_attribute)        # (N*A, 2H)
        attribute_state = attribute_state.reshape(batch, self.num_attributes,
                                                  2 * self.hidden_dim)
        weights = self.attribute_attention(attribute_state)               # (N, A)
        return (weights.unsqueeze(-1) * attribute_state).sum(axis=1)      # (N, 2H)

    def forward(self, features: np.ndarray) -> Tensor:
        """``features``: (N, A, 2, L, D) per-attribute token matrices."""
        n, num_attrs, _, length, dim = features.shape
        tokens = features.reshape(n, num_attrs, 2, length, dim)
        # The side slices reshape non-contiguous views (numpy must copy), so
        # wrap them as recomputed leaves: on a graph replay they re-read the
        # current contents of the caller's batch buffer.
        left = recomputed_leaf(
            lambda: tokens[:, :, 0].reshape(n, num_attrs * length, dim))
        right = recomputed_leaf(
            lambda: tokens[:, :, 1].reshape(n, num_attrs * length, dim))
        left_repr = self._side_representation(left, right, n)
        right_repr = self._side_representation(right, left, n)
        combined = F.concatenate([left_repr, right_repr], axis=-1)
        return F.sigmoid(self.classifier(combined).squeeze(-1))


class EntityMatcher(SupervisedPairModel):
    """Hierarchical heterogeneous matcher with cross-attribute token alignment."""

    name = "entitymatcher"

    def _encode_pairs(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        return self._pair_token_tensor(pairs)

    def _build_network(self, sample_input: np.ndarray, rng: np.random.Generator) -> Module:
        _, num_attrs, _, length, dim = sample_input.shape
        return EntityMatcherNetwork(num_attributes=num_attrs, tokens_per_attribute=length,
                                    embedding_dim=dim, hidden_dim=self.config.hidden_dim,
                                    classifier_hidden_dim=self.config.classifier_hidden_dim,
                                    rng=rng)
