"""CorDel baseline (Wang et al., 2020) — contrastive deep entity linkage.

CorDel departs from the "twin tower" architecture: before embedding, it
*compares and contrasts* the two attribute values, splitting their tokens into
the shared part and the differing part, so that small but critical differences
are not washed out by long common substrings.  The attention variant
(CorDel-Attention, the strongest on dirty data per the original paper and the
one used in the AdaMEL comparison) learns word-level attention within each
attribute group before classification.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..data.records import EntityPair
from ..nn import functional as F
from ..nn.attention import AdditiveAttention
from ..nn.layers import MLP, Linear
from ..nn.module import Module
from ..nn.tensor import Tensor
from .common import BaselineConfig, SupervisedPairModel

__all__ = ["CorDelNetwork", "CorDelAttention"]


class CorDelNetwork(Module):
    """Word-level attention over contrasted token groups + MLP classifier."""

    # Forward wraps a contiguous reshape *view* of the caller's batch buffer,
    # so the shared training loop may capture and replay it.
    replay_safe = True

    def __init__(self, num_attributes: int, embedding_dim: int, hidden_dim: int,
                 classifier_hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_attributes = num_attributes
        self.embedding_dim = embedding_dim
        self.hidden_dim = hidden_dim
        self.token_proj = Linear(embedding_dim, hidden_dim, rng=rng)
        self.word_attention = AdditiveAttention(hidden_dim, hidden_dim, rng=rng)
        # Two groups (shared / difference) per attribute.
        self.classifier = MLP(num_attributes * 2 * hidden_dim, [classifier_hidden_dim], 1, rng=rng)

    def forward(self, features: np.ndarray) -> Tensor:
        """``features``: (N, A, 2, L, D) — per attribute the shared-token and
        difference-token matrices produced by the compare-and-contrast step."""
        n, num_attrs, groups, length, dim = features.shape
        flat = Tensor(features.reshape(n * num_attrs * groups, length, dim))
        projected = F.relu(self.token_proj(flat))                 # (B, L, H)
        weights = self.word_attention(projected)                  # (B, L)
        summaries = (weights.unsqueeze(-1) * projected).sum(axis=1)
        summaries = summaries.reshape(n, num_attrs * groups * self.hidden_dim)
        return F.sigmoid(self.classifier(summaries).squeeze(-1))


class CorDelAttention(SupervisedPairModel):
    """CorDel-Attention: contrast attribute values, attend over words, classify."""

    name = "cordel-attention"

    def _encode_pairs(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        """Compare-and-contrast encoding: (N, A, 2, L, D).

        Group 0 holds the tokens shared by both values of the attribute,
        group 1 the symmetric difference (tokens present in exactly one
        value) — the "contrast" signal CorDel is built around.
        """
        num_attrs = len(self.schema)
        length = self.config.tokens_per_attribute
        dim = self.embedder.dim
        out = np.zeros((len(pairs), num_attrs, 2, length, dim), dtype=np.float64)
        for i, pair in enumerate(pairs):
            for j, attribute in enumerate(self.schema):
                left_tokens = self.tokenizer(pair.left.value(attribute))
                right_tokens = self.tokenizer(pair.right.value(attribute))
                left_set, right_set = set(left_tokens), set(right_tokens)
                ordered = left_tokens + [tok for tok in right_tokens if tok not in left_set]
                shared = [tok for tok in ordered if tok in left_set and tok in right_set]
                difference = [tok for tok in ordered if (tok in left_set) ^ (tok in right_set)]
                out[i, j, 0] = self.embedder.embed_token_matrix(shared, length)
                out[i, j, 1] = self.embedder.embed_token_matrix(difference, length)
        return out

    def _build_network(self, sample_input: np.ndarray, rng: np.random.Generator) -> Module:
        _, num_attrs, _, _, dim = sample_input.shape
        return CorDelNetwork(num_attributes=num_attrs, embedding_dim=dim,
                             hidden_dim=self.config.hidden_dim,
                             classifier_hidden_dim=self.config.classifier_hidden_dim, rng=rng)
