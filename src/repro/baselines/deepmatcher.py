"""DeepMatcher baseline (Mudgal et al., SIGMOD 2018) — hybrid variant.

DeepMatcher represents each attribute value as an attention-weighted RNN
summary of its word embeddings, compares the two summaries of an attribute
(element-wise absolute difference and product), and classifies the
concatenated per-attribute similarity representations with a feed-forward
network.  The paper's experiments use the best-performing "hybrid" variant
(bidirectional RNN with attention); this reproduction keeps exactly that
structure on top of the :mod:`repro.nn` substrate, with batched tensor ops so
it runs efficiently on CPU.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..data.records import EntityPair
from ..nn import functional as F
from ..nn.attention import AdditiveAttention
from ..nn.layers import MLP
from ..nn.module import Module
from ..nn.recurrent import GRU
from ..nn.tensor import Tensor
from .common import BaselineConfig, SupervisedPairModel

__all__ = ["DeepMatcherNetwork", "DeepMatcher"]


class DeepMatcherNetwork(Module):
    """Attribute summarisation with attentive bi-GRU + similarity MLP."""

    # Forward wraps a contiguous reshape *view* of the caller's batch buffer,
    # so the shared training loop may capture and replay it.
    replay_safe = True

    def __init__(self, num_attributes: int, embedding_dim: int, hidden_dim: int,
                 classifier_hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_attributes = num_attributes
        self.embedding_dim = embedding_dim
        self.hidden_dim = hidden_dim
        self.summary_dim = 2 * hidden_dim  # bidirectional
        self.encoder = GRU(embedding_dim, hidden_dim, bidirectional=True, rng=rng)
        self.token_attention = AdditiveAttention(self.summary_dim, hidden_dim, rng=rng)
        # Similarity representation per attribute: [|left-right| ; left*right].
        self.classifier = MLP(num_attributes * 2 * self.summary_dim,
                              [classifier_hidden_dim, classifier_hidden_dim], 1, rng=rng)

    def _summarize(self, tokens: Tensor) -> Tensor:
        """Summarise token matrices ``(B, L, D)`` into ``(B, 2H)`` vectors."""
        outputs, _ = self.encoder(tokens)
        weights = self.token_attention(outputs)  # (B, L)
        return (weights.unsqueeze(-1) * outputs).sum(axis=1)

    def forward(self, features: np.ndarray) -> Tensor:
        """``features``: (N, A, 2, L, D) per-attribute token matrices."""
        n, num_attrs, _, length, dim = features.shape
        flat = Tensor(features.reshape(n * num_attrs * 2, length, dim))
        summaries = self._summarize(flat)                              # (N*A*2, 2H)
        summaries = summaries.reshape(n, num_attrs, 2, self.summary_dim)
        left = summaries[:, :, 0, :]
        right = summaries[:, :, 1, :]
        similarity = F.concatenate([(left - right).abs(), left * right], axis=-1)
        flattened = similarity.reshape(n, num_attrs * 2 * self.summary_dim)
        return F.sigmoid(self.classifier(flattened).squeeze(-1))


class DeepMatcher(SupervisedPairModel):
    """DeepMatcher-hybrid with fixed (FastText-substitute) token embeddings."""

    name = "deepmatcher"

    def _encode_pairs(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        return self._pair_token_tensor(pairs)

    def _build_network(self, sample_input: np.ndarray, rng: np.random.Generator) -> Module:
        _, num_attrs, _, _, dim = sample_input.shape
        return DeepMatcherNetwork(num_attributes=num_attrs, embedding_dim=dim,
                                  hidden_dim=self.config.hidden_dim,
                                  classifier_hidden_dim=self.config.classifier_hidden_dim,
                                  rng=rng)
