"""Ditto baseline (Li et al., VLDB 2020) — language-model entity matcher.

Ditto serialises an entity pair into a single token sequence
(``[COL] attr [VAL] value ... [SEP] ...``), feeds it to a fine-tuned
pretrained Transformer and classifies the contextualised representation.  Its
optimisations include domain-knowledge injection, TF-IDF summarisation of long
values, and data augmentation (token span deletion).

Offline substitution (see DESIGN.md): the pretrained Transformer is replaced
by a single-block self-attention encoder trained from scratch on top of fixed
hashed token embeddings with learnable segment/structure embeddings.  The
serialisation format, the TF-IDF-style value summarisation and the span-
deletion augmentation are kept, so the baseline exercises the same pipeline
shape as the original system.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.records import EntityPair, Record
from ..nn import functional as F
from ..nn.attention import SelfAttentionEncoder
from ..nn.layers import MLP
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .common import BaselineConfig, SupervisedPairModel

__all__ = ["DittoNetwork", "Ditto"]

_COL_MARKER = "[col]"
_VAL_MARKER = "[val]"
_SEP_MARKER = "[sep]"


class DittoNetwork(Module):
    """Self-attention encoder over the serialised pair + classification head."""

    def __init__(self, sequence_length: int, embedding_dim: int, classifier_hidden_dim: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.sequence_length = sequence_length
        self.embedding_dim = embedding_dim
        self.encoder = SelfAttentionEncoder(embedding_dim, rng=rng)
        # Learnable position embeddings stand in for the pretrained LM's.
        self.position_embedding = Parameter(rng.normal(0.0, 0.02, size=(sequence_length, embedding_dim)),
                                            name="position_embedding")
        self.classifier = MLP(embedding_dim, [classifier_hidden_dim], 1, rng=rng)

    def forward(self, features: np.ndarray) -> Tensor:
        """``features``: (N, T, D) serialised token embeddings."""
        tokens = Tensor(features) + self.position_embedding
        mask = (np.abs(features).sum(axis=-1) > 0).astype(np.float64)
        contextualised = self.encoder(tokens, mask=mask)
        # Mean-pool over non-padding positions (the [CLS]-style summary).
        mask_t = Tensor(mask)
        denom = Tensor(np.maximum(mask.sum(axis=-1, keepdims=True), 1.0))
        pooled = (contextualised * mask_t.unsqueeze(-1)).sum(axis=1) / denom
        return F.sigmoid(self.classifier(pooled).squeeze(-1))


class Ditto(SupervisedPairModel):
    """Ditto-style matcher: serialisation + contextual encoder + augmentation."""

    name = "ditto"

    def __init__(self, config: Optional[BaselineConfig] = None, embedder=None,
                 tokens_per_value: int = 4, augmentation_rate: float = 0.2,
                 summarize_values: bool = True) -> None:
        super().__init__(config=config, embedder=embedder)
        if tokens_per_value <= 0:
            raise ValueError("tokens_per_value must be positive")
        if not 0.0 <= augmentation_rate <= 1.0:
            raise ValueError("augmentation_rate must be in [0, 1]")
        self.tokens_per_value = tokens_per_value
        self.augmentation_rate = augmentation_rate
        self.summarize_values = summarize_values
        self._idf: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def _fit_idf(self, pairs: Sequence[EntityPair]) -> None:
        """Document frequencies used for TF-IDF value summarisation."""
        document_frequency: Counter = Counter()
        num_documents = 0
        for pair in pairs:
            for record in (pair.left, pair.right):
                for attribute in self.schema:
                    tokens = set(self.tokenizer(record.value(attribute)))
                    if tokens:
                        num_documents += 1
                        document_frequency.update(tokens)
        self._idf = {token: math.log((1 + num_documents) / (1 + freq)) + 1.0
                     for token, freq in document_frequency.items()}

    def _summarized_tokens(self, value: str) -> List[str]:
        """Keep the ``tokens_per_value`` highest-TF-IDF tokens of a value."""
        tokens = self.tokenizer(value)
        if not tokens:
            return []
        if not self.summarize_values or not self._idf:
            return tokens[: self.tokens_per_value]
        ranked = sorted(tokens, key=lambda tok: -self._idf.get(tok, 1.0))
        kept = set(ranked[: self.tokens_per_value])
        return [tok for tok in tokens if tok in kept][: self.tokens_per_value]

    def _serialize_record(self, record: Record) -> List[str]:
        tokens: List[str] = []
        for attribute in self.schema:
            tokens.append(_COL_MARKER)
            tokens.append(attribute.lower())
            tokens.append(_VAL_MARKER)
            tokens.extend(self._summarized_tokens(record.value(attribute)))
        return tokens

    @property
    def _sequence_length(self) -> int:
        per_record = len(self.schema) * (3 + self.tokens_per_value)
        return 2 * per_record + 1  # + [SEP]

    def _encode_pairs(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        length = self._sequence_length
        out = np.zeros((len(pairs), length, self.embedder.dim), dtype=np.float64)
        for i, pair in enumerate(pairs):
            tokens = (self._serialize_record(pair.left) + [_SEP_MARKER]
                      + self._serialize_record(pair.right))
            for position, token in enumerate(tokens[:length]):
                out[i, position] = self.embedder.embed_token(token)
        return out

    # ------------------------------------------------------------------ #
    # Augmentation (token span deletion)
    # ------------------------------------------------------------------ #
    def _augment(self, pairs: Sequence[EntityPair], rng: np.random.Generator) -> List[EntityPair]:
        augmented = list(pairs)
        for pair in pairs:
            if pair.label != 1 or rng.random() >= self.augmentation_rate:
                continue
            attribute = list(self.schema)[int(rng.integers(len(self.schema)))]
            value = pair.left.value(attribute)
            tokens = value.split()
            if len(tokens) <= 1:
                continue
            drop = int(rng.integers(len(tokens)))
            new_value = " ".join(tokens[:drop] + tokens[drop + 1:])
            new_left = pair.left.with_attributes({**pair.left.attributes, attribute: new_value})
            augmented.append(EntityPair(left=new_left, right=pair.right, label=pair.label,
                                        pair_id=f"{pair.pair_id}::aug"))
        return augmented

    # ------------------------------------------------------------------ #
    def fit(self, scenario) -> List[float]:  # type: ignore[override]
        # TF-IDF statistics must exist before encoding; compute them from the
        # training pairs once the schema/tokenizer are known, then defer to the
        # shared loop.  The base fit() sets schema/tokenizer/embedder before
        # calling _encode_pairs, so we hook via _augment which runs in between.
        self._pending_idf = True
        return super().fit(scenario)

    def _training_pairs(self, scenario) -> List[EntityPair]:  # type: ignore[override]
        pairs = super()._training_pairs(scenario)
        if getattr(self, "_pending_idf", False):
            self._fit_idf(pairs)
            self._pending_idf = False
        return pairs

    def _build_network(self, sample_input: np.ndarray, rng: np.random.Generator) -> Module:
        _, length, dim = sample_input.shape
        return DittoNetwork(sequence_length=length, embedding_dim=dim,
                            classifier_hidden_dim=self.config.classifier_hidden_dim, rng=rng)
