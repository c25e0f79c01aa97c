"""Shared infrastructure for the supervised deep baselines.

DeepMatcher, EntityMatcher, Ditto and CorDel are all *supervised* matchers:
they train on the labeled source-domain pairs only (this is exactly the
limitation the paper exposes in the MEL setting).  They share a training loop
— encode pairs into dense arrays, minimise binary cross-entropy with Adam —
and differ only in how a pair is encoded and which network consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..data.domain import MELScenario
from ..data.records import EntityPair
from ..data.sampling import shuffled_batches
from ..data.schema import Schema
from ..eval.evaluation import evaluate_pairs
from ..eval.metrics import ClassificationReport
from ..nn.graph import CompiledGraph, StepGraphs
from ..nn.losses import binary_cross_entropy
from ..nn.module import Module
from ..nn.optim import Adam
from ..nn.tensor import Tensor, no_grad
from ..text.embeddings import HashedEmbedder, TokenEmbedder
from ..text.tokenizer import Tokenizer
from ..utils.rng import spawn_rng

__all__ = ["BaselineConfig", "SupervisedPairModel"]


@dataclass(frozen=True)
class BaselineConfig:
    """Hyperparameters shared by the deep baselines.

    The paper fine-tunes each baseline per its original publication; these
    defaults are scaled-down equivalents so the comparison runs on CPU.
    """

    embedding_dim: int = 48
    tokens_per_attribute: int = 8
    hidden_dim: int = 32
    classifier_hidden_dim: int = 64
    learning_rate: float = 5e-3
    epochs: int = 20
    batch_size: int = 16
    grad_clip: float = 5.0
    seed: int = 0
    use_support_set: bool = False
    verbose: bool = False

    def __post_init__(self) -> None:
        for name in ("embedding_dim", "tokens_per_attribute", "hidden_dim",
                     "classifier_hidden_dim", "epochs", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


class SupervisedPairModel:
    """Base class: supervised entity matcher with a fit/predict interface.

    Subclasses implement :meth:`_encode_pairs` (pairs → numpy arrays) and
    :meth:`_build_network` (arrays' shapes → an ``nn.Module`` whose forward
    returns matching probabilities).
    """

    name: str = "baseline"

    def __init__(self, config: Optional[BaselineConfig] = None,
                 embedder: Optional[TokenEmbedder] = None) -> None:
        self.config = config or BaselineConfig()
        self._external_embedder = embedder
        self.embedder: Optional[TokenEmbedder] = None
        self.tokenizer: Optional[Tokenizer] = None
        self.schema: Optional[Schema] = None
        self.network: Optional[Module] = None
        self.loss_history: List[float] = []

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #
    def _encode_pairs(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        """Encode pairs into the dense array the network consumes."""
        raise NotImplementedError

    def _build_network(self, sample_input: np.ndarray, rng: np.random.Generator) -> Module:
        """Construct the network given an example encoded batch."""
        raise NotImplementedError

    def _augment(self, pairs: Sequence[EntityPair], rng: np.random.Generator
                 ) -> List[EntityPair]:
        """Optional training-set augmentation (Ditto overrides this)."""
        return list(pairs)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def _training_pairs(self, scenario: MELScenario) -> List[EntityPair]:
        pairs = list(scenario.source.pairs)
        if self.config.use_support_set and scenario.support is not None:
            pairs.extend(scenario.support.pairs)
        return pairs

    def fit(self, scenario: MELScenario) -> List[float]:
        """Train on the scenario's labeled pairs; returns per-epoch losses."""
        config = self.config
        scenario = scenario.align()
        self.schema = scenario.aligned_schema()
        self.tokenizer = Tokenizer(crop_size=config.tokens_per_attribute)
        self.embedder = self._external_embedder or HashedEmbedder(dim=config.embedding_dim,
                                                                  tokenizer=self.tokenizer)
        rng = spawn_rng(config.seed)
        train_pairs = self._augment(self._training_pairs(scenario), rng)
        labels = np.array([pair.label for pair in train_pairs], dtype=np.float64)
        encoded = self._encode_pairs(train_pairs)
        self.network = self._build_network(encoded, rng)
        optimizer = Adam(self.network.parameters(), lr=config.learning_rate)
        # Graph replay (see docs/autograd.md) for networks that declare their
        # forward capture-safe (``replay_safe``): the network reads its
        # features through views of the recorded batch buffer.
        steps = StepGraphs(optimizer, config.grad_clip,
                           capture=getattr(self.network, "replay_safe", False))

        self.loss_history = []
        for epoch in range(config.epochs):
            epoch_loss = 0.0
            batches = 0
            for indices in shuffled_batches(len(train_pairs), config.batch_size,
                                            seed=config.seed * 997 + epoch):

                def build():
                    features, targets = Tensor(encoded[indices]), Tensor(labels[indices])
                    loss = binary_cross_entropy(self.network(features.data), targets)
                    return {"features": features, "labels": targets}, loss, loss

                def fill(graph: CompiledGraph) -> None:
                    np.take(encoded, indices, axis=0, out=graph.input_array("features"))
                    graph.input_array("labels")[...] = labels[indices]

                epoch_loss += float(steps.step(len(indices), build, fill).data)
                batches += 1
            self.loss_history.append(epoch_loss / batches)
            if config.verbose:
                print(f"[{self.name}] epoch {epoch + 1}/{config.epochs} "
                      f"loss={self.loss_history[-1]:.4f}")
        steps.release()
        return self.loss_history

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def predict_proba(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        """Matching probabilities for ``pairs``."""
        if self.network is None:
            raise RuntimeError("the model must be fitted before inference; call fit() first")
        if len(pairs) == 0:
            return np.zeros(0)
        encoded = self._encode_pairs(pairs)
        with no_grad():
            probabilities = self.network(encoded)
        return probabilities.data.copy()

    def predict(self, pairs: Sequence[EntityPair], threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(pairs) >= threshold).astype(np.int64)

    def evaluate(self, pairs: Sequence[EntityPair], threshold: float = 0.5) -> ClassificationReport:
        return evaluate_pairs(self, pairs, threshold)

    def num_parameters(self) -> int:
        if self.network is None:
            raise RuntimeError("the model must be fitted first")
        return self.network.num_parameters()

    # ------------------------------------------------------------------ #
    # Shared encoding helpers
    # ------------------------------------------------------------------ #
    def _token_matrix(self, value: str) -> np.ndarray:
        """(L, D) matrix of the value's token embeddings, zero-padded."""
        tokens = self.tokenizer(value)
        return self.embedder.embed_token_matrix(tokens, self.config.tokens_per_attribute)

    def _pair_token_tensor(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        """Encode pairs as ``(N, |A|, 2, L, D)`` per-attribute token matrices."""
        num_attrs = len(self.schema)
        length = self.config.tokens_per_attribute
        dim = self.embedder.dim
        out = np.zeros((len(pairs), num_attrs, 2, length, dim), dtype=np.float64)
        for i, pair in enumerate(pairs):
            for j, attribute in enumerate(self.schema):
                out[i, j, 0] = self._token_matrix(pair.left.value(attribute))
                out[i, j, 1] = self._token_matrix(pair.right.value(attribute))
        return out
