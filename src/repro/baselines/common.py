"""Shared infrastructure for the supervised deep baselines.

DeepMatcher, EntityMatcher, Ditto and CorDel are all *supervised* matchers:
they train on the labeled source-domain pairs only (this is exactly the
limitation the paper exposes in the MEL setting).  They share a training loop
— encode pairs into dense arrays, minimise binary cross-entropy with Adam —
and differ only in how a pair is encoded and which network consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.domain import MELScenario
from ..data.records import EntityPair
from ..data.sampling import BatchSampler
from ..data.schema import Schema
from ..eval.metrics import ClassificationReport, classification_report
from ..nn.graph import CompiledGraph, Tape
from ..nn.losses import binary_cross_entropy
from ..nn.module import Module
from ..nn.optim import Adam, clip_grad_norm
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
    # Autograd execution for the training loop: "replay" records the
    # per-step graph once and replays it for networks that declare themselves
    # ``replay_safe`` (see docs/autograd.md); "eager" forces the historical
    # rebuild-every-step behaviour.  Float64 replay is bit-exact with eager.
    execution: str = "replay"

    def __post_init__(self) -> None:
        for name in ("embedding_dim", "tokens_per_attribute", "hidden_dim",
                     "classifier_hidden_dim", "epochs", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.execution not in ("replay", "eager"):
            raise ValueError(f"execution must be 'replay' or 'eager', got {self.execution!r}")


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
        optimizer = Adam(self.network.parameters(), lr=config.learning_rate,
                         flatten=True)

        # Graph replay (see docs/autograd.md): the per-step graph is static,
        # so for networks that declare their forward capture-safe
        # (``replay_safe``) we record it once per batch size — the network
        # reads its features through views of a stable batch buffer — and
        # replay it for every later step.  Float64 replay is bit-exact with
        # the eager loop below.
        use_replay = (config.execution == "replay"
                      and getattr(self.network, "replay_safe", False))
        step_graphs: Dict[int, tuple] = {}

        def eager_step(indices: np.ndarray) -> float:
            batch_probs = self.network(self._slice(encoded, indices))
            loss = binary_cross_entropy(batch_probs, Tensor(labels[indices]))
            optimizer.zero_grad()
            loss.backward()
            if config.grad_clip > 0:
                clip_grad_norm(optimizer.parameters, config.grad_clip)
            optimizer.step()
            return float(loss.data)

        self.loss_history = []
        for epoch in range(config.epochs):
            sampler = BatchSampler(len(train_pairs), config.batch_size, shuffle=True,
                                   seed=config.seed * 997 + epoch)
            epoch_loss = 0.0
            batches = 0
            for indices in sampler:
                size = len(indices)
                entry = step_graphs.get(size) if use_replay else None
                if entry is not None:
                    graph, loss_t, feature_buffer, label_buffer = entry
                    np.take(encoded, np.asarray(indices, dtype=np.int64), axis=0,
                            out=feature_buffer)
                    label_buffer[...] = labels[indices]
                    graph.step()
                    if config.grad_clip > 0:
                        clip_grad_norm(optimizer.parameters, config.grad_clip)
                    optimizer.step()
                    epoch_loss += float(loss_t.data)
                elif use_replay and len(step_graphs) < 8:
                    # Record a graph for this batch size; the capture run is
                    # this step's forward pass.
                    feature_buffer = np.array(self._slice(encoded, indices))
                    label_buffer = np.array(labels[indices])
                    tape = Tape()
                    with tape:
                        probs = self.network(feature_buffer)
                        loss = binary_cross_entropy(probs, Tensor(label_buffer))
                    graph = CompiledGraph(tape, inputs={}, loss=loss)
                    step_graphs[size] = (graph, loss, feature_buffer, label_buffer)
                    optimizer.zero_grad()
                    loss.backward()
                    if config.grad_clip > 0:
                        clip_grad_norm(optimizer.parameters, config.grad_clip)
                    optimizer.step()
                    epoch_loss += float(loss.data)
                else:
                    epoch_loss += eager_step(indices)
                batches += 1
            self.loss_history.append(epoch_loss / max(batches, 1))
            if config.verbose:
                print(f"[{self.name}] epoch {epoch + 1}/{config.epochs} "
                      f"loss={self.loss_history[-1]:.4f}")
        return self.loss_history

    @staticmethod
    def _slice(encoded: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return encoded[np.asarray(indices, dtype=np.int64)]

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
        labeled = [pair for pair in pairs if pair.is_labeled]
        if not labeled:
            raise ValueError("evaluate() requires labeled pairs")
        scores = self.predict_proba(labeled)
        labels = np.array([pair.label for pair in labeled], dtype=np.int64)
        return classification_report(labels, scores, threshold=threshold)

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
