"""AdaMEL training loop shared by all four variants (Algorithms 1-3).

``AdaMELTrainer`` owns the pair encoder, the network and the optimiser, and
implements the mini-batch loop of the paper's algorithms:

* every epoch, the attention vector averaged over the unlabeled target domain
  is recomputed with the current parameters (Algorithm 1, line 5);
* every epoch, the positive/negative attention centroids of the source domain
  and the mean distances to them are recomputed (Algorithm 2, line 10);
* every mini-batch sampled from ``D_S`` contributes ``L_base`` and, depending
  on the variant, ``L_target`` (KL to the averaged target attention) and
  ``L_support`` (distance-weighted loss over the labeled support set).

The four public variants in :mod:`repro.core.variants` only differ in which
loss terms are switched on.

Execution engines (``AdaMELConfig.execution``, see ``docs/autograd.md``):

* ``"eager"`` rebuilds the autograd graph for every mini-batch — the
  historical behaviour, kept as the reference path;
* ``"replay"`` (the default) records the per-step graph **once** per mini-batch
  size (the first full-size batch, and the recurring last partial one) into a
  :class:`~repro.nn.graph.CompiledGraph` and replays it for every following
  step with zero per-step tensor/closure allocation.  With the default
  float64 dtype the two engines are bit-exact (see
  ``tests/core/test_replay_lockstep.py``).

Both engines execute one numerics path: the fused kernels of
:mod:`repro.nn.fused`, one seeded ``choice`` draw per step for the support
mini-batch, and — for the two per-epoch recomputations above — one
:class:`~repro.core.model.DomainAttention` per domain, built once per fit,
which evaluates the attention on the domain's distinct (feature, vector) rows
only.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..data.domain import MELScenario
from ..data.records import EntityPair
from ..data.sampling import BatchSampler
from ..data.schema import Schema
from ..eval.metrics import ClassificationReport, classification_report
from ..features.encoder import EncodedBatch, PairEncoder
from ..features.importance import ImportanceReport, aggregate_importance
from ..nn.dtypes import using_dtype
from ..nn.graph import CompiledGraph, Tape
from ..nn.optim import Adam, clip_grad_norm
from ..nn.tensor import Tensor, recomputed_leaf
from ..text.embeddings import HashedEmbedder, TokenEmbedder
from ..text.tokenizer import Tokenizer
from ..utils.rng import spawn_rng
from .config import AdaMELConfig
from .losses import (
    attention_centroids,
    base_loss,
    centroid_mean_distances,
    combine_losses,
    support_weights,
    target_adaptation_loss,
)
from .model import AdaMELNetwork, DomainAttention

__all__ = ["TrainingHistory", "AdaMELTrainer"]


@dataclass
class TrainingHistory:
    """Per-epoch loss traces recorded during :meth:`AdaMELTrainer.fit`."""

    total_loss: List[float] = field(default_factory=list)
    base_loss: List[float] = field(default_factory=list)
    target_loss: List[float] = field(default_factory=list)
    support_loss: List[float] = field(default_factory=list)
    # Fraction of encoder-cache lookups served from cache during this fit
    # (None when the trainer encodes without a cache).
    encoder_cache_hit_rate: Optional[float] = None
    # Per-step wall-clock seconds, recorded when config.profile_steps is set.
    step_seconds: Optional[List[float]] = None

    @property
    def epochs(self) -> int:
        return len(self.total_loss)

    def final_loss(self) -> float:
        return self.total_loss[-1] if self.total_loss else float("nan")

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "total_loss": list(self.total_loss),
            "base_loss": list(self.base_loss),
            "target_loss": list(self.target_loss),
            "support_loss": list(self.support_loss),
        }
        if self.encoder_cache_hit_rate is not None:
            payload["encoder_cache_hit_rate"] = float(self.encoder_cache_hit_rate)
        if self.step_seconds is not None:
            payload["step_seconds"] = list(self.step_seconds)
        return payload


@dataclass
class _StepLosses:
    """Handles to one training step's loss tensors (read back per replay)."""

    loss: Tensor
    base: Tensor
    target: Optional[Tensor]
    support: Optional[Tensor]


class AdaMELTrainer:
    """Fit / predict interface shared by all AdaMEL variants.

    Subclasses set :attr:`uses_target` (domain adaptation on the unlabeled
    target domain) and :attr:`uses_support` (supervision from the labeled
    support set).  The base class with both flags off is AdaMEL-base.
    """

    variant: str = "base"
    uses_target: bool = False
    uses_support: bool = False

    def __init__(self, config: Optional[AdaMELConfig] = None,
                 embedder: Optional[TokenEmbedder] = None) -> None:
        # First, so that __del__ finds them even if construction fails below.
        self._step_graphs: Dict[int, CompiledGraph] = {}
        self.config = config or AdaMELConfig()
        self._external_embedder = embedder
        self.encoder: Optional[PairEncoder] = None
        self.network: Optional[AdaMELNetwork] = None
        self.history: Optional[TrainingHistory] = None
        self.schema: Optional[Schema] = None
        self._reset_compiled_state()

    def __del__(self) -> None:
        # A dropped trainer's graphs pin their buffers in reference cycles;
        # release them now instead of at the next full collection.
        self._release_graphs()

    def _release_graphs(self) -> None:
        for graph in self._step_graphs.values():
            graph.release()

    def _reset_compiled_state(self) -> None:
        """Drop graphs compiled against a previous network's buffers."""
        self._release_graphs()
        # One compiled step graph per mini-batch size: the full batch_size
        # plus (when the epoch length is not a multiple of it) the recurring
        # final partial batch.  Anything else falls back to eager.
        self._step_graphs: Dict[int, CompiledGraph] = {}
        self._step_losses: Dict[int, _StepLosses] = {}
        # [c_plus, c_minus, d_plus, d_minus]; mutated in place every epoch so
        # the recomputed-leaf weight closure always reads the current values.
        self._centroid_state: List[object] = [None, None, None, None]
        self._step_seconds: List[float] = []
        # Telemetry handles, rebound once per fit (None while disabled so the
        # inner loop's check is a plain identity test, not a registry lookup).
        self._obs_step_hist = None
        self._obs_steps_total = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, scenario: MELScenario) -> TrainingHistory:
        """Train on a :class:`MELScenario` following the variant's algorithm."""
        config = self.config
        scenario = scenario.align()
        self.schema = scenario.aligned_schema()
        tokenizer = Tokenizer(crop_size=config.crop_size)
        embedder = self._external_embedder or HashedEmbedder(dim=config.embedding_dim,
                                                             tokenizer=tokenizer)
        if embedder.dim != config.embedding_dim:
            raise ValueError(
                f"embedder dimension {embedder.dim} does not match config.embedding_dim "
                f"{config.embedding_dim}"
            )
        self.encoder = PairEncoder(self.schema, embedder=embedder, tokenizer=tokenizer,
                                   feature_kinds=config.feature_kinds)
        cache = self.encoder.cache
        # One locked read: unlocked hits/misses attribute reads can straddle a
        # concurrent lookup and tear the pair (serve threads share the cache).
        if cache is not None:
            hits_now, misses_now = cache.lookup_counts()
        else:
            hits_now = misses_now = 0
        cache_lookups_before = hits_now + misses_now
        cache_hits_before = hits_now

        # The labeled pool for L_base is the source domain plus, when the
        # variant uses it, the labeled support set (goal G2: leverage the few
        # labeled target pairs).  The distance-weighted L_support term is
        # computed on the support set alone.
        labeled_pairs = list(scenario.source.pairs)
        with_support = bool(self.uses_support and scenario.support is not None
                            and len(scenario.support))
        if with_support:
            labeled_pairs.extend(scenario.support.pairs)
        source_batch = self.encoder.encode(labeled_pairs)
        support_batch: Optional[EncodedBatch] = None
        if with_support:
            support_batch = source_batch.subset(
                np.arange(len(scenario.source.pairs), len(labeled_pairs)))
        target_batch = self.encoder.encode(scenario.target.pairs) if self.uses_target else None

        self._reset_compiled_state()
        # Bind the per-step telemetry handles once per fit: while disabled the
        # inner loop pays one `is None` check per step, nothing more.
        registry = obs.active_registry()
        epoch_hist = epochs_total = None
        if registry is not None:
            self._obs_step_hist = registry.histogram(
                "training_step_seconds", "Wall-clock per optimiser step")
            self._obs_steps_total = registry.counter(
                "training_steps_total", "Optimiser steps run")
            epoch_hist = registry.histogram("training_epoch_seconds",
                                            "Wall-clock per training epoch")
            epochs_total = registry.counter("training_epochs_total",
                                            "Training epochs completed")
        history = TrainingHistory()
        with using_dtype(config.dtype):
            rng = spawn_rng(config.seed)
            self.network = AdaMELNetwork(self.encoder.num_features, config.embedding_dim,
                                         config=config, rng=rng)
            # flatten=True: one fused Adam update over a single contiguous
            # buffer (must happen before any replay graph is captured, since
            # it rebinds param.data to views of the flat buffer).
            optimizer = Adam(self.network.parameters(), lr=config.learning_rate,
                             flatten=True)
            # One per domain and fit; they read the parameters live each epoch.
            target_attention = source_attention = None
            if target_batch is not None and len(target_batch):
                target_attention = DomainAttention(self.network, target_batch.features)
            if support_batch is not None:
                source_attention = DomainAttention(self.network, source_batch.features)

            for epoch in range(config.epochs):
                epoch_started = time.perf_counter()
                with obs.trace("train.epoch", epoch=epoch, variant=self.variant):
                    epoch_losses = self._train_epoch(epoch, source_batch, support_batch,
                                                     target_attention, source_attention,
                                                     optimizer)
                if epoch_hist is not None:
                    epoch_hist.observe(time.perf_counter() - epoch_started)
                    epochs_total.inc()
                history.total_loss.append(epoch_losses["total"])
                history.base_loss.append(epoch_losses["base"])
                history.target_loss.append(epoch_losses["target"])
                history.support_loss.append(epoch_losses["support"])
                if config.verbose:
                    hit_rate = self._fit_cache_hit_rate(cache_lookups_before,
                                                        cache_hits_before)
                    cache_note = (f" cache_hit_rate={hit_rate:.2f}"
                                  if hit_rate is not None else "")
                    print(f"[{self.variant}] epoch {epoch + 1}/{config.epochs} "
                          f"loss={epoch_losses['total']:.4f}{cache_note}")
        history.encoder_cache_hit_rate = self._fit_cache_hit_rate(cache_lookups_before,
                                                                  cache_hits_before)
        if config.profile_steps:
            history.step_seconds = list(self._step_seconds)
        if registry is not None:
            if history.encoder_cache_hit_rate is not None:
                registry.gauge("training_encoder_cache_hit_ratio",
                               "Encoder-cache hit rate over the last fit").set(
                    history.encoder_cache_hit_rate)
            replay = self.replay_stats()
            if replay is not None:
                registry.gauge("training_tape_forward_ops",
                               "Forward ops in the compiled step graph").set(
                    replay["forward_ops"])
                registry.gauge("training_tape_backward_ops",
                               "Backward ops in the compiled step graph").set(
                    replay["backward_ops"])
                registry.gauge("training_tape_nodes_count",
                               "Nodes in the compiled step graph").set(replay["nodes"])
        self._obs_step_hist = None
        self._obs_steps_total = None
        self.history = history
        return history

    def _fit_cache_hit_rate(self, lookups_before: int, hits_before: int) -> Optional[float]:
        """Encoder-cache hit rate over the lookups issued by *this* fit."""
        cache = self.encoder.cache if self.encoder is not None else None
        if cache is None:
            return None
        hits, misses = cache.lookup_counts()
        lookups = (hits + misses) - lookups_before
        if lookups <= 0:
            return 0.0
        return (hits - hits_before) / lookups

    # ------------------------------------------------------------------ #
    # Per-epoch recomputations (Algorithm 1 line 5, Algorithm 2 line 10)
    # ------------------------------------------------------------------ #
    def _begin_epoch(self, epoch: int, source_batch: EncodedBatch,
                     support_batch: Optional[EncodedBatch],
                     target_attention: Optional[DomainAttention],
                     source_attention: Optional[DomainAttention]):
        """The target-mean attention, the refreshed source centroids and the
        epoch's support mini-batch draw, with the current parameters.

        Returns ``(target_mean, draw_support)``; each is None for a variant
        that does not use it.
        """
        target_mean = draw_support = None
        if target_attention is not None:
            target_mean = target_attention().mean(axis=0)
        if source_attention is not None:
            attention, labels = source_attention(), source_batch.labels
            c_plus, c_minus = attention_centroids(attention, labels)
            d_plus, d_minus = centroid_mean_distances(attention, labels, c_plus, c_minus)
            self._centroid_state[:] = [c_plus, c_minus, d_plus, d_minus]
            support_rng = spawn_rng(self.config.seed * 7919 + epoch)
            take = min(self.config.batch_size, len(support_batch))

            def draw_support() -> np.ndarray:
                return support_rng.choice(len(support_batch), size=take, replace=False)
        return target_mean, draw_support

    # ------------------------------------------------------------------ #
    # One training step (shared by the eager, capture and replay paths)
    # ------------------------------------------------------------------ #
    def _build_step_losses(self, feat_t: Tensor, lab_t: Tensor,
                           mean_t: Optional[object],
                           sfeat_t: Optional[Tensor],
                           slab_t: Optional[Tensor]) -> _StepLosses:
        """Construct the variant's loss graph for one mini-batch.

        Runs identically with or without an active capture tape, so the
        replayed graph and the eager fallback execute the same ops in the
        same order — the basis of the float64 bit-exactness guarantee.
        """
        config = self.config
        network = self.network
        forward = network.forward(feat_t)
        l_base = base_loss(forward.probabilities, lab_t)
        l_target = None
        if mean_t is not None:
            l_target = target_adaptation_loss(forward.attention, mean_t)
        l_support = None
        if sfeat_t is not None:
            support_forward = network.forward(sfeat_t)
            support_attention = support_forward.attention
            state = self._centroid_state
            weights = recomputed_leaf(lambda: support_weights(
                support_attention.data, slab_t.data,
                state[0], state[1], state[2], state[3]))
            l_support = base_loss(support_forward.probabilities, slab_t, weights)
        loss = combine_losses(l_base=l_base, l_target=l_target, l_support=l_support,
                              adaptation_weight=config.adaptation_weight,
                              support_weight=config.support_weight)
        return _StepLosses(loss=loss, base=l_base, target=l_target, support=l_support)

    def _apply_eager_step(self, losses: _StepLosses, optimizer: Adam) -> None:
        optimizer.zero_grad()
        losses.loss.backward()
        if self.config.grad_clip > 0:
            # The optimiser's list: no walk of the module tree per step.
            clip_grad_norm(optimizer.parameters, self.config.grad_clip)
        optimizer.step()

    def _accumulate_sums(self, sums: Dict[str, float], losses: _StepLosses) -> None:
        sums["total"] += float(losses.loss.data)
        sums["base"] += float(losses.base.data)
        sums["target"] += float(losses.target.data) if losses.target is not None else 0.0
        sums["support"] += float(losses.support.data) if losses.support is not None else 0.0

    # ------------------------------------------------------------------ #
    # Epoch loop
    # ------------------------------------------------------------------ #
    def _first_step(self, features: np.ndarray, labels: np.ndarray,
                    target_mean: Optional[np.ndarray],
                    support_features: Optional[np.ndarray],
                    support_labels: Optional[np.ndarray], capture: bool) -> _StepLosses:
        """Build one step's loss graph eagerly; with ``capture`` also record it.

        The capture run *is* that step's forward pass — the caller follows it
        with an eager backward/step and replays the graph from the next batch
        of this size on.
        """
        dtype = self.network.V.data.dtype
        # np.array under capture: the graph's input buffers must own their
        # memory — a view into the current epoch's arrays would be overwritten
        # by later replays.
        wrap = np.array if capture else np.asarray
        arrays = {"features": features, "labels": labels, "target_mean": target_mean,
                  "support_features": support_features, "support_labels": support_labels}
        tape = Tape()
        with tape if capture else contextlib.nullcontext():
            inputs = {name: Tensor(wrap(value, dtype=dtype))
                      for name, value in arrays.items() if value is not None}
            losses = self._build_step_losses(*(inputs.get(name) for name in arrays))
        if capture:
            self._step_graphs[len(labels)] = CompiledGraph(tape, inputs=inputs,
                                                           loss=losses.loss)
            self._step_losses[len(labels)] = losses
        return losses

    def _train_epoch(self, epoch: int, source_batch: EncodedBatch,
                     support_batch: Optional[EncodedBatch],
                     target_attention: Optional[DomainAttention],
                     source_attention: Optional[DomainAttention],
                     optimizer: Adam) -> Dict[str, float]:
        """One epoch of mini-batch steps, in either engine.

        ``"eager"`` builds every step's graph afresh.  ``"replay"`` records one
        graph per mini-batch size at its first sighting — in practice two,
        ``batch_size`` and the recurring final partial batch; beyond eight
        sizes the stragglers stay eager rather than caching ever more graphs
        — and replays it for every later batch of that size.
        """
        config = self.config
        replaying = config.execution == "replay"
        profile = config.profile_steps
        step_hist = self._obs_step_hist
        steps_total = self._obs_steps_total
        timing = profile or step_hist is not None

        # Algorithm 1 line 5 / Algorithm 2 line 10, with current parameters.
        target_mean, draw_support = self._begin_epoch(
            epoch, source_batch, support_batch, target_attention, source_attention)
        if target_mean is not None:
            for graph in self._step_graphs.values():
                graph.load_inputs({"target_mean": target_mean})

        sampler = BatchSampler(len(source_batch), config.batch_size, shuffle=True,
                               seed=config.seed * 1000 + epoch)
        sums = {"total": 0.0, "base": 0.0, "target": 0.0, "support": 0.0}
        num_batches = 0
        for indices in sampler:
            started = time.perf_counter() if timing else 0.0
            size = len(indices)
            support_indices = draw_support() if draw_support is not None else None

            graph = self._step_graphs.get(size)
            if graph is not None:
                # Gather each mini-batch straight into the recorded input
                # buffers with ``np.take(..., out=...)`` — one copy per
                # input, no intermediate fancy-index arrays.
                feature_buffer = graph.input_array("features")
                if source_batch.features.dtype == feature_buffer.dtype:
                    np.take(source_batch.features, indices, axis=0, out=feature_buffer)
                else:
                    feature_buffer[...] = source_batch.features[indices]
                graph.input_array("labels")[...] = source_batch.labels[indices]
                if support_indices is not None:
                    support_buffer = graph.input_array("support_features")
                    if support_batch.features.dtype == support_buffer.dtype:
                        np.take(support_batch.features, support_indices, axis=0,
                                out=support_buffer)
                    else:
                        support_buffer[...] = support_batch.features[support_indices]
                    graph.input_array("support_labels")[...] = \
                        support_batch.labels[support_indices]
                graph.step()
                if config.grad_clip > 0:
                    clip_grad_norm(optimizer.parameters, config.grad_clip)
                optimizer.step()
                losses = self._step_losses[size]
            else:
                support_features = support_labels = None
                if support_indices is not None:
                    support_features = support_batch.features[support_indices]
                    support_labels = support_batch.labels[support_indices]
                losses = self._first_step(
                    source_batch.features[indices], source_batch.labels[indices],
                    target_mean, support_features, support_labels,
                    capture=replaying and len(self._step_graphs) < 8)
                self._apply_eager_step(losses, optimizer)

            self._accumulate_sums(sums, losses)
            num_batches += 1
            if timing:
                # One reading feeds both sinks, so the history list and the
                # histogram sum stay bit-identical.
                elapsed = time.perf_counter() - started
                if profile:
                    self._step_seconds.append(elapsed)
                if step_hist is not None:
                    step_hist.observe(elapsed)
                    steps_total.inc()
        if num_batches == 0:
            raise RuntimeError("no training batches were produced; source domain is empty")
        return {key: value / num_batches for key, value in sums.items()}

    def replay_stats(self) -> Optional[Dict[str, int]]:
        """Op counts of the compiled step graph (None before compilation).

        Deterministic counters: ``tests/core/test_replay_lockstep.py`` bounds
        them so a tape regression shows without reading a clock.
        """
        if not self._step_graphs:
            return None
        graph = self._step_graphs[max(self._step_graphs)]
        return {
            "forward_ops": int(graph.num_forward_ops),
            "backward_ops": int(graph.num_backward_ops),
            "nodes": int(graph.num_nodes),
        }

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def _require_fitted(self) -> None:
        if self.network is None or self.encoder is None:
            raise RuntimeError("the model must be fitted before inference; call fit() first")

    def predict_proba(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        """Matching probability for every pair (never with dropout)."""
        self._require_fitted()
        if len(pairs) == 0:
            return np.zeros(0)
        return self.network.predict_proba(self.encoder.encode(pairs))

    def predict(self, pairs: Sequence[EntityPair], threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at the given probability threshold."""
        return (self.predict_proba(pairs) >= threshold).astype(np.int64)

    def attention_scores(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        """Attention score vectors ``f(x)`` (shape ``(N, F)``) for ``pairs``."""
        self._require_fitted()
        if len(pairs) == 0:
            return np.zeros((0, self.encoder.num_features))
        return self.network.attention_numpy(self.encoder.encode(pairs))

    def feature_importance(self, pairs: Sequence[EntityPair]) -> ImportanceReport:
        """Learned feature importance averaged over ``pairs`` (Table 4)."""
        scores = self.attention_scores(pairs)
        return aggregate_importance(scores, self.encoder.feature_names)

    def evaluate(self, pairs: Sequence[EntityPair], threshold: float = 0.5) -> ClassificationReport:
        """Score labeled pairs and return the full metric bundle."""
        labeled = [pair for pair in pairs if pair.is_labeled]
        if not labeled:
            raise ValueError("evaluate() requires labeled pairs")
        scores = self.predict_proba(labeled)
        labels = np.array([pair.label for pair in labeled], dtype=np.int64)
        return classification_report(labels, scores, threshold=threshold)

    def num_parameters(self) -> int:
        """Number of learnable parameters (paper Section 4.5 / Section 5.5)."""
        self._require_fitted()
        return self.network.num_parameters()
