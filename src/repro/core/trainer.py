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

Every step runs through a :class:`~repro.nn.graph.StepGraphs` (see
``docs/autograd.md``): the per-step graph is recorded **once** per mini-batch
size (the first full-size batch, and the recurring last partial one) and
replayed for every following step with zero per-step tensor/closure
allocation.  With the default float64 dtype replay is bit-exact with building
every step eagerly (see ``tests/core/test_replay_lockstep.py``).

Each step executes one numerics path: the fused kernels of
:mod:`repro.nn.fused`, one seeded ``choice`` draw per step for the support
mini-batch, and — for the two per-epoch recomputations above — one
:class:`~repro.core.model.DomainAttention` per domain, built once per fit,
which evaluates the attention on the domain's distinct (feature, vector) rows
only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..data.domain import MELScenario
from ..data.records import EntityPair
from ..data.sampling import shuffled_batches
from ..data.schema import Schema
from ..eval.evaluation import evaluate_pairs
from ..eval.metrics import ClassificationReport
from ..features.encoder import EncodedBatch, PairEncoder
from ..features.importance import ImportanceReport, aggregate_importance
from ..nn.dtypes import using_dtype
from ..nn.graph import CompiledGraph, StepGraphs
from ..nn.optim import Adam
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
        # First, so that __del__ finds it even if construction fails below.
        self._steps: Optional[StepGraphs] = None
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
        if self._steps is not None:
            self._steps.release()

    def _reset_compiled_state(self) -> None:
        """Drop graphs compiled against a previous network's buffers."""
        if self._steps is not None:
            self._steps.release()
        self._steps = None
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
            # Before any graph is captured: Adam rebinds param.data to views
            # of its flat buffer.
            optimizer = Adam(self.network.parameters(), lr=config.learning_rate)
            self._steps = StepGraphs(optimizer, config.grad_clip)
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
                                                     target_attention, source_attention)
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
    # One training step (built eagerly or under capture, then replayed)
    # ------------------------------------------------------------------ #
    def _build_step_losses(self, feat_t: Tensor, lab_t: Tensor,
                           mean_t: Optional[object],
                           sfeat_t: Optional[Tensor],
                           slab_t: Optional[Tensor]) -> _StepLosses:
        """Construct the variant's loss graph for one mini-batch.

        Runs identically with or without an active capture tape, so a
        replayed graph and an eager build execute the same ops in the same
        order — the basis of the float64 bit-exactness guarantee.
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

    def _accumulate_sums(self, sums: Dict[str, float], losses: _StepLosses) -> None:
        sums["total"] += float(losses.loss.data)
        sums["base"] += float(losses.base.data)
        sums["target"] += float(losses.target.data) if losses.target is not None else 0.0
        sums["support"] += float(losses.support.data) if losses.support is not None else 0.0

    # ------------------------------------------------------------------ #
    # Epoch loop
    # ------------------------------------------------------------------ #
    def _train_epoch(self, epoch: int, source_batch: EncodedBatch,
                     support_batch: Optional[EncodedBatch],
                     target_attention: Optional[DomainAttention],
                     source_attention: Optional[DomainAttention]) -> Dict[str, float]:
        """One epoch of mini-batch steps through the fit's :class:`StepGraphs`."""
        config = self.config
        steps = self._steps
        dtype = self.network.V.data.dtype
        profile = config.profile_steps
        step_hist = self._obs_step_hist
        steps_total = self._obs_steps_total
        timing = profile or step_hist is not None

        # Algorithm 1 line 5 / Algorithm 2 line 10, with current parameters.
        target_mean, draw_support = self._begin_epoch(
            epoch, source_batch, support_batch, target_attention, source_attention)

        sums = {"total": 0.0, "base": 0.0, "target": 0.0, "support": 0.0}
        num_batches = 0
        for indices in shuffled_batches(len(source_batch), config.batch_size,
                                        seed=config.seed * 1000 + epoch):
            started = time.perf_counter() if timing else 0.0
            support_indices = draw_support() if draw_support is not None else None

            def build():
                arrays = {"features": source_batch.features[indices],
                          "labels": source_batch.labels[indices],
                          "target_mean": target_mean, "support_features": None,
                          "support_labels": None}
                if support_indices is not None:
                    arrays["support_features"] = support_batch.features[support_indices]
                    arrays["support_labels"] = support_batch.labels[support_indices]
                # np.array: a recorded graph's input buffers must own their
                # memory — a view into this epoch's arrays would be
                # overwritten by later replays.
                inputs = {name: Tensor(np.array(value, dtype=dtype))
                          for name, value in arrays.items() if value is not None}
                losses = self._build_step_losses(*(inputs.get(name) for name in arrays))
                return inputs, losses.loss, losses

            def fill(graph: CompiledGraph) -> None:
                # Gather the mini-batch straight into the recorded buffers:
                # one copy per input, no intermediate fancy-index arrays.
                _gather(source_batch.features, indices, graph.input_array("features"))
                graph.input_array("labels")[...] = source_batch.labels[indices]
                if target_mean is not None:
                    graph.input_array("target_mean")[...] = target_mean
                if support_indices is not None:
                    _gather(support_batch.features, support_indices,
                            graph.input_array("support_features"))
                    graph.input_array("support_labels")[...] = \
                        support_batch.labels[support_indices]

            self._accumulate_sums(sums, steps.step(len(indices), build, fill))
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
        return {key: value / num_batches for key, value in sums.items()}

    def replay_stats(self) -> Optional[Dict[str, int]]:
        """Op counts of the compiled step graph (None before compilation).

        Deterministic counters: ``tests/core/test_replay_lockstep.py`` bounds
        them so a tape regression shows without reading a clock.
        """
        return self._steps.stats() if self._steps is not None else None

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
        return evaluate_pairs(self, pairs, threshold)

    def num_parameters(self) -> int:
        """Number of learnable parameters (paper Section 4.5 / Section 5.5)."""
        self._require_fitted()
        return self.network.num_parameters()


def _gather(source: np.ndarray, indices: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = source[indices]`` in one copy (``np.take`` needs one dtype)."""
    if source.dtype == out.dtype:
        np.take(source, indices, axis=0, out=out)
    else:
        out[...] = source[indices]
