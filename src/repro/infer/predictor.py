"""Batched inference over trained AdaMEL models.

``BatchedPredictor`` serves matching probabilities for many target domains
without retraining: ``predict_proba(pairs)`` scores a pair list in
micro-batches, each encoded into its distinct attribute slots (reusing the
process-wide encoding cache, so a value pair is never re-encoded) and scored
by the network's plain-numpy forward over those slots.

The predictor holds no queue.  Fusing requests from many call sites is the
job of the one batching layer, :class:`repro.serve.RequestCoalescer`, whose
executor thread calls ``predict_proba``.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Union

import numpy as np

from ..core.trainer import AdaMELTrainer
from ..data.records import EntityPair
from ..features.cache import EncodingCache
from ..features.encoder import PairEncoder
from ..obs import BoundHandles, DEFAULT_SIZE_BUCKETS
from ..resilience import faults
from .serialization import load_model

__all__ = ["BatchedPredictor"]

DEFAULT_MICRO_BATCH_SIZE = 256


class _PredictorInstruments(NamedTuple):
    requests: object
    batches: object
    batch_pairs: object


def _bind_predictor_instruments(registry) -> _PredictorInstruments:
    return _PredictorInstruments(
        requests=registry.counter("infer_requests_total",
                                  "Pairs scored through the predictor"),
        batches=registry.counter("infer_batches_total",
                                 "Fused forward passes run"),
        batch_pairs=registry.histogram("infer_batch_pairs",
                                       "Pairs per fused forward pass",
                                       buckets=DEFAULT_SIZE_BUCKETS),
    )


class BatchedPredictor:
    """Micro-batched inference front end for a fitted AdaMEL model.

    Parameters
    ----------
    encoder, network:
        The fitted pair encoder and network (for example from a loaded model
        bundle or a trained :class:`~repro.core.trainer.AdaMELTrainer`).
    micro_batch_size:
        Maximum number of pairs per encode + forward.  Batched predictions
        are numerically equal to one-by-one predictions; micro-batching only
        bounds peak memory.

    Scoring runs ``network.forward_numpy``, which builds no autograd graph
    and applies no dropout, so it neither reads nor flips the network's
    training mode.  Serving funnels all scoring through one executor thread
    (:class:`repro.serve.RequestCoalescer`) to fuse requests into batches.
    """

    def __init__(self, encoder: PairEncoder, network,
                 micro_batch_size: int = DEFAULT_MICRO_BATCH_SIZE) -> None:
        if micro_batch_size <= 0:
            raise ValueError(f"micro_batch_size must be positive, got {micro_batch_size}")
        self.encoder = encoder
        self.network = network
        self.micro_batch_size = micro_batch_size
        self.requests_served = 0
        self.batches_run = 0
        self._obs = BoundHandles(_bind_predictor_instruments)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trainer(cls, trainer: AdaMELTrainer,
                     micro_batch_size: int = DEFAULT_MICRO_BATCH_SIZE
                     ) -> "BatchedPredictor":
        """Wrap a fitted trainer without copying its model."""
        if trainer.network is None or trainer.encoder is None:
            raise ValueError("the trainer must be fitted before wrapping it")
        return cls(trainer.encoder, trainer.network, micro_batch_size=micro_batch_size)

    @classmethod
    def load(cls, path: Union[str, Path], micro_batch_size: int = DEFAULT_MICRO_BATCH_SIZE,
             cache: Optional[EncodingCache] = None) -> "BatchedPredictor":
        """Load a saved model bundle (see :func:`repro.infer.save_model`)."""
        trainer = load_model(path, cache=cache)
        return cls.from_trainer(trainer, micro_batch_size=micro_batch_size)

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def predict_proba(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        """Matching probabilities for ``pairs``, computed in micro-batches.

        A sequence is sliced per micro-batch as it is (a
        :class:`~repro.data.records.PairColumns` slice is a view that builds
        no pair); any other iterable is listed first.
        """
        if not isinstance(pairs, Sequence):
            pairs = list(pairs)
        if not len(pairs):
            return np.zeros(0)
        outputs: List[np.ndarray] = []
        instruments = self._obs.get()
        for start in range(0, len(pairs), self.micro_batch_size):
            faults.check("scoring.batch", batch=len(outputs))
            chunk = pairs[start:start + self.micro_batch_size]
            probabilities, _ = self.network.forward_numpy(self.encoder.encode(chunk))
            outputs.append(probabilities)
            self.batches_run += 1
            if instruments is not None:
                instruments.batches.inc()
                instruments.batch_pairs.observe(len(chunk))
        self.requests_served += len(pairs)
        if instruments is not None:
            instruments.requests.inc(len(pairs))
        return outputs[0] if len(outputs) == 1 else np.concatenate(outputs)

    def predict(self, pairs: Sequence[EntityPair], threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at the given probability threshold."""
        return (self.predict_proba(pairs) >= threshold).astype(np.int64)

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Serving counters (pairs served, fused forward passes)."""
        return {
            "requests_served": self.requests_served,
            "batches_run": self.batches_run,
            "micro_batch_size": self.micro_batch_size,
        }

    def __repr__(self) -> str:
        return (f"BatchedPredictor(micro_batch_size={self.micro_batch_size}, "
                f"served={self.requests_served})")
