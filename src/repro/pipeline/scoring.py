"""Scoring stage: feed candidate pairs through the batched inference engine.

All candidates go to :class:`~repro.infer.BatchedPredictor` in one call; its
``micro_batch_size`` is the one unit pairs are grouped by, so the
*encoding/forward working set* stays flat regardless of how many candidates
blocking produced.  The pair list and the final score array are held in
full, since clustering needs them together: the candidates of
:meth:`~repro.pipeline.candidates.CandidateGenerationStage.generate` as
their :class:`~repro.data.records.PairColumns` view, which the predictor
slices per micro-batch without building a pair.  The encoder encodes such a
view straight through, without the process-wide
:class:`~repro.features.cache.EncodingCache`: a bulk arrival's value pairs
seldom recur in a later call, so the batch path hashes no key and a pair
scored twice is encoded twice.  A plain pair list still goes through the
cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Dict

import numpy as np

from ..data.records import EntityPair
from ..infer.predictor import BatchedPredictor

__all__ = ["ScoringStage", "ScoredCandidates"]


@dataclass
class ScoredCandidates:
    """Candidate pairs with their matching probabilities, aligned by index.

    ``pairs`` is whatever sequence was scored: on the pipeline's path the
    candidates' :class:`~repro.data.records.PairColumns` view.
    """

    pairs: Sequence[EntityPair]
    scores: np.ndarray
    stats: Dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.pairs)


class ScoringStage:
    """Score candidate pairs with a fitted model.

    Parameters
    ----------
    predictor:
        A :class:`~repro.infer.BatchedPredictor` wrapping the fitted model;
        it micro-batches the pairs.
    """

    def __init__(self, predictor: BatchedPredictor) -> None:
        self.predictor = predictor

    def run(self, pairs: Sequence[EntityPair]) -> ScoredCandidates:
        """Return matching probabilities for ``pairs`` in input order."""
        if not isinstance(pairs, Sequence):
            pairs = list(pairs)
        scores = self.predictor.predict_proba(pairs)
        stats: Dict[str, float] = {
            "num_pairs": float(len(pairs)),
            "micro_batch_size": float(self.predictor.micro_batch_size),
        }
        if len(pairs):
            stats["mean_score"] = float(scores.mean())
        return ScoredCandidates(pairs=pairs, scores=scores, stats=stats)
