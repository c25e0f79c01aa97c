"""Scoring stage: feed candidate pairs through the batched inference engine.

All candidates go to :class:`~repro.infer.BatchedPredictor` in one call; its
``micro_batch_size`` is the one unit pairs are grouped by, so the
*encoding/forward working set* stays flat regardless of how many candidates
blocking produced.  The pair list and the final score array are held in
full, since clustering needs them together: the candidates of
:meth:`~repro.pipeline.candidates.CandidateGenerationStage.generate` as
their :class:`~repro.data.records.PairColumns` view, which the predictor
slices per micro-batch without building a pair.  The encoder reuses the
process-wide :class:`~repro.features.cache.EncodingCache`, so a pair scored
twice (or seen during training) is never re-encoded.
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
        cache = self.predictor.encoder.cache
        # One locked read per side: two unlocked attribute reads can straddle
        # a concurrent serve-thread lookup and push the rate outside [0, 1].
        hits_before, misses_before = cache.lookup_counts() if cache is not None else (0, 0)
        scores = self.predictor.predict_proba(pairs)
        stats: Dict[str, float] = {
            "num_pairs": float(len(pairs)),
            "micro_batch_size": float(self.predictor.micro_batch_size),
        }
        if cache is not None:
            hits_after, misses_after = cache.lookup_counts()
            hits = hits_after - hits_before
            lookups = hits + misses_after - misses_before
            stats["encoding_cache_hits"] = float(hits)
            stats["encoding_cache_hit_rate"] = hits / lookups if lookups else 0.0
        if len(pairs):
            stats["mean_score"] = float(scores.mean())
        return ScoredCandidates(pairs=pairs, scores=scores, stats=stats)
