"""Scoring stage: feed candidate pairs through the batched inference engine.

Candidates stream through :class:`~repro.infer.BatchedPredictor` in bounded
chunks (each chunk is itself micro-batched by the predictor), so the
*encoding/forward working set* stays flat regardless of how many candidates
blocking produced; the pair list and the final score array are still held in
full, since clustering needs them together.  The encoder reuses the
process-wide :class:`~repro.features.cache.EncodingCache`, so a pair scored
twice (or seen during training) is never re-encoded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..data.records import EntityPair
from ..infer.predictor import BatchedPredictor
from ..resilience import faults

__all__ = ["ScoringStage", "ScoredCandidates"]

DEFAULT_CHUNK_SIZE = 2048


@dataclass
class ScoredCandidates:
    """Candidate pairs with their matching probabilities, aligned by index."""

    pairs: List[EntityPair]
    scores: np.ndarray
    stats: Dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.pairs)


class ScoringStage:
    """Score candidate pairs with a fitted model in bounded chunks.

    Parameters
    ----------
    predictor:
        A :class:`~repro.infer.BatchedPredictor` wrapping the fitted model.
    chunk_size:
        Pairs scored per outer chunk.  Each chunk is handed to the predictor
        as one bulk request (which micro-batches internally); chunking keeps
        the stage's working set bounded on huge candidate lists.
    """

    def __init__(self, predictor: BatchedPredictor,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.predictor = predictor
        self.chunk_size = chunk_size

    def run(self, pairs: Sequence[EntityPair]) -> ScoredCandidates:
        """Return matching probabilities for ``pairs`` in input order."""
        pairs = list(pairs)
        cache = self.predictor.encoder.cache
        # One locked read per side: two unlocked attribute reads can straddle
        # a concurrent serve-thread lookup and push the rate outside [0, 1].
        hits_before, misses_before = cache.lookup_counts() if cache is not None else (0, 0)
        chunks: List[np.ndarray] = []
        for _, probabilities in self.predictor.predict_proba_stream(pairs, self.chunk_size):
            faults.check("scoring.batch", chunk=len(chunks))
            chunks.append(probabilities)
        scores = np.concatenate(chunks) if chunks else np.zeros(0)
        stats: Dict[str, float] = {
            "num_pairs": float(len(pairs)),
            "chunks": float(len(chunks)),
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
