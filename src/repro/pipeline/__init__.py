"""Scalable end-to-end linkage engine: ingest → block → pair → score → cluster.

The model (:mod:`repro.core`) matches *pairs*; a deployment links *corpora*.
This package provides the surrounding production pipeline:

* :mod:`~repro.pipeline.index` — MinHash-LSH and inverted-token candidate
  indexes with streaming ``add_records`` ingestion and bucket-size caps;
* :mod:`~repro.pipeline.candidates` — cross-source candidate generation with
  recall / pair-reduction statistics against ``entity_id`` ground truth;
* :mod:`~repro.pipeline.scoring` — chunked scoring through the batched
  inference engine (:class:`~repro.infer.BatchedPredictor`);
* :mod:`~repro.pipeline.clustering` — union-find entity resolution with a
  transitivity-violation report and pairwise cluster metrics;
* :mod:`~repro.pipeline.engine` — the :class:`LinkagePipeline` orchestrator,
  also runnable as ``python -m repro.pipeline``;
* :mod:`~repro.pipeline.sharded` — the :class:`ShardedPipeline` runner that
  partitions blocking and scoring across worker processes behind a
  skew-aware :class:`ShardRouter` (``python -m repro.pipeline --workers N``).
"""

from .candidates import (CandidateGenerationStage, CandidateResult,
                         ground_truth_pairs, possible_cross_source_pairs)
from .clustering import (ClusteringStage, ClusterResult, IncrementalClusters,
                         MatchEdge, UnionFind, apply_match_edges,
                         order_match_edges, pairwise_cluster_metrics)
from .engine import LinkagePipeline, PipelineConfig, PipelineResult
from .index import (InitialsKeyIndex, InvertedTokenIndex, MinHashLSHIndex,
                    build_blocking_indexes, record_tokens)
from .scoring import ScoredCandidates, ScoringStage
from .sharded import (ShardConfig, ShardedPipeline, ShardedPipelineResult,
                      ShardReport, ShardRouter, shard_of_key)

__all__ = [
    "CandidateGenerationStage",
    "CandidateResult",
    "ClusteringStage",
    "ClusterResult",
    "IncrementalClusters",
    "InitialsKeyIndex",
    "InvertedTokenIndex",
    "LinkagePipeline",
    "MatchEdge",
    "MinHashLSHIndex",
    "PipelineConfig",
    "PipelineResult",
    "ScoredCandidates",
    "ScoringStage",
    "ShardConfig",
    "ShardReport",
    "ShardRouter",
    "ShardedPipeline",
    "ShardedPipelineResult",
    "UnionFind",
    "apply_match_edges",
    "build_blocking_indexes",
    "ground_truth_pairs",
    "order_match_edges",
    "pairwise_cluster_metrics",
    "possible_cross_source_pairs",
    "record_tokens",
    "shard_of_key",
]
