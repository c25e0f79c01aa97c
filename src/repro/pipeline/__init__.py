"""Scalable end-to-end linkage engine: ingest → block → pair → score → cluster.

The model (:mod:`repro.core`) matches *pairs*; a deployment links *corpora*.
This package provides the surrounding production pipeline:

* :mod:`~repro.pipeline.index` — MinHash-LSH, inverted-token and initials
  candidate indexes with bucket-size caps, built either in bulk
  (``add_records`` chunks into int64 posting columns that one sort per index
  groups into buckets) or streamed one record at a time (``ingest_one``, the
  online store's path);
* :mod:`~repro.pipeline.candidates` — cross-source candidate generation (the
  indexes' pair arrays unioned, oriented and deduplicated on record-id
  ranks) with recall / pair-reduction statistics against ``entity_id``
  ground truth;
* :mod:`~repro.pipeline.scoring` — scoring through the batched inference
  engine (:class:`~repro.infer.BatchedPredictor`), micro-batch by
  micro-batch;
* :mod:`~repro.pipeline.clustering` — union-find entity resolution with a
  transitivity-violation report and pairwise cluster metrics;
* :mod:`~repro.pipeline.engine` — the :class:`LinkagePipeline` orchestrator,
  also runnable as ``python -m repro.pipeline``;
* :mod:`~repro.pipeline.sharded` — :class:`ShardedPipeline`, the batch
  engine with its scoring stage fanned out over forked worker processes one
  micro-batch at a time (``python -m repro.pipeline --workers N``).
"""

from .candidates import (CandidateGenerationStage, CandidateResult,
                         ground_truth_pairs, possible_cross_source_pairs)
from .clustering import (ClusteringStage, ClusterResult, IncrementalClusters,
                         MatchEdge, UnionFind, apply_match_edges,
                         order_match_edges, pairwise_cluster_metrics)
from .engine import LinkagePipeline, PipelineConfig, PipelineResult
from .index import (IndexModeError, InitialsKeyIndex, InvertedTokenIndex,
                    MinHashLSHIndex, build_blocking_indexes)
from .scoring import ScoredCandidates, ScoringStage
from .sharded import (ShardConfig, ShardedPipeline, ShardedPipelineResult,
                      ShardReport)

__all__ = [
    "CandidateGenerationStage",
    "CandidateResult",
    "ClusteringStage",
    "ClusterResult",
    "IncrementalClusters",
    "IndexModeError",
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
    "ShardedPipeline",
    "ShardedPipelineResult",
    "UnionFind",
    "apply_match_edges",
    "build_blocking_indexes",
    "ground_truth_pairs",
    "order_match_edges",
    "pairwise_cluster_metrics",
    "possible_cross_source_pairs",
]
