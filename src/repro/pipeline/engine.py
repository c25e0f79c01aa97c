"""The end-to-end linkage engine: ingest → block → pair → score → cluster.

:class:`LinkagePipeline` wires the stage objects together, times every stage,
and bundles the outputs (candidates, scores, clusters, per-stage statistics)
into a :class:`PipelineResult` that can be written to disk as JSONL/JSON.

Records are ingested from any iterable (consumed once), so the streaming
readers of :mod:`repro.data.storage` plug in directly; the blocking indexes
hold the records, never the pair space.  From blocking to clustering the
candidates travel as position columns over the record list (a
:class:`~repro.data.records.PairColumns` view): scoring slices them per
micro-batch and clustering reads their record-id ranks, so the run builds no
:class:`~repro.data.records.EntityPair`.  Scoring groups pairs by the
predictor's ``micro_batch_size`` alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

import numpy as np

from .. import obs
from ..data.records import EntityPair, Record, pair_record_ids
from ..infer.predictor import BatchedPredictor
from ..utils.serialization import save_json
from .candidates import CandidateGenerationStage, CandidateResult
from .clustering import ClusteringStage, ClusterResult
from .index import build_blocking_indexes
from .scoring import ScoredCandidates, ScoringStage

__all__ = ["PipelineConfig", "PipelineResult", "LinkagePipeline"]

STAGE_ORDER = ("ingest", "block", "pair", "score", "cluster")


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs for every pipeline stage.

    ``blocking_attributes=None`` blocks on every attribute present on each
    record; restricting it to the identifying attributes (e.g. name/title)
    reduces candidates at some recall cost.
    """

    blocking_attributes: Optional[Sequence[str]] = None
    num_perm: int = 128
    bands: int = 32
    lsh_max_bucket_size: int = 8
    max_postings: int = 8
    initials_max_bucket_size: int = 16
    min_token_length: int = 3
    cross_source_only: bool = True
    score_threshold: float = 0.5
    source_consistent: bool = True
    seed: int = 7

    def as_dict(self) -> Dict[str, object]:
        return {
            "blocking_attributes": (list(self.blocking_attributes)
                                    if self.blocking_attributes is not None else None),
            "num_perm": self.num_perm,
            "bands": self.bands,
            "lsh_max_bucket_size": self.lsh_max_bucket_size,
            "max_postings": self.max_postings,
            "initials_max_bucket_size": self.initials_max_bucket_size,
            "min_token_length": self.min_token_length,
            "cross_source_only": self.cross_source_only,
            "score_threshold": self.score_threshold,
            "source_consistent": self.source_consistent,
            "seed": self.seed,
        }


@dataclass
class PipelineResult:
    """Everything the pipeline produced, plus per-stage timings and stats."""

    records: List[Record]
    candidates: CandidateResult
    scored: ScoredCandidates
    clusters: ClusterResult
    stage_seconds: Dict[str, float]
    config: PipelineConfig
    index_stats: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        """The stats payload written as ``stats.json`` / printed by the CLI."""
        stages: Dict[str, Dict[str, float]] = {}
        stage_stats = {
            "ingest": {"num_records": float(len(self.records))},
            "block": self.index_stats,
            "pair": self.candidates.stats,
            "score": self.scored.stats,
            "cluster": self.clusters.stats,
        }
        for name in STAGE_ORDER:
            entry = {"seconds": round(self.stage_seconds.get(name, 0.0), 4)}
            entry.update({key: round(float(value), 6) if isinstance(value, float) else value
                          for key, value in stage_stats[name].items()})
            stages[name] = entry
        return {
            "config": self.config.as_dict(),
            "stages": stages,
            "total_seconds": round(sum(self.stage_seconds.values()), 4),
        }

    def write(self, output_dir: Union[str, Path]) -> Path:
        """Write clusters (JSONL), matches (JSONL) and stats (JSON) to a directory.

        A cluster's ``sources`` are those of every record its ids name (records
        sharing an id contribute all their sources).
        """
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        sources: Dict[str, Set[str]] = {}
        for record in self.records:
            sources.setdefault(record.record_id, set()).add(record.source)

        with (output_dir / "clusters.jsonl").open("w", encoding="utf-8") as handle:
            for cluster_id, members in enumerate(self.clusters.clusters):
                handle.write(json.dumps({
                    "cluster_id": cluster_id,
                    "size": len(members),
                    "record_ids": members,
                    "sources": sorted(set().union(*(sources[record_id]
                                                    for record_id in members))),
                }, sort_keys=True) + "\n")

        scores = np.asarray(self.scored.scores)
        left_ids, right_ids = pair_record_ids(self.scored.pairs)
        with (output_dir / "matches.jsonl").open("w", encoding="utf-8") as handle:
            for i in np.flatnonzero(scores >= self.config.score_threshold).tolist():
                handle.write(json.dumps({
                    "left_record_id": left_ids[i],
                    "right_record_id": right_ids[i],
                    "score": round(float(scores[i]), 6),
                }, sort_keys=True) + "\n")

        save_json(self.summary(), output_dir / "stats.json")
        return output_dir


class LinkagePipeline:
    """Orchestrate ingest → block → pair → score → cluster over a record stream.

    Parameters
    ----------
    predictor:
        The fitted :class:`~repro.infer.BatchedPredictor` used by the scoring
        stage.
    config:
        Stage tuning knobs; see :class:`PipelineConfig`.
    """

    def __init__(self, predictor: BatchedPredictor,
                 config: Optional[PipelineConfig] = None) -> None:
        self.predictor = predictor
        self.config = config or PipelineConfig()

    def run(self, records: Iterable[Record]) -> PipelineResult:
        """Run all five stages over ``records`` (any iterable, consumed once)."""
        config = self.config
        seconds: Dict[str, float] = {name: 0.0 for name in STAGE_ORDER}
        stage = CandidateGenerationStage(
            build_blocking_indexes(
                attributes=config.blocking_attributes,
                num_perm=config.num_perm, bands=config.bands,
                lsh_max_bucket_size=config.lsh_max_bucket_size,
                max_postings=config.max_postings,
                initials_max_bucket_size=config.initials_max_bucket_size,
                min_token_length=config.min_token_length, seed=config.seed),
            cross_source_only=config.cross_source_only)

        with obs.trace("pipeline.run") as run_span:
            start = time.perf_counter()
            with obs.trace("ingest"):
                records = list(records)
            seconds["ingest"] = time.perf_counter() - start

            start = time.perf_counter()
            with obs.trace("block", records=len(records)):
                stage.add_records(records)
            seconds["block"] = time.perf_counter() - start

            start = time.perf_counter()
            with obs.trace("pair"):
                candidates = stage.generate()
            seconds["pair"] = time.perf_counter() - start

            start = time.perf_counter()
            with obs.trace("score", pairs=len(candidates.pairs)):
                scored = self._score(candidates.pairs)
            seconds["score"] = time.perf_counter() - start
            if len(scored):
                scored.stats["pairs_per_second"] = len(scored) / max(seconds["score"], 1e-9)

            clustering = ClusteringStage(threshold=config.score_threshold,
                                         source_consistent=config.source_consistent)
            start = time.perf_counter()
            with obs.trace("cluster"):
                clusters = clustering.run(stage.records, scored)
            seconds["cluster"] = time.perf_counter() - start

            run_span.set("records", len(stage.records))
            run_span.set("candidates", len(candidates.pairs))

        result = PipelineResult(records=stage.records, candidates=candidates,
                                scored=scored, clusters=clusters,
                                stage_seconds=seconds, config=config,
                                index_stats=stage.index_stats())
        if obs.enabled():
            self._record_run_metrics(result, stage)
        return result

    def _score(self, pairs: Sequence[EntityPair]) -> ScoredCandidates:
        """Score the canonically ordered candidates (the sharded engine's hook)."""
        return ScoringStage(self.predictor).run(pairs)

    def _record_run_metrics(self, result: PipelineResult,
                            stage: CandidateGenerationStage) -> None:
        """Publish one run's counters/gauges (only called while enabled)."""
        obs.counter("pipeline_runs_total", "Pipeline runs completed").inc()
        obs.counter("pipeline_records_total", "Records ingested by runs").inc(
            len(result.records))
        obs.counter("pipeline_candidates_total",
                    "Candidate pairs generated by runs").inc(len(result.candidates.pairs))
        matches = int(np.count_nonzero(
            np.asarray(result.scored.scores) >= result.config.score_threshold))
        obs.counter("pipeline_matches_total",
                    "Scored pairs at or above the match threshold").inc(matches)
        for name, value in result.stage_seconds.items():
            obs.histogram("pipeline_stage_seconds", "Wall-clock per stage",
                          {"stage": name}).observe(value)
        pair_stats = result.candidates.stats
        if "recall" in pair_stats:
            obs.gauge("pipeline_blocking_recall_ratio",
                      "Blocking recall vs ground truth").set(pair_stats["recall"])
        obs.gauge("pipeline_pair_reduction_ratio",
                  "Candidates kept / possible pairs").set(
            pair_stats.get("reduction_ratio", 0.0))
        for label, skew in stage.skew_report().items():
            obs.gauge("index_bucket_gini_ratio",
                      "Gini of bucket sizes (0 = even, 1 = skewed)",
                      {"index": label}).set(skew["gini"])
            for rank, (_, size) in enumerate(skew["hottest"], start=1):
                obs.gauge("index_hot_bucket_records",
                          "Size of the rank-th hottest bucket",
                          {"index": label, "rank": str(rank)}).set(size)
