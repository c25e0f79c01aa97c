"""Sharded linkage pipeline: the batch engine plus a micro-batch scoring fan-out.

:class:`ShardedPipeline` *is* :class:`~repro.pipeline.engine.LinkagePipeline`
with one hook overridden.  Ingest, blocking, candidate generation,
clustering, ``index_stats`` and the candidate statistics are the batch
engine's own code, run in the driver; only scoring — the dominant cost —
fans out over a pool of forked worker processes.  See ``docs/sharding.md``.

The unit of work is one **micro-batch**: the canonically ordered candidates
cut at multiples of the predictor's ``micro_batch_size``, i.e. exactly
the encode + forward batches the single-process
:class:`~repro.pipeline.scoring.ScoringStage` runs one after another.  A task
scores its slice through that same stage and the driver concatenates the
slices in order, so pairs, scores (``np.array_equal``), clusters and
assignments are **bit-identical to** :class:`LinkagePipeline` **at every
worker count**.

The candidates and the predictor reach the workers by fork inheritance (a
module global set before the pool forks): on the pipeline's path the
candidates are a :class:`~repro.data.records.PairColumns` view, so a worker
inherits the records and two int64 position columns and slices those per
micro-batch, building no pair.  Only micro-batch indexes go out and only
score arrays come back.  ``workers=1``, a single micro-batch, or a
platform without ``fork`` score in-process through the same task function.

One failure rule replaces a retry policy: a micro-batch whose future raises
(a worker exception, or ``BrokenProcessPool`` after a worker died) or whose
answer is not one score per pair is rescored in the driver, and the run's
:class:`ShardReport` lists it in ``rescored_chunks``.  A failure of the
driver rescore propagates.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..data.records import EntityPair, Record
from ..infer.predictor import BatchedPredictor
from ..resilience import faults
from .engine import LinkagePipeline, PipelineConfig, PipelineResult
from .scoring import ScoredCandidates, ScoringStage

__all__ = ["ShardConfig", "ShardReport", "ShardedPipeline",
           "ShardedPipelineResult"]

# (scores, (time.time() start, wall s, CPU s))
_ChunkAnswer = Tuple[np.ndarray, Tuple[float, float, float]]


@dataclass(frozen=True)
class ShardConfig:
    """The one sharding knob: how many worker processes score micro-batches."""

    workers: int = 4

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class ShardReport:
    """How one run's scoring was fanned out, and which micro-batches the
    driver redid (``chunks`` counts the run's micro-batches)."""

    workers: int
    used_processes: bool
    chunks: int
    rescored_chunks: List[int] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly payload for ``stats.json["sharding"]``."""
        return asdict(self)


@dataclass
class ShardedPipelineResult(PipelineResult):
    """A :class:`PipelineResult` plus the fan-out report."""

    shard_report: Optional[ShardReport] = None

    def summary(self) -> Dict[str, object]:
        payload = super().summary()
        if self.shard_report is not None:
            payload["sharding"] = self.shard_report.as_dict()
        return payload


# Set by the driver before the pool forks, so every worker inherits the
# stage and the candidates copy-on-write; cleared when scoring ends.
_SCORING: Optional[Tuple[ScoringStage, Sequence[EntityPair]]] = None


def _score_chunk(chunk: int) -> _ChunkAnswer:
    """Score micro-batch ``chunk`` of the inherited candidates (the task body).

    An injected ``partial`` fault truncates the answer, which the driver's
    one-score-per-pair check then rejects.
    """
    stage, pairs = _SCORING
    started_at, wall, cpu = time.time(), time.perf_counter(), time.process_time()
    partial = faults.check("sharded.score", chunk=chunk) == "partial"
    size = stage.predictor.micro_batch_size
    scored = stage.run(pairs[chunk * size:(chunk + 1) * size])
    scores = scored.scores[:len(scored) // 2] if partial else scored.scores
    return scores, (started_at, time.perf_counter() - wall, time.process_time() - cpu)


class ShardedPipeline(LinkagePipeline):
    """:class:`LinkagePipeline` whose scoring stage fans out over processes.

    Parameters
    ----------
    predictor:
        The fitted :class:`~repro.infer.BatchedPredictor`; inherited by the
        worker processes via fork, never pickled.  Its ``micro_batch_size``
        is the unit of the fan-out.
    config:
        Stage tuning knobs shared with the single-process engine.
    shards:
        The worker count; see :class:`ShardConfig`.
    """

    def __init__(self, predictor: BatchedPredictor,
                 config: Optional[PipelineConfig] = None,
                 shards: Optional[ShardConfig] = None) -> None:
        super().__init__(predictor, config)
        self.shards = shards or ShardConfig()
        self._report: Optional[ShardReport] = None

    @staticmethod
    def fork_available() -> bool:
        """Whether this platform supports the ``fork`` start method."""
        return "fork" in multiprocessing.get_all_start_methods()

    def run(self, records: Iterable[Record]) -> ShardedPipelineResult:
        """Run the batch engine with the scoring fan-out; adds the report."""
        result = super().run(records)
        return ShardedPipelineResult(**vars(result), shard_report=self._report)

    def _score(self, pairs: Sequence[EntityPair]) -> ScoredCandidates:
        """Score ``pairs`` micro-batch by micro-batch on the pool, rescoring
        failures here."""
        global _SCORING
        stage = ScoringStage(self.predictor)
        size = self.predictor.micro_batch_size
        num_chunks = -(-len(pairs) // size)
        workers = min(self.shards.workers, num_chunks)
        use_processes = workers > 1 and self.fork_available()
        answers: List[Optional[_ChunkAnswer]] = [None] * num_chunks
        rescored: List[int] = []
        _SCORING = (stage, pairs)
        try:
            if use_processes:
                futures = []
                with ProcessPoolExecutor(
                        max_workers=workers,
                        mp_context=multiprocessing.get_context("fork"),
                        initializer=faults.mark_worker_process) as pool:
                    try:
                        for chunk in range(num_chunks):
                            futures.append(pool.submit(_score_chunk, chunk))
                    except BrokenProcessPool:  # unsubmitted chunks: rescored below
                        pass
                for chunk, future in enumerate(futures):
                    try:
                        answers[chunk] = future.result()
                    except Exception:  # rescored in the driver below
                        pass
            for chunk in range(num_chunks):
                answer = answers[chunk] if use_processes else _score_chunk(chunk)
                expected = min(size, len(pairs) - chunk * size)
                if answer is None or len(answer[0]) != expected:
                    rescored.append(chunk)
                    answer = _score_chunk(chunk)
                    if len(answer[0]) != expected:
                        raise RuntimeError(
                            f"chunk {chunk}: driver rescore returned "
                            f"{len(answer[0])} scores for {expected} pairs")
                answers[chunk] = answer
        finally:
            _SCORING = None

        self._report = ShardReport(workers=self.shards.workers,
                                   used_processes=use_processes,
                                   chunks=num_chunks, rescored_chunks=rescored)
        if obs.enabled():
            self._record_chunk_telemetry(answers, rescored)
        scores = (np.concatenate([answer[0] for answer in answers])
                  if answers else np.zeros(0))
        stats: Dict[str, float] = {
            "num_pairs": float(len(pairs)),
            "micro_batch_size": float(size),
        }
        if len(pairs):
            stats["mean_score"] = float(scores.mean())
        return ScoredCandidates(pairs=pairs, scores=scores, stats=stats)

    @staticmethod
    def _record_chunk_telemetry(answers: List[_ChunkAnswer],
                                rescored: List[int]) -> None:
        """One ``sharded.worker`` span under ``score`` and one observation per
        micro-batch."""
        parent = obs.current_span()
        for chunk, (scores, (started_at, seconds, cpu_seconds)) in enumerate(answers):
            if parent is not None:
                parent.children.append(obs.Span.from_dict({
                    "name": "sharded.worker", "started_at": started_at,
                    "seconds": seconds, "cpu_seconds": cpu_seconds,
                    "attributes": {"shard": chunk, "pairs": len(scores)}}))
            obs.histogram("pipeline_sharded_shard_seconds",
                          "Wall-clock per scoring micro-batch",
                          {"phase": "score"}).observe(seconds)
        obs.counter("pipeline_sharded_rescored_chunks_total",
                    "Scoring micro-batches the driver rescored after a worker "
                    "failure").inc(len(rescored))
