"""What the benchmark measures, and the statistics and load loops it shares.

This module imports neither numpy nor ``repro``: the launcher and
``selfcheck.py`` read the metric tables from it before any worker process
(with its pinned environment) exists.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .trace import Span, has_ancestor, inclusive_seconds, self_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS threads are pinned because the default OpenBLAS pool used both cores
# and made one fit cost twice its wall time in CPU; the hash seed is pinned so
# set/dict iteration order (and with it allocation patterns) repeats.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}

# Set-up is run this many times per process and the median reported: the
# accepting driver's contract asks for it.  (On this box it steadies setup_s
# little - the slow stretches outlast three set-ups; see README.)
SETUP_REPEATS = 3


class WorkloadSpec(NamedTuple):
    name: str
    why: str


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec("train_adapt",
             "Warm AdaMEL-hyb fits on one scenario: nn + trainer do all the work "
             "(forward and backward), features come from the cache, pipeline/serve/storage "
             "do nothing."),
    WorkloadSpec("batch_link",
             "LinkagePipeline over distinct corpora: every pair is new, so the encoding "
             "cache never hits and raw encode + forward speed dominate; clustering is ~2 %."),
    WorkloadSpec("serve_ingest",
             "Single-writer upsert stream into a durable service, then recovery: index "
             "commit, immediate-flush scoring, O(store) re-clustering, WAL fsync, snapshots."),
    WorkloadSpec("serve_query",
             "Unseen probes against a preloaded service, open loop at 100 q/s (Zipf draws) then "
             "2 closed clients sweeping the probe pool: read path, coalescer deadline wait, "
             "encoding-cache hit ratio 0.90."),
)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float] = None   # end-to-end only: allowed worsening, share of median


# Bounds are sized per metric from selfcheck.py (README, "How the bounds were
# sized"): twice the largest difference between two sets' medians or 1.5 times
# the largest spread of a set, whichever is larger, in steps of 5 %, at most
# the format's 25 %.  quality and peak_rss_mb do not depend on --seed and
# repeat (to the digit, to 1 %).  The timings reach the maximum because the
# shared box slows everything by a factor f of up to 1.3 for minutes on end -
# which is also why throughput is stated as a rate: it worsens by 1 - 1/f, a
# time by f - 1.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("ops_per_cpu_s", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("quality", "ratio", "higher", 0.01),
)

_S, _MS, _N, _R = "s", "ms", "count", "ratio"
PER_LAYER: Tuple[Metric, ...] = (
    Metric("core.trainer.fit_s", _S, "lower"),
    Metric("core.trainer.self_s", _S, "lower"),
    Metric("core.trainer.steps", _N, "lower"),
    Metric("core.trainer.step_p50_ms", _MS, "lower"),
    Metric("nn.graph.step_s", _S, "lower"),
    Metric("nn.graph.forward_s", _S, "lower"),
    Metric("nn.graph.forward_ops", _N, "lower"),
    Metric("nn.graph.backward_ops", _N, "lower"),
    Metric("nn.graph.nodes", _N, "lower"),
    Metric("nn.optim.step_s", _S, "lower"),
    Metric("features.encoder.self_s", _S, "lower"),
    Metric("features.encoder.calls", _N, "lower"),
    Metric("features.encoder.pairs", _N, "lower"),
    Metric("features.cache.hit_ratio", _R, "higher"),
    Metric("features.cache.evictions", _N, "lower"),
    Metric("infer.predictor.self_s", _S, "lower"),
    Metric("infer.predictor.calls", _N, "lower"),
    Metric("infer.predictor.pairs_per_call", _N, "higher"),
    Metric("pipeline.engine.self_s", _S, "lower"),
    Metric("pipeline.index.build_s", _S, "lower"),
    Metric("pipeline.index.probe_s", _S, "lower"),
    Metric("pipeline.index.ingest_one_s", _S, "lower"),
    Metric("pipeline.candidates.generate_s", _S, "lower"),
    Metric("pipeline.candidates.pairs", _N, "lower"),
    Metric("pipeline.candidates.recall", _R, "higher"),
    Metric("pipeline.candidates.match_share", _R, "higher"),
    Metric("pipeline.scoring.run_s", _S, "lower"),
    Metric("pipeline.clustering.run_s", _S, "lower"),
    Metric("pipeline.clustering.resolve_s", _S, "lower"),
    Metric("pipeline.clustering.edges_ordered", _N, "lower"),
    Metric("pipeline.sharded.records_per_s_2w", "1/s", "higher"),
    Metric("pipeline.sharded.parity", _R, "higher"),
    Metric("serve.store.upsert_self_s", _S, "lower"),
    Metric("serve.store.query_self_s", _S, "lower"),
    Metric("serve.store.pairs_scored", _N, "lower"),
    Metric("serve.store.resolutions", _N, "lower"),
    Metric("serve.coalescer.blocked_s", _S, "lower"),
    Metric("serve.coalescer.executor_busy_s", _S, "lower"),
    Metric("serve.coalescer.batches", _N, "lower"),
    Metric("serve.coalescer.mean_batch_pairs", _N, "higher"),
    Metric("serve.coalescer.deadline_flush_share", _R, "lower"),
    Metric("serve.service.self_s", _S, "lower"),
    Metric("serve.service.latency_p95_ms", _MS, "lower"),
    Metric("serve.service.gen_lag_p95_ms", _MS, "lower"),
    Metric("storage.wal.append_s", _S, "lower"),
    Metric("storage.wal.fsync_p50_ms", _MS, "lower"),
    Metric("storage.wal.fsyncs", _N, "lower"),
    Metric("storage.wal.bytes_per_upsert", "B", "lower"),
    Metric("storage.snapshots.take_s", _S, "lower"),
    Metric("storage.snapshots.count", _N, "lower"),
    Metric("storage.snapshots.max_stall_ms", _MS, "lower"),
    Metric("storage.engine.self_s", _S, "lower"),
    Metric("storage.engine.recover_s", _S, "lower"),
    Metric("storage.engine.replayed_entries", _N, "lower"),
    Metric("resilience.breaker.opens", _N, "lower"),
    Metric("resilience.breaker.degraded_queries", _N, "lower"),
    Metric("bench.trace_overhead_ratio", _R, "lower"),
    Metric("bench.layer_cover_share", _R, "higher"),
    Metric("bench.failed_share", _R, "lower"),
    Metric("bench.traced_s", _S, "lower"),
    Metric("bench.traced_ops", _N, "higher"),
)

# Numbers a user would see that only some workloads have.  The traced run
# takes them from its untraced half, so they carry no tracing cost.
FROM_UNTRACED_HALF = frozenset({
    "serve.service.latency_p95_ms", "serve.service.gen_lag_p95_ms",
    "storage.engine.recover_s",
    "storage.snapshots.max_stall_ms", "storage.wal.fsync_p50_ms",
})


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
TAIL_POINTS = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_SAMPLES_BEYOND = 10


def tail_point(count: int) -> Optional[float]:
    """The highest percentile that still has ten samples beyond it."""
    for point in TAIL_POINTS:
        # In whole tenths of a percent: 100.0 - 99.9 is not exactly 0.1.
        if count * round((100.0 - point) * 10) >= MIN_SAMPLES_BEYOND * 1000:
            return point
    return None


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (needs >= 2 values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(middle) if middle else 0.0


# ---------------------------------------------------------------------- #
# Measurements
# ---------------------------------------------------------------------- #
@dataclass
class Measurement:
    """What one timed section of a workload produced."""

    ops: int                      # operations attempted
    failed: int                   # raised, refused, degraded, or failed a check
    wall_s: float                 # timed wall-clock (untimed input generation excluded)
    cpu_s: float                  # process CPU (user+sys, all threads) over wall_s
    ops_per_s: float
    latency_p50_ms: float         # median wait for one result, see each workload
    quality: float
    busy_s: float = 0.0           # client-side time inside operations (cover-share base)
    checks: Dict[str, bool] = field(default_factory=dict)
    detail: Dict[str, float] = field(default_factory=dict)   # per-layer names -> value
    notes: List[str] = field(default_factory=list)

    @property
    def ops_per_cpu_s(self) -> float:
        return self.ops / self.cpu_s if self.cpu_s else 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def run_units(seconds: float, unit: Callable[[int], object], min_units: int) -> List[object]:
    """Call ``unit(i)`` until the window is used, at least ``min_units`` times.

    A further unit starts only while half of a typical one still fits, so
    the section ends near ``seconds`` on either side instead of always over.
    Garbage is collected between units (outside their timed parts): what a
    unit leaves behind is then freed at the same point in every run, and peak
    RSS does not depend on when the collector happened to run.
    """
    results: List[object] = []
    durations: List[float] = []
    started = time.perf_counter()
    while True:
        gc.collect()
        unit_started = time.perf_counter()
        results.append(unit(len(results)))
        now = time.perf_counter()
        durations.append(now - unit_started)
        if (len(results) >= min_units
                and now - started + 0.5 * statistics.median(durations) > seconds):
            return results


# ---------------------------------------------------------------------- #
# Load loops
# ---------------------------------------------------------------------- #
@dataclass
class LoopSamples:
    latencies: List[float] = field(default_factory=list)   # seconds, see each loop
    service: List[float] = field(default_factory=list)     # send -> done, seconds
    lags: List[float] = field(default_factory=list)        # send - due (open loop)
    results: List[object] = field(default_factory=list)


def run_schedule(send: Callable[[object], object], payloads: Sequence[object],
                 due: Sequence[float], clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], None] = time.sleep) -> LoopSamples:
    """One open-loop generator: send ``payloads[k]`` at ``due[k]``, never early.

    Latency runs from the *due* time, so a stall is charged to every request
    it delayed, not only to the one that stalled; ``lags`` is how late each
    request actually left.
    """
    samples = LoopSamples()
    for payload, when in zip(payloads, due):
        now = clock()
        if now < when:
            sleep(when - now)
        sent = clock()
        result = send(payload)
        done = clock()
        samples.latencies.append(done - when)
        samples.service.append(done - sent)
        samples.lags.append(sent - when)
        samples.results.append(result)
    return samples


def run_closed(send: Callable[[object], object], payloads: Sequence[object],
               deadline: float, clock: Callable[[], float] = time.perf_counter
               ) -> LoopSamples:
    """One closed-loop client: next request only after the previous reply."""
    samples = LoopSamples()
    index = 0
    while True:
        sent = clock()
        if sent >= deadline:
            return samples
        result = send(payloads[index % len(payloads)])
        done = clock()
        samples.latencies.append(done - sent)
        samples.service.append(done - sent)
        samples.results.append(result)
        index += 1


def run_threads(bodies: Sequence[Callable[[], LoopSamples]]) -> List[LoopSamples]:
    """Run each body on its own thread; re-raise the first failure."""
    outcomes: List[object] = [None] * len(bodies)

    def runner(slot: int) -> None:
        try:
            outcomes[slot] = bodies[slot]()
        except BaseException as error:  # re-raised on the caller's thread below
            outcomes[slot] = error

    threads = [threading.Thread(target=runner, args=(slot,), name=f"e2e-client-{slot}")
               for slot in range(len(bodies))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes  # type: ignore[return-value]


# ---------------------------------------------------------------------- #
# Per-layer metrics from spans
# ---------------------------------------------------------------------- #
def _client_side(span: Span) -> bool:
    """Spans of a harness-issued operation (not an executor-thread batch)."""
    return not (isinstance(span.op, str) and span.op.startswith("batch-"))


def layer_metrics(spans: Sequence[Span], busy_s: float) -> Dict[str, float]:
    """The span-derived per-layer metrics (times are sums over the section)."""
    own_layer: Dict[str, float] = {}
    own_name: Dict[str, float] = {}
    client_own = 0.0
    for span, own in zip(spans, self_seconds(spans)):
        own_layer[span.layer] = own_layer.get(span.layer, 0.0) + own
        own_name[span.name] = own_name.get(span.name, 0.0) + own
        if _client_side(span):
            client_own += own

    def total(*names: str, where: Optional[Callable[[Span], bool]] = None) -> float:
        return inclusive_seconds(spans, names, where)

    def named(name: str) -> List[Span]:
        return [span for span in spans if span.name == name]

    def under_upsert(span: Span) -> bool:
        return has_ancestor(span, "EntityStore.upsert")

    encodes = named("PairEncoder.encode")
    predicts = named("BatchedPredictor.predict_proba")
    appends = named("WriteAheadLog.append")
    return {
        "core.trainer.fit_s": total("AdaMELTrainer.fit"),
        "core.trainer.self_s": own_layer.get("core.trainer", 0.0),
        "nn.graph.step_s": total("CompiledGraph.step"),
        "nn.graph.forward_s": total(
            "CompiledGraph.forward",
            where=lambda s: s.parent is None or s.parent.name != "CompiledGraph.step"),
        "nn.optim.step_s": total("Adam.step", "clip_grad_norm"),
        "features.encoder.self_s": own_layer.get("features.encoder", 0.0),
        "features.encoder.calls": float(len(encodes)),
        "features.encoder.pairs": float(sum(span.count for span in encodes)),
        "infer.predictor.self_s": own_layer.get("infer.predictor", 0.0),
        "infer.predictor.calls": float(len(predicts)),
        "infer.predictor.pairs_per_call": (
            sum(span.count for span in predicts) / len(predicts) if predicts else 0.0),
        "pipeline.engine.self_s": own_layer.get("pipeline.engine", 0.0),
        "pipeline.index.build_s": total(
            "MinHashLSHIndex.add_records", "InvertedTokenIndex.add_records",
            "InitialsKeyIndex.add_records"),
        "pipeline.index.probe_s": total("InvertedTokenIndex.bucket_keys",
                                        "InvertedTokenIndex.probe_keys"),
        "pipeline.index.ingest_one_s": total("InvertedTokenIndex.preview_one",
                                             "InvertedTokenIndex.commit_one"),
        "pipeline.candidates.generate_s": total("CandidateGenerationStage.generate"),
        "pipeline.scoring.run_s": total("ScoringStage.run"),
        "pipeline.clustering.run_s": total("ClusteringStage.run"),
        "pipeline.clustering.resolve_s": total(
            "order_match_edges", "apply_match_edges", "UnionFind.groups",
            where=under_upsert),
        "pipeline.clustering.edges_ordered": float(sum(
            span.count for span in named("order_match_edges") if under_upsert(span))),
        "serve.store.upsert_self_s": own_name.get("EntityStore.upsert", 0.0),
        "serve.store.query_self_s": own_name.get("EntityStore.query", 0.0),
        "serve.coalescer.blocked_s": total("RequestCoalescer.score"),
        "serve.coalescer.executor_busy_s": total(
            "BatchedPredictor.predict_proba", where=lambda s: not _client_side(s)),
        "serve.service.self_s": own_layer.get("serve.service", 0.0),
        "storage.wal.append_s": total("WriteAheadLog.append"),
        "storage.wal.bytes_per_upsert": (
            sum(span.count for span in appends) / len(appends) if appends else 0.0),
        "storage.snapshots.take_s": total("SnapshotManager.take"),
        "storage.snapshots.count": float(len(named("SnapshotManager.take"))),
        "storage.engine.self_s": own_layer.get("storage.engine", 0.0),
        "bench.layer_cover_share": client_own / busy_s if busy_s else 0.0,
    }
