"""Benchmark runner: times every figure/table reproduction at a chosen scale.

The runner mirrors the workloads of the pytest suite under ``benchmarks/``
(one stage per paper figure/table, plus an encoder micro-stage measuring the
vectorised-vs-reference encoding speedup), times each stage, and emits a
``BENCH_core.json`` perf snapshot.  ``check_regressions`` compares a fresh run
against a committed snapshot so CI can fail when a timed stage regresses.

Environment knobs (also exposed as CLI flags in ``python -m repro.bench``):

* ``REPRO_BENCH_SCALE`` — ``smoke`` / ``bench`` / ``paper`` workload scale;
* ``REPRO_BENCH_SEED`` — base seed forwarded to every stage.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..experiments import (
    ExperimentScale,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
)
from ..baselines.tler import TLER
from ..experiments.scenarios import build_corpus, build_scenario
from ..features.cache import EncodingCache, get_default_cache
from ..features.encoder import PairEncoder
from ..text import embeddings as _embeddings
from ..text import hashing as _hashing
from ..text.embeddings import HashedEmbedder
from ..text.tokenizer import Tokenizer, _tokenize_cached

__all__ = ["BENCH_SCHEMA_VERSION", "BenchStage", "STAGES", "select_scale",
           "select_seed", "run_suite", "check_regressions", "find_regressions",
           "list_stages", "summarize_latency_samples"]

BENCH_SCHEMA_VERSION = 1

SCALE_NAMES = ("smoke", "bench", "paper")


def reset_process_caches() -> None:
    """Drop every process-wide memo so a timed run starts cold.

    Used before gate re-timings: a retry in the same process would otherwise
    find the encoding cache and token memos fully warm and mask a real
    regression that the (cold-process) baseline would have caught.
    """
    get_default_cache().clear()
    _tokenize_cached.cache_clear()
    # Clear the shared memo objects (live instances keep references to
    # them); emptying only the registries would leave those instances warm.
    for memo in Tokenizer._shared_caches.values():
        memo.clear()
    for vocabulary in _embeddings._SHARED_VOCABULARIES.values():
        vocabulary.clear()
    for memo in _hashing._SHARED_BUCKET_CACHES.values():
        memo.clear()
    TLER._sim_cache.clear()


def select_scale(name: Optional[str] = None) -> Tuple[str, ExperimentScale]:
    """Resolve a scale name (default: ``$REPRO_BENCH_SCALE`` or ``bench``)."""
    # An empty env var (e.g. an unset CI template variable) means "default".
    mode = (name or os.environ.get("REPRO_BENCH_SCALE") or "bench").lower()
    if mode == "paper":
        return mode, ExperimentScale.paper()
    if mode == "smoke":
        return mode, ExperimentScale.smoke()
    if mode == "bench":
        # Small enough for CI, large enough to be meaningful.
        return mode, ExperimentScale(music_entities=50, monitor_entities=70, support_size=40,
                                     test_size=150, adamel_epochs=15, baseline_epochs=8,
                                     embedding_dim=32, hidden_dim=24, attention_dim=48,
                                     classifier_hidden_dim=48, tokens_per_attribute=5)
    raise ValueError(f"unknown benchmark scale {mode!r}; expected one of {SCALE_NAMES}")


def select_seed(seed: Optional[int] = None) -> int:
    """Resolve the bench seed (default: ``$REPRO_BENCH_SEED`` or 0)."""
    if seed is not None:
        return int(seed)
    return int(os.environ.get("REPRO_BENCH_SEED") or "0")


# --------------------------------------------------------------------------- #
# Stages
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BenchStage:
    """One timed stage of the suite; ``runner(scale, seed)`` returns extras."""

    name: str
    description: str
    runner: Callable[[ExperimentScale, int], Optional[Dict[str, float]]]


def _stage_encoder(scale: ExperimentScale, seed: int) -> Dict[str, float]:
    """Vectorised vs per-pair reference encoding on a fixed scenario."""
    scenario = build_scenario("music3k", "artist", mode="overlapping",
                              scale=scale, seed=seed).align()
    schema = scenario.aligned_schema()
    pairs = (list(scenario.source.pairs) + list(scenario.target.pairs)
             + list(scenario.test.pairs))
    tokenizer = Tokenizer(crop_size=max(scale.tokens_per_attribute, 4) * 3)
    embedder = HashedEmbedder(dim=scale.embedding_dim, tokenizer=tokenizer)
    encoder = PairEncoder(schema, embedder=embedder, tokenizer=tokenizer,
                          cache=EncodingCache())

    def cold_text_memos() -> None:
        # Drop the per-text/token memos so both cold passes pay the same
        # tokenising and embedding cost and the ratio isolates vectorisation.
        tokenizer.clear_memo()
        embedder.clear_memo()
        _tokenize_cached.cache_clear()

    # Warm the fixed bucket-vector table once, untimed: its one-time Gaussian
    # generation is a model-load cost (like reading pretrained embeddings),
    # not per-pair encoding work, and both paths use the identical table.
    encoder.encode_reference(pairs)

    # Cold regime: every text/token memo empty for each pass.
    cold_text_memos()
    start = time.perf_counter()
    reference = encoder.encode_reference(pairs)
    reference_seconds = time.perf_counter() - start

    cold_text_memos()
    start = time.perf_counter()
    cold = encoder.encode(pairs)
    cold_seconds = time.perf_counter() - start

    # Steady-state regime: text/token memos warm (as across a real experiment
    # run), per-pair encoding cache still empty — the cost of encoding a NEW
    # pair list once the process has seen the vocabulary.
    start = time.perf_counter()
    reference_steady = encoder.encode_reference(pairs)
    reference_steady_seconds = time.perf_counter() - start

    steady_encoder = PairEncoder(schema, embedder=embedder, tokenizer=tokenizer,
                                 cache=EncodingCache())
    start = time.perf_counter()
    steady = steady_encoder.encode(pairs)
    steady_seconds = time.perf_counter() - start

    # Cached regime: the same pairs re-encoded through the warm pair cache.
    start = time.perf_counter()
    warm = encoder.encode(pairs)
    warm_seconds = time.perf_counter() - start

    batches = (reference, cold, reference_steady, steady, warm)
    if not all(np.array_equal(batches[0].features, other.features)
               for other in batches[1:]):
        raise AssertionError("vectorised encoder diverged from the reference path")
    return {
        "num_pairs": float(len(pairs)),
        "reference_seconds": reference_steady_seconds,
        "vectorized_seconds": steady_seconds,
        "cached_seconds": warm_seconds,
        "cold_reference_seconds": reference_seconds,
        "cold_vectorized_seconds": cold_seconds,
        # Headline: the steady-state regime experiments actually run in.
        "speedup": reference_steady_seconds / max(steady_seconds, 1e-9),
        "cold_speedup": reference_seconds / max(cold_seconds, 1e-9),
        "cached_speedup": reference_steady_seconds / max(warm_seconds, 1e-9),
    }


def _stage_figure6_music3k(scale: ExperimentScale, seed: int) -> None:
    run_figure6("music3k", "artist", modes=("overlapping", "disjoint"),
                methods=["tler", "deepmatcher", "cordel-attention", "adamel-base",
                         "adamel-zero", "adamel-few", "adamel-hyb"],
                scale=scale, seed=seed)


def _stage_figure6_music1m(scale: ExperimentScale, seed: int) -> None:
    methods = ["adamel-base", "adamel-zero", "adamel-hyb", "cordel-attention"]
    run_figure6("music1m", "artist", modes=("overlapping",), methods=methods,
                scale=scale, seed=seed)
    run_figure6("music3k", "artist", modes=("overlapping",), methods=methods,
                scale=scale, seed=seed)


def _stage_figure6_monitor(scale: ExperimentScale, seed: int) -> None:
    run_figure6("monitor", "monitor", modes=("overlapping", "disjoint"),
                methods=["tler", "cordel-attention", "adamel-base",
                         "adamel-zero", "adamel-hyb"],
                scale=scale, seed=seed)


def _stage_figure7(scale: ExperimentScale, seed: int) -> None:
    run_figure7("music3k", "artist", adaptation_weights=(0.0, 0.98),
                max_points_per_domain=60, scale=scale, seed=seed)


def _stage_figure8(scale: ExperimentScale, seed: int) -> None:
    run_figure8("music3k", "artist", lambdas=(0.0, 0.9, 0.98, 1.0),
                scale=scale, seed=seed)


def _stage_figure9(scale: ExperimentScale, seed: int) -> None:
    run_figure9(source_counts=(7, 11, 15), scale=scale, seed=seed)


def _stage_figure10(scale: ExperimentScale, seed: int) -> None:
    run_figure10("monitor", "monitor", support_sizes=(1, 20, 60, 120),
                 scale=scale, seed=seed)


def _stage_figure11(scale: ExperimentScale, seed: int) -> None:
    run_figure11(scale=scale, seed=seed)


def _stage_figure12(scale: ExperimentScale, seed: int) -> None:
    run_figure12("monitor", attribute="prod_type", top_k=10, scale=scale, seed=seed)


def _stage_table4(scale: ExperimentScale, seed: int) -> None:
    run_table4(top_k=5, scale=scale, seed=seed)


def _stage_table5(scale: ExperimentScale, seed: int) -> None:
    run_table5(datasets={"music3k-artist": {"dataset": "music3k",
                                            "entity_type": "artist",
                                            "num_top": 4}},
               scale=scale, seed=seed)


def _stage_table6(scale: ExperimentScale, seed: int) -> None:
    run_table6(datasets=(("music3k", "artist"),), scale=scale, seed=seed)


def _stage_table7(scale: ExperimentScale, seed: int) -> None:
    run_table7(benchmarks=("dblp-acm", "itunes-amazon", "dirty-walmart-amazon"),
               scale=scale, seed=seed)


def _stage_serve_online(scale: ExperimentScale, seed: int) -> Dict[str, object]:
    """Online serving on Music-3K: streamed upserts, then concurrent queries.

    Ingest replays a shuffled record stream through ``EntityStore.upsert``
    (sequential — batch parity is defined over one input order), queries
    replay the same records from 4 concurrent workers through the coalescer.
    Raw per-request latency samples are returned under ``*_latency_samples``
    keys; :func:`run_suite` folds them into p50/p95/p99 percentiles.
    ``batch_parity`` is 1.0 when the streamed clusters equal one batch
    ``LinkagePipeline.run`` over the same order.
    """
    from ..core.variants import create_variant
    from ..infer.predictor import BatchedPredictor
    from ..pipeline import LinkagePipeline
    from ..serve import (LinkageService, ServiceConfig, StoreConfig,
                         replay_queries, replay_upserts)

    corpus = build_corpus("music3k", "artist", scale=scale, seed=seed)
    scenario = build_scenario("music3k", "artist", mode="overlapping",
                              scale=scale, seed=seed)
    model = create_variant("adamel-hyb", scale.adamel_config(epochs=min(scale.adamel_epochs, 10)))
    model.fit(scenario)
    predictor = BatchedPredictor.from_trainer(model)

    records = list(corpus.records)
    np.random.default_rng(seed).shuffle(records)
    store_config = StoreConfig()
    service_config = ServiceConfig(max_batch_size=32)
    with LinkageService(predictor, store_config=store_config,
                        service_config=service_config) as service:
        ingest = replay_upserts(service, records)
        queries = replay_queries(service, records, num_workers=4)
        coalescer = service.coalescer.stats()
        store_stats = service.store.stats()
        online_clusters = service.store.clusters()
    batch = LinkagePipeline(predictor,
                            config=store_config.to_pipeline_config()).run(records)
    return {
        "num_records": float(len(records)),
        "num_entities": store_stats["entities"],
        "pairs_scored_online": store_stats["pairs_scored"],
        "upserts_per_second": ingest.throughput,
        "queries_per_second": queries.throughput,
        "query_workers": float(queries.num_workers),
        "query_errors": float(queries.errors),
        "coalesced_batches": coalescer["batches"],
        "mean_batch_pairs": coalescer["mean_batch_pairs"],
        "batch_parity": float(online_clusters == batch.clusters.clusters),
        "upsert_latency_samples": ingest.latencies,
        "query_latency_samples": queries.latencies,
    }


def _stage_serve_degraded(scale: ExperimentScale, seed: int) -> Dict[str, object]:
    """Serving availability under a total scoring outage (Music-3K).

    Ingests the corpus on a healthy service, records every probe's healthy
    candidate-entity set, then arms a ``serve.score`` raise fault that fails
    *every* scoring call and replays all queries through the outage.  The
    circuit breaker trips after ``breaker_failure_threshold`` consecutive
    failures and queries fall back to the index-only degraded ranking, so
    the gate demands:

    * ``availability`` ≥ 0.99 (enforced by :func:`find_regressions`) — the
      fraction of outage queries that returned an answer instead of raising;
    * ``degraded_parity`` exactly 1.0 — zero queries errored, and every
      degraded answer's entities were a subset of the healthy run's
      candidates for the same probe (the degraded path uses the same index
      probes and filters, so it may lose score quality but never invents
      candidates);
    * ``breaker_tripped_parity`` exactly 1.0 — the outage actually opened
      the breaker and :meth:`LinkageService.health` reported the breach
      (``status == "breached"``) while queries kept answering.
    """
    from ..core.variants import create_variant
    from ..infer.predictor import BatchedPredictor
    from ..resilience import faults
    from ..resilience.faults import FaultSpec
    from ..serve import LinkageService, ServiceConfig, StoreConfig, replay_upserts

    corpus = build_corpus("music3k", "artist", scale=scale, seed=seed)
    scenario = build_scenario("music3k", "artist", mode="overlapping",
                              scale=scale, seed=seed)
    model = create_variant("adamel-hyb", scale.adamel_config(epochs=min(scale.adamel_epochs, 6)))
    model.fit(scenario)
    predictor = BatchedPredictor.from_trainer(model)

    records = list(corpus.records)
    np.random.default_rng(seed).shuffle(records)
    service_config = ServiceConfig(max_batch_size=32, breaker_failure_threshold=3)
    with LinkageService(predictor, store_config=StoreConfig(),
                        service_config=service_config) as service:
        replay_upserts(service, records)
        healthy: Dict[str, set] = {}
        for record in records:
            result = service.query(record, top_k=100)
            healthy[record.record_id] = {match.entity_id
                                         for match in result.matches}
        answered = errored = degraded = 0
        subset_ok = True
        latencies: List[float] = []
        with faults.plan_scope([FaultSpec(site="serve.score", kind="raise",
                                          every=1)]):
            outage_start = time.perf_counter()
            for record in records:
                try:
                    result = service.query(record, top_k=100)
                except Exception:
                    errored += 1
                    continue
                answered += 1
                latencies.append(result.seconds)
                if result.degraded:
                    degraded += 1
                    entities = {match.entity_id for match in result.matches}
                    if not entities <= healthy[record.record_id]:
                        subset_ok = False
            outage_seconds = time.perf_counter() - outage_start
            health = service.health()
        breaker = service.breaker.stats()

    total = len(records)
    breached = (float(breaker["opens"]) >= 1.0
                and health["status"] == "breached")
    return {
        "num_records": float(total),
        "availability": answered / max(total, 1),
        "errored_queries": float(errored),
        "degraded_queries": float(degraded),
        "degraded_fraction": degraded / max(answered, 1),
        "degraded_queries_per_second": answered / max(outage_seconds, 1e-9),
        "breaker_opens": float(breaker["opens"]),
        "degraded_parity": float(errored == 0 and subset_ok),
        "breaker_tripped_parity": float(breached),
        "degraded_query_latency_samples": latencies,
    }


def _stage_store_recovery(scale: ExperimentScale, seed: int) -> Dict[str, object]:
    """Durable-store recovery: snapshot + WAL-tail restore vs full replay.

    Streams the smoke corpus through a :class:`repro.storage.Storage` (every
    upsert fsync-WAL-logged) with one compacted snapshot taken at ~75% of the
    stream and WAL pruning disabled, so the same directory supports both
    recovery paths:

    * ``tail_restore_seconds`` — :meth:`Storage.recover` as shipped: load the
      snapshot, replay only the WAL tail past its LSN;
    * ``full_replay_seconds`` — the same directory with the snapshot files
      removed, forcing recovery to replay the entire WAL.

    ``restore_speedup`` (full / tail) is gated by ``--check`` against a
    ≥1.2x floor: the whole point of compaction is that recovery is
    O(snapshot + tail), not O(corpus).  The ``*_parity`` extras pin both
    recovered stores (and a SQLite-backed re-run of the stream) bit-exact
    against the never-crashed store.  Scoring hashes the pair id
    (process-stable FNV) — this stage measures the storage engine, not the
    model.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from ..serve.store import EntityStore, StoreConfig
    from ..storage import Storage, StorageConfig
    from ..text.hashing import stable_hash

    def score_fn(pairs):
        return np.array([(stable_hash(pair.pair_id) % 1000) / 999.0
                         for pair in pairs])

    corpus = build_corpus("music3k", "artist", scale=scale, seed=seed)
    records = list(corpus.records)
    np.random.default_rng(seed).shuffle(records)
    store_config = StoreConfig()
    snapshot_at = max(1, (3 * len(records)) // 4)

    with tempfile.TemporaryDirectory(prefix="bench-store-recovery-") as tmp:
        data_dir = Path(tmp) / "data"
        storage = Storage(data_dir, score_fn=score_fn,
                          store_config=store_config,
                          config=StorageConfig(prune_wal=False))
        started = time.perf_counter()
        for position, record in enumerate(records, start=1):
            storage.upsert(record)
            if position == snapshot_at:
                storage.snapshot()
        ingest_seconds = time.perf_counter() - started
        live_state = storage.store.state_dict()
        live_clusters = storage.store.clusters()
        fsync_samples = storage.fsync_latency_samples()
        wal_stats = storage.stats()
        storage.close()

        # The same log with the snapshot removed: recovery must replay all
        # of it — the pre-compaction recovery cost.
        replay_dir = Path(tmp) / "full-replay"
        shutil.copytree(data_dir, replay_dir)
        for snapshot in replay_dir.glob("snapshot-*.json"):
            snapshot.unlink()

        started = time.perf_counter()
        tail = Storage.recover(data_dir, score_fn=score_fn,
                               config=StorageConfig(prune_wal=False))
        tail_seconds = time.perf_counter() - started
        started = time.perf_counter()
        full = Storage.recover(replay_dir, score_fn=score_fn,
                               config=StorageConfig(prune_wal=False))
        full_seconds = time.perf_counter() - started

        recovery_parity = float(tail.store.state_dict() == live_state
                                and tail.store.clusters() == live_clusters)
        full_replay_parity = float(full.store.state_dict() == live_state)
        tail_report = tail.last_recovery
        tail.close()
        full.close()

    # The SQLite posting-list backend must block (and therefore cluster)
    # exactly like the in-memory one over the same stream.
    sqlite_store = EntityStore(
        score_fn=score_fn,
        config=StoreConfig(**{**store_config.as_dict(), "backend": "sqlite"}))
    for record in records:
        sqlite_store.upsert(record)
    sqlite_backend_parity = float(sqlite_store.clusters() == live_clusters)
    sqlite_store.close()

    return {
        "num_records": float(len(records)),
        "durable_upserts_per_second": len(records) / ingest_seconds,
        "wal_entries": wal_stats["wal_entries"],
        "wal_bytes": wal_stats["wal_bytes"],
        "snapshot_lsn": float(tail_report.snapshot_lsn),
        "tail_replayed_entries": float(tail_report.replayed_entries),
        "tail_restore_seconds": tail_seconds,
        "full_replay_seconds": full_seconds,
        "restore_speedup": full_seconds / max(tail_seconds, 1e-9),
        "recovery_parity": recovery_parity,
        "full_replay_parity": full_replay_parity,
        "sqlite_backend_parity": sqlite_backend_parity,
        "wal_fsync_latency_samples": fsync_samples,
    }


def _stage_train_epoch(scale: ExperimentScale, seed: int) -> Dict[str, object]:
    """Training-engine micro-benchmark: eager vs graph-replay throughput.

    Fits AdaMEL-hyb (the variant with the largest per-step graph: source +
    support forwards plus the KL adaptation term) on the Music-3K scenario
    under three executions of the same numerics:

    * ``legacy``  — eager engine with the pre-fusion *kernel composition*
      (softmax(energies), sigmoid(mlp(x)), composed KL); note it still shares
      the engine-level improvements of the fast-path work (buffered backward
      closures, flat Adam), so ``replay_speedup`` understates the gain over
      the previous commit's engine;
    * ``eager``   — eager engine with the fused kernels;
    * ``replay``  — the graph-replay engine (fused kernels, compiled step).

    Each configuration runs ``rounds`` interleaved fits and keeps its best
    per-step p50, cancelling machine drift.  ``replay_speedup`` is replay vs
    the legacy eager path; ``replay_vs_fused_eager`` isolates what graph
    replay adds on top of kernel fusion.  Deterministic tape counters
    (``replay_*_ops``, ``*_tensors_per_step``) are emitted so ``--check`` can
    flag tape regressions that wall-clock noise would hide, and
    ``train_lockstep`` is 1.0 only if eager and replay produced bit-identical
    loss histories (float64).
    """
    from ..core.variants import create_variant
    from ..nn.tensor import Tensor

    scenario = build_scenario("music3k", "artist", mode="overlapping",
                              scale=scale, seed=seed).align()
    base = scale.adamel_config(epochs=min(scale.adamel_epochs, 12), profile_steps=True)
    configs = {
        "legacy": base.with_updates(execution="eager", legacy_kernels=True),
        "eager": base.with_updates(execution="eager"),
        "replay": base.with_updates(execution="replay"),
    }
    rounds = 3
    best_p50 = {name: float("inf") for name in configs}
    best_p95 = {name: float("inf") for name in configs}
    best_rate = {name: 0.0 for name in configs}
    tensors_per_step = {name: 0.0 for name in configs}
    replay_samples: List[float] = []
    replay_stats: Optional[Dict[str, int]] = None
    histories: Dict[str, List[float]] = {}
    for _ in range(rounds):
        for name, config in configs.items():
            model = create_variant("adamel-hyb", config)
            created_before = Tensor._created
            history = model.fit(scenario)
            steps = history.step_seconds or [float("nan")]
            tensors_per_step[name] = (Tensor._created - created_before) / max(len(steps), 1)
            p50 = float(np.percentile(steps, 50))
            if p50 < best_p50[name]:
                best_p50[name] = p50
                best_p95[name] = float(np.percentile(steps, 95))
                best_rate[name] = len(steps) / sum(steps)
                if name == "replay":
                    replay_samples = list(steps)
                    replay_stats = model.replay_stats()
            histories[name] = list(history.total_loss)
    extras: Dict[str, object] = {
        "train_steps_per_second": best_rate["replay"],
        "eager_steps_per_second": best_rate["eager"],
        "legacy_steps_per_second": best_rate["legacy"],
        # Ratios of best p50 step times: robust to the occasional slow step a
        # throughput mean would smear into the comparison.
        "replay_speedup": best_p50["legacy"] / max(best_p50["replay"], 1e-9),
        "replay_vs_fused_eager": best_p50["eager"] / max(best_p50["replay"], 1e-9),
        "eager_step_p50_ms": best_p50["eager"] * 1e3,
        "eager_step_p95_ms": best_p95["eager"] * 1e3,
        "legacy_step_p50_ms": best_p50["legacy"] * 1e3,
        "eager_tensors_per_step": tensors_per_step["eager"],
        "replay_tensors_per_step": tensors_per_step["replay"],
        "train_lockstep": float(histories["eager"] == histories["replay"]),
        "train_step_latency_samples": replay_samples,
    }
    if replay_stats is not None:
        extras["replay_forward_ops"] = float(replay_stats["forward_ops"])
        extras["replay_backward_ops"] = float(replay_stats["backward_ops"])
        extras["replay_graph_nodes"] = float(replay_stats["nodes"])
    return extras


def _stage_obs_overhead(scale: ExperimentScale, seed: int) -> Dict[str, float]:
    """Telemetry overhead: serve and train throughput, enabled vs disabled.

    Runs the same two workloads — an online serve replay (upserts + concurrent
    queries through the coalescer) and a short AdaMEL-hyb fit — with telemetry
    off and with a live registry + collector installed via ``obs.telemetry()``.
    Rounds interleave the two states so machine drift cancels, and each state
    keeps its best throughput.  ``*_overhead_ratio`` is best-disabled over
    best-enabled rate (1.0 = free); ``find_regressions`` fails the gate when a
    ratio exceeds the 5% budget, which keeps "zero-cost when disabled, cheap
    when enabled" an enforced property rather than a design note.
    """
    from .. import obs
    from ..core.variants import create_variant
    from ..infer.predictor import BatchedPredictor
    from ..serve import (LinkageService, ServiceConfig, StoreConfig,
                         replay_queries, replay_upserts)

    corpus = build_corpus("music3k", "artist", scale=scale, seed=seed)
    scenario = build_scenario("music3k", "artist", mode="overlapping",
                              scale=scale, seed=seed)
    train_config = scale.adamel_config(epochs=min(scale.adamel_epochs, 6))
    model = create_variant("adamel-hyb", train_config)
    model.fit(scenario)
    predictor = BatchedPredictor.from_trainer(model)

    # The ratio measures relative overhead, not capacity: a few hundred
    # records give stable rates without turning this stage into a soak test.
    records = list(corpus.records)
    np.random.default_rng(seed).shuffle(records)
    records = records[:200]

    def serve_rate() -> float:
        service_config = ServiceConfig(max_batch_size=32)
        with LinkageService(predictor, store_config=StoreConfig(),
                            service_config=service_config) as service:
            start = time.perf_counter()
            replay_upserts(service, records)
            replay_queries(service, records, num_workers=4)
            elapsed = time.perf_counter() - start
        return 2 * len(records) / max(elapsed, 1e-9)

    def train_rate() -> float:
        trainer = create_variant("adamel-hyb", train_config)
        start = time.perf_counter()
        history = trainer.fit(scenario)
        elapsed = time.perf_counter() - start
        return len(history.total_loss) / max(elapsed, 1e-9)

    best = {"serve_off": 0.0, "serve_on": 0.0, "train_off": 0.0, "train_on": 0.0}
    for _ in range(3):
        best["serve_off"] = max(best["serve_off"], serve_rate())
        with obs.telemetry():
            best["serve_on"] = max(best["serve_on"], serve_rate())
        best["train_off"] = max(best["train_off"], train_rate())
        with obs.telemetry():
            best["train_on"] = max(best["train_on"], train_rate())
    return {
        "num_records": float(len(records)),
        "serve_ops_per_second": best["serve_on"],
        "serve_baseline_ops_per_second": best["serve_off"],
        "train_epochs_per_second": best["train_on"],
        "train_baseline_epochs_per_second": best["train_off"],
        "serve_overhead_ratio": best["serve_off"] / max(best["serve_on"], 1e-9),
        "train_overhead_ratio": best["train_off"] / max(best["train_on"], 1e-9),
    }


def _walk_spans(roots, name: str):
    """Every span named ``name`` anywhere in the given trace forest."""
    found = []
    stack = list(roots)
    while stack:
        span = stack.pop()
        if span.name == name:
            found.append(span)
        stack.extend(span.children)
    return found


def _stage_obs_distributed(scale: ExperimentScale, seed: int) -> Dict[str, float]:
    """Distributed telemetry: worker payload capture + merge, cost and shape.

    Runs the same sharded linkage workload (``workers=1, num_shards=4`` — the
    in-process configuration, so worker spans nest sequentially inside the
    driver's ``sharded.score`` span) with telemetry off and on, interleaved
    over several rounds with each state keeping its best wall-clock.
    ``merge_overhead_ratio`` is best-enabled over best-disabled seconds;
    :func:`find_regressions` gates it against a stage-specific 1.20x ceiling
    rather than the generic 5% ``_overhead_ratio`` budget — at smoke scale a
    sharded run lasts tens of milliseconds, so the fixed per-run cost of
    worker capture + payload merge (a millisecond or two, amortised away at
    real corpus sizes) plus shared-box noise would flake a 5% gate, while a
    real regression (say, capturing per pair instead of per shard) lands far
    above 1.20x.

    Shape invariants from the last enabled run (all ``_parity`` extras, so
    the gate demands exactly 1.0):

    * ``worker_span_parity`` — one ``sharded.worker`` span per non-empty
      shard, each carrying a ``shard`` attribute and re-rooted under the
      driver's single ``sharded.score`` span;
    * ``shard_seconds_once_parity`` — ``pipeline_sharded_shard_seconds`` has
      exactly one observation per shard per phase (the workers are the single
      observation site — a driver-side re-observe would double it);
    * ``worker_span_fork_parity`` — the same span accounting holds for a
      forked 4-worker run (trivially 1.0 where fork is unavailable).

    ``worker_span_coverage`` is the summed worker-span wall time over the
    ``sharded.score`` span's wall time.  In-process the workers run back to
    back inside that span, so coverage must sit near 1.0 (the gate allows
    [0.9, 1.1]); a forked run overlaps workers and is covered by the parity
    flag instead.
    """
    from .. import obs
    from ..core.variants import create_variant
    from ..infer.predictor import BatchedPredictor
    from ..pipeline import ShardConfig, ShardedPipeline

    fork_available = ShardedPipeline.fork_available
    corpus = build_corpus("music3k", "artist", scale=scale, seed=seed)
    scenario = build_scenario("music3k", "artist", mode="overlapping",
                              scale=scale, seed=seed)
    model = create_variant("adamel-hyb", scale.adamel_config(epochs=min(scale.adamel_epochs, 6)))
    model.fit(scenario)
    predictor = BatchedPredictor.from_trainer(model)
    records = list(corpus.records)
    pipeline = ShardedPipeline(predictor,
                               shards=ShardConfig(workers=1, num_shards=4))

    # One sharded run at smoke scale lasts tens of milliseconds, well inside
    # the scheduling noise of a shared box.  Noise is one-sided (a run only
    # ever gets slower), so the best over many small interleaved samples
    # estimates each state's floor; each sample still batches two runs so
    # the per-session setup amortises the way a long-lived process would.
    iterations = 2

    def timed_batch() -> float:
        start = time.perf_counter()
        for _ in range(iterations):
            pipeline.run(list(records))
        return time.perf_counter() - start

    best = {"off": float("inf"), "on": float("inf")}
    for _ in range(6):
        best["off"] = min(best["off"], timed_batch())
        with obs.telemetry():
            best["on"] = min(best["on"], timed_batch())

    # Shape and coverage come from one dedicated enabled run, so span and
    # observation counts are per-run quantities.
    with obs.telemetry() as session:
        result = pipeline.run(list(records))
    expected = len(result.shard_report.shard_emit_seconds)

    roots = session.collector.roots()
    workers = _walk_spans(roots, "sharded.worker")
    score_spans = _walk_spans(roots, "sharded.score")
    in_process_ok = (
        len(score_spans) == 1
        and len(workers) == expected
        and all(span.attributes.get("shard") is not None for span in workers)
        and all(span in score_spans[0].children for span in workers))
    coverage = (sum(span.seconds for span in workers)
                / max(score_spans[0].seconds, 1e-9)) if score_spans else 0.0
    phase_counts = {entry["labels"].get("phase"): entry.get("count")
                    for entry in session.registry.snapshot()
                    if entry["name"] == "pipeline_sharded_shard_seconds"}
    once_ok = (phase_counts.get("emit") == expected
               and phase_counts.get("score") == expected)

    fork_ok = True
    if fork_available():
        forked_pipeline = ShardedPipeline(predictor, shards=ShardConfig(workers=4,
                                                                        num_shards=4))
        with obs.telemetry() as fork_session:
            forked = forked_pipeline.run(list(records))
        fork_roots = fork_session.collector.roots()
        fork_workers = _walk_spans(fork_roots, "sharded.worker")
        fork_expected = len(forked.shard_report.shard_emit_seconds)
        fork_ok = (len(fork_workers) == fork_expected
                   and all(span.attributes.get("shard") is not None
                           for span in fork_workers))

    return {
        "num_records": float(len(records)),
        "expected_worker_spans": float(expected),
        "fork_available": float(fork_available()),
        "telemetry_seconds": best["on"],
        "baseline_seconds": best["off"],
        "merge_overhead_ratio": best["on"] / max(best["off"], 1e-9),
        "worker_span_coverage": coverage,
        "worker_span_parity": float(in_process_ok),
        "shard_seconds_once_parity": float(once_ok),
        "worker_span_fork_parity": float(fork_ok),
    }


def _stage_pipeline_end_to_end(scale: ExperimentScale, seed: int) -> Dict[str, float]:
    """Full linkage engine on Music-3K: train, then ingest→block→score→cluster."""
    from ..core.variants import create_variant
    from ..infer.predictor import BatchedPredictor
    from ..pipeline import LinkagePipeline

    corpus = build_corpus("music3k", "artist", scale=scale, seed=seed)
    scenario = build_scenario("music3k", "artist", mode="overlapping",
                              scale=scale, seed=seed)
    model = create_variant("adamel-hyb", scale.adamel_config(epochs=min(scale.adamel_epochs, 10)))
    model.fit(scenario)
    result = LinkagePipeline(BatchedPredictor.from_trainer(model)).run(corpus.records)
    pair_stats = result.candidates.stats
    cluster_stats = result.clusters.stats
    score_stats = result.scored.stats
    return {
        "num_records": float(len(result.records)),
        "num_candidates": pair_stats["num_candidates"],
        "blocking_recall": pair_stats.get("recall", 0.0),
        "pair_reduction_factor": pair_stats["pair_reduction_factor"],
        "scoring_pairs_per_second": score_stats.get("pairs_per_second", 0.0),
        "num_clusters": cluster_stats["num_clusters"],
        "pairwise_f1": cluster_stats.get("pairwise_f1", 0.0),
        "pipeline_seconds": sum(result.stage_seconds.values()),
    }


def _stage_pipeline_sharded_1m(scale: ExperimentScale, seed: int) -> Dict[str, float]:
    """Sharded vs single-process linkage on the Music-1M weak-label corpus.

    Trains one model, then links the same corpus three ways: the
    single-process :class:`~repro.pipeline.LinkagePipeline`, a
    ``ShardedPipeline`` with one worker (the bit-exact configuration), and a
    ``ShardedPipeline`` with 4 workers.  Reports wall-clock for each, the
    4-worker speedup over 1 worker, and two parity flags the ``--check``
    gate enforces as exact invariants:

    * ``sharded_parity`` — 4-worker clusters identical to the batch run;
    * ``sharded_bitwise_parity`` — 1-worker scores bit-equal to batch.

    ``cpu_count`` is recorded alongside: the ≥3× speedup floor in
    :func:`find_regressions` only applies when the machine actually has 4
    cores to run the workers on (a 1-core box measures honest numbers but
    cannot pass a parallelism gate; parity is enforced everywhere).
    """
    from ..core.variants import create_variant
    from ..infer.predictor import BatchedPredictor
    from ..pipeline import LinkagePipeline, ShardConfig, ShardedPipeline

    corpus = build_corpus("music1m", "artist", scale=scale, seed=seed)
    scenario = build_scenario("music1m", "artist", mode="overlapping",
                              scale=scale, seed=seed)
    model = create_variant("adamel-hyb", scale.adamel_config(epochs=min(scale.adamel_epochs, 10)))
    model.fit(scenario)
    predictor = BatchedPredictor.from_trainer(model)
    records = list(corpus.records)

    start = time.perf_counter()
    batch = LinkagePipeline(predictor).run(list(records))
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    one = ShardedPipeline(predictor,
                          shards=ShardConfig(workers=1, num_shards=1)).run(list(records))
    one_worker_seconds = time.perf_counter() - start

    start = time.perf_counter()
    four = ShardedPipeline(predictor, shards=ShardConfig(workers=4)).run(list(records))
    four_worker_seconds = time.perf_counter() - start

    report = four.shard_report
    return {
        "num_records": float(len(records)),
        "num_candidates": float(len(batch.scored.pairs)),
        "cpu_count": float(os.cpu_count() or 1),
        "batch_seconds": batch_seconds,
        "sharded_1w_seconds": one_worker_seconds,
        "sharded_4w_seconds": four_worker_seconds,
        "speedup_4w": one_worker_seconds / max(four_worker_seconds, 1e-9),
        "sharded_parity": float(four.clusters.clusters == batch.clusters.clusters),
        "sharded_bitwise_parity": float(
            np.array_equal(one.scored.scores, batch.scored.scores)
            and one.clusters.clusters == batch.clusters.clusters),
        "used_processes": float(report.used_processes),
        "hot_buckets_split": float(report.hot_buckets_split),
        "duplicate_scored_pairs": float(report.duplicate_scored_pairs),
        "shard_load_gini_hashed": report.gini_hashed,
        "shard_load_gini_balanced": report.gini_balanced,
    }


STAGES: Tuple[BenchStage, ...] = (
    BenchStage("encoder", "vectorised vs reference pair encoding", _stage_encoder),
    BenchStage("figure6-music3k", "Fig. 6a method comparison (Music-3K)", _stage_figure6_music3k),
    BenchStage("figure6-music1m", "Fig. 6b weak labels (Music-1M)", _stage_figure6_music1m),
    BenchStage("figure6-monitor", "Fig. 6c method comparison (Monitor)", _stage_figure6_monitor),
    BenchStage("figure7", "Fig. 7 attention-space alignment", _stage_figure7),
    BenchStage("figure8", "Fig. 8 PRAUC vs adaptation weight", _stage_figure8),
    BenchStage("figure9", "Fig. 9 incremental sources + runtime", _stage_figure9),
    BenchStage("figure10", "Fig. 10 PRAUC vs support size", _stage_figure10),
    BenchStage("figure11", "Fig. 11 missingness analysis", _stage_figure11),
    BenchStage("figure12", "Fig. 12 token distribution shift", _stage_figure12),
    BenchStage("table4", "Table 4 feature importance", _stage_table4),
    BenchStage("table5", "Table 5 top attributes", _stage_table5),
    BenchStage("table6", "Table 6 contrastive-feature ablation", _stage_table6),
    BenchStage("table7", "Table 7 single-domain benchmarks", _stage_table7),
    BenchStage("train_epoch", "training engine: eager vs graph replay",
               _stage_train_epoch),
    BenchStage("pipeline_end_to_end", "end-to-end linkage engine (Music-3K)",
               _stage_pipeline_end_to_end),
    BenchStage("pipeline_sharded_1m", "sharded linkage engine (Music-1M)",
               _stage_pipeline_sharded_1m),
    BenchStage("serve_online", "online linkage service latency (Music-3K)",
               _stage_serve_online),
    BenchStage("serve_degraded", "serving availability under a scoring outage",
               _stage_serve_degraded),
    BenchStage("store_recovery", "durable store: WAL-tail vs full-replay restore",
               _stage_store_recovery),
    BenchStage("obs_overhead", "telemetry overhead: serve + train, on vs off",
               _stage_obs_overhead),
    BenchStage("obs_distributed", "distributed telemetry: worker capture + merge",
               _stage_obs_distributed),
)

_STAGES_BY_NAME = {stage.name: stage for stage in STAGES}


def list_stages() -> List[Tuple[str, str]]:
    """``(name, description)`` of every registered stage, in run order."""
    return [(stage.name, stage.description) for stage in STAGES]


# --------------------------------------------------------------------------- #
# Suite execution
# --------------------------------------------------------------------------- #
def summarize_latency_samples(extras: Dict[str, object]) -> Dict[str, float]:
    """Fold raw latency samples into per-stage p50/p95/p99 percentiles.

    A stage may return per-request latency *samples* (seconds) under keys
    ending in ``_latency_samples``; the snapshot should record the latency
    distribution, not a raw array, so each such key is replaced by
    ``<prefix>_latency_{p50,p95,p99}_ms`` plus a ``<prefix>_latency_count``.
    All other entries pass through unchanged, so stages without samples (and
    the ``--check`` gate, which only reads ``seconds``) are unaffected.
    """
    from ..obs.stats import percentiles as _percentiles

    summarized: Dict[str, float] = {}
    for key, value in extras.items():
        if not key.endswith("_latency_samples"):
            summarized[key] = value  # type: ignore[assignment]
            continue
        prefix = key[:-len("_samples")]
        samples = list(value)  # type: ignore[arg-type]
        for name, seconds in _percentiles(samples).items():
            summarized[f"{prefix}_{name}_ms"] = float(seconds) * 1000.0
        summarized[f"{prefix}_count"] = float(len(samples))
    return summarized


def run_suite(scale_name: Optional[str] = None, seed: Optional[int] = None,
              stages: Optional[Sequence[str]] = None,
              progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Run the benchmark suite and return the ``BENCH_core.json`` payload."""
    resolved_name, scale = select_scale(scale_name)
    resolved_seed = select_seed(seed)
    if stages is None:
        selected = list(STAGES)
    else:
        unknown = [name for name in stages if name not in _STAGES_BY_NAME]
        if unknown:
            raise KeyError(f"unknown bench stages {unknown}; "
                           f"available: {[s.name for s in STAGES]}")
        selected = [_STAGES_BY_NAME[name] for name in stages]

    results: Dict[str, Dict[str, float]] = {}
    total = 0.0
    for stage in selected:
        if progress is not None:
            progress(f"[{stage.name}] {stage.description} ...")
        start = time.perf_counter()
        extras = stage.runner(scale, resolved_seed)
        seconds = time.perf_counter() - start
        entry: Dict[str, float] = {"seconds": round(seconds, 4)}
        if extras:
            entry.update({key: round(float(value), 4)
                          for key, value in summarize_latency_samples(extras).items()})
        results[stage.name] = entry
        total += seconds
        if progress is not None:
            progress(f"[{stage.name}] done in {seconds:.2f}s")

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "scale": resolved_name,
        "seed": resolved_seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stages": results,
        "total_seconds": round(total, 4),
    }


def _machine_ratio(current: Dict, baseline: Dict) -> float:
    """How much slower this machine is than the one that recorded ``baseline``.

    The encoder stage's ``reference_seconds`` times a fixed pure-python/numpy
    workload (the per-pair reference encoder on a deterministic scenario), so
    the ratio of the two recordings estimates relative machine speed.  The
    ratio only ever *relaxes* budgets (clamped to ``[1, 4]``): a faster
    machine must still beat the recorded absolute numbers.
    """
    try:
        cur = float(current["stages"]["encoder"]["reference_seconds"])
        base = float(baseline["stages"]["encoder"]["reference_seconds"])
    except (KeyError, TypeError, ValueError):
        return 1.0
    if cur <= 0 or base <= 0:
        return 1.0
    return min(max(cur / base, 1.0), 4.0)


def find_regressions(current: Dict, baseline: Dict, tolerance: float = 0.25,
                     min_seconds: float = 0.05) -> List[Tuple[Optional[str], str]]:
    """Compare a fresh run against a committed snapshot.

    Returns ``(stage_name, problem)`` tuples; empty means the gate passes.
    ``stage_name`` is ``None`` for problems no re-run can fix (e.g. a scale
    mismatch).  A stage regresses when its wall-clock exceeds the baseline by
    more than ``tolerance`` (relative) plus a small absolute slack, ignoring
    stages whose baseline is below ``min_seconds`` (pure noise).  Budgets are
    scaled by :func:`_machine_ratio` so a snapshot recorded on faster hardware
    does not fail every stage on a slower CI runner.

    Besides wall-clock, extras whose key ends in ``_ops`` or
    ``_tensors_per_step`` are treated as *deterministic* counters (op counts
    of the compiled training tape, tensor allocations per step): they are
    machine-independent, so they get only 10% headroom plus one count — a
    tape regression stays visible even when timing noise would hide it.

    Extras ending in ``_overhead_ratio`` (the ``obs_overhead`` stage) are
    gated against an *absolute* ceiling — telemetry enabled must stay within
    5% of disabled (plus 1% measurement slack) regardless of what the
    baseline machine recorded; both runs of a ratio share one machine, so no
    machine-ratio relaxation applies.  The stage name is returned so the
    ``--check`` retry loop re-times an over-budget ratio before failing.

    Extras ending in ``_parity`` are exact correctness invariants (sharded
    output equals single-process, streamed equals batch): the current run's
    value must be exactly 1.0 — these are deterministic, so no re-run and no
    headroom.  The ``obs_distributed`` stage additionally gates its
    ``worker_span_coverage`` into ``[0.9, 1.1]`` — in-process worker spans
    must account for the driver's ``sharded.score`` wall time within 10%,
    so telemetry that silently drops (or double-merges) worker payloads
    fails even when every parity flag still holds — and gates its
    ``merge_overhead_ratio`` against a 1.20x ceiling of its own instead of
    the generic 5% rule (the smoke-scale sharded run is tens of
    milliseconds, so the fixed capture + merge cost would flake a 5% gate;
    see :func:`_stage_obs_distributed`).
    The ``pipeline_sharded_1m`` stage additionally gates its
    4-worker ``speedup_4w`` against a ≥3× floor, but only when the current
    machine reports at least 4 CPUs (``cpu_count``); parity always applies,
    parallel speedup only where parallelism physically exists.
    The ``store_recovery`` stage additionally gates its ``restore_speedup``
    against a ≥1.2x floor: snapshot + WAL-tail recovery must beat replaying
    the whole log, or compaction has stopped paying for itself.  Both
    timings come from the same process on the same directory tree, so no
    machine-ratio relaxation applies.
    The ``serve_degraded`` stage additionally gates its ``availability``
    against a ≥0.99 floor: during a total scoring outage queries must keep
    answering (degraded, via the index-only fallback) instead of erroring —
    its ``degraded_parity`` / ``breaker_tripped_parity`` flags ride the
    generic ``_parity`` rule above.
    """
    problems: List[Tuple[Optional[str], str]] = []
    if current.get("scale") != baseline.get("scale"):
        problems.append((None,
            f"scale mismatch: current run is {current.get('scale')!r} but the "
            f"baseline was recorded at {baseline.get('scale')!r}"
        ))
        return problems
    ratio = _machine_ratio(current, baseline)
    baseline_stages = baseline.get("stages", {})
    current_stages = current.get("stages", {})
    for name, base_entry in baseline_stages.items():
        base_seconds = float(base_entry.get("seconds", 0.0))
        cur_entry = current_stages.get(name)
        if cur_entry is None:
            if base_seconds >= min_seconds:
                problems.append((None, f"stage {name!r} present in baseline but not in this run"))
            continue
        # Wall-clock budget: only for stages whose baseline is above the
        # noise floor.  The deterministic counter checks below apply
        # regardless — they are immune to timing noise by construction.
        cur_seconds = float(cur_entry.get("seconds", 0.0))
        budget = base_seconds * (1.0 + tolerance) * ratio + 0.1
        if base_seconds >= min_seconds and cur_seconds > budget:
            problems.append((name,
                f"stage {name!r} regressed: {cur_seconds:.2f}s vs baseline "
                f"{base_seconds:.2f}s (budget {budget:.2f}s at +{tolerance:.0%}"
                + (f", machine ratio {ratio:.2f}" if ratio != 1.0 else "") + ")"
            ))
        if name == "obs_distributed":
            coverage = cur_entry.get("worker_span_coverage")
            if coverage is None:
                problems.append((None,
                    "stage 'obs_distributed' is missing 'worker_span_coverage'"))
            elif not 0.9 <= float(coverage) <= 1.1:
                problems.append((name,
                    f"stage 'obs_distributed' worker span coverage is "
                    f"{float(coverage):.3f}; in-process worker spans must "
                    f"account for the sharded.score wall time within 10%"
                ))
            merge_ratio = cur_entry.get("merge_overhead_ratio")
            if merge_ratio is None:
                problems.append((None,
                    "stage 'obs_distributed' is missing 'merge_overhead_ratio'"))
            elif float(merge_ratio) > 1.20:
                problems.append((name,
                    f"stage 'obs_distributed' worker capture + merge overhead "
                    f"is {float(merge_ratio):.3f}x; the ceiling is 1.20x "
                    f"(wider than obs_overhead's because the smoke workload "
                    f"is tens of milliseconds — a real regression such as "
                    f"per-pair capture lands far above it)"
                ))
        if name == "pipeline_sharded_1m":
            speedup = cur_entry.get("speedup_4w")
            cpus = float(cur_entry.get("cpu_count", 1.0))
            if speedup is not None and cpus >= 4 and float(speedup) < 3.0:
                problems.append((name,
                    f"stage {name!r} sharded speedup is {float(speedup):.2f}x "
                    f"at 4 workers on {cpus:.0f} CPUs; the floor is 3.0x"
                ))
        if name == "serve_degraded":
            availability = cur_entry.get("availability")
            if availability is None:
                problems.append((None,
                    "stage 'serve_degraded' is missing 'availability'"))
            elif float(availability) < 0.99:
                problems.append((None,
                    f"stage 'serve_degraded' availability under a scoring "
                    f"outage is {float(availability):.4f}; the floor is 0.99 "
                    f"(degraded answers, not errors — deterministic, no "
                    f"re-run)"
                ))
        if name == "store_recovery":
            speedup = cur_entry.get("restore_speedup")
            if speedup is None:
                problems.append((None,
                    "stage 'store_recovery' is missing 'restore_speedup'"))
            elif float(speedup) < 1.2:
                problems.append((name,
                    f"stage 'store_recovery' snapshot + WAL-tail restore is "
                    f"only {float(speedup):.2f}x faster than full WAL replay; "
                    f"the floor is 1.2x (compaction must keep recovery "
                    f"O(snapshot + tail))"
                ))
        for key, base_value in base_entry.items():
            if key.endswith("_parity"):
                cur_value = cur_entry.get(key)
                if cur_value is None:
                    problems.append((None,
                        f"stage {name!r} parity flag {key!r} present in "
                        f"baseline but missing from this run"))
                elif float(cur_value) != 1.0:
                    problems.append((None,
                        f"stage {name!r} parity flag {key!r} is "
                        f"{float(cur_value)}; outputs must be identical "
                        f"(deterministic, no re-run)"))
                continue
            if key.endswith("_overhead_ratio"):
                if name == "obs_distributed" and key == "merge_overhead_ratio":
                    continue  # gated above with its own (wider) ceiling
                cur_value = cur_entry.get(key)
                if cur_value is None:
                    problems.append((None,
                        f"stage {name!r} ratio {key!r} present in baseline but "
                        f"missing from this run"))
                elif float(cur_value) > 1.05 + 0.01:
                    problems.append((name,
                        f"stage {name!r} telemetry overhead {key!r} is "
                        f"{float(cur_value):.3f}x; enabled must stay within 5% "
                        f"of disabled (limit 1.06x incl. slack)"
                    ))
                continue
            if not (key.endswith("_ops") or key.endswith("_tensors_per_step")):
                continue
            cur_value = cur_entry.get(key)
            if cur_value is None:
                problems.append((None,
                    f"stage {name!r} counter {key!r} present in baseline but "
                    f"missing from this run"))
                continue
            counter_budget = float(base_value) * 1.10 + 1.0
            if float(cur_value) > counter_budget:
                problems.append((None,
                    f"stage {name!r} counter {key!r} regressed: "
                    f"{float(cur_value):.1f} vs baseline {float(base_value):.1f} "
                    f"(budget {counter_budget:.1f}; deterministic, no re-run)"
                ))
    return problems


def check_regressions(current: Dict, baseline: Dict, tolerance: float = 0.25,
                      min_seconds: float = 0.05) -> List[str]:
    """Human-readable variant of :func:`find_regressions`."""
    return [message for _, message in
            find_regressions(current, baseline, tolerance, min_seconds)]
