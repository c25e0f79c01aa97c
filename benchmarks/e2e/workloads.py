"""The four workloads.  Each only *calls* public functions of ``repro``.

Every workload trains the same model recipe ``M`` inside its set-up (never
loaded from disk): AdaMEL-hyb at ``ExperimentScale()`` default dimensions on
the Music-3K ``artist`` ``overlapping`` scenario, float64, ``execution="auto"``.
All other configs are the library defaults and telemetry (``repro.obs``) stays
off.  Sizes below are what fits the driver's budget of about 37 s per run
(set-up three times plus the timed section); the timed sections are bounded by
``--seconds`` and made of repeated fixed-size units, so a slower machine
measures fewer units, not longer.

``M``, its scenario and the store ``serve_query`` probes are fixtures, the same
for every ``--seed``; the seed generates the traffic.  Unit 0 of every timed
section is a *reference input* that does not depend on the seed either, and
``quality`` is read from it alone: the number then moves only when the code
does (over seeds 0-9 a seeded quality spread by 2-9 %, which no bound near the
-0.005 a quality regression is judged by can hold).  Units 1.. are generated
from ``--seed``.  A unit's input is a function of the seed and the unit's index
only, so both halves of a traced run process the same inputs.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.variants import create_variant
from repro.data.records import Record
from repro.experiments import ExperimentScale, build_corpus, build_scenario
from repro.features.cache import get_default_cache
from repro.infer.predictor import BatchedPredictor
from repro.pipeline import (LinkagePipeline, PipelineConfig, ShardConfig,
                            ShardedPipeline)
from repro.pipeline.clustering import pairwise_cluster_metrics
from repro.serve import LinkageService, ServiceConfig, StoreConfig
from repro.storage import Storage, StorageConfig

from .harness import (OUT, LoopSamples, Measurement, median, run_closed,
                      run_schedule, run_threads, run_units, tail_point)
from .trace import Tracer

# Model recipe M: 300 entities -> ~800 labeled pairs -> 50 steps/epoch.
MODEL_SEED = 0
MODEL_ENTITIES = 300
MODEL_SUPPORT = 100
MODEL_TEST = 500
MODEL_EPOCHS = 10

BATCH_CORPUS_ENTITIES = 700      # ~2.4 k records, ~15 k candidate pairs per corpus
INGEST_CORPUS_ENTITIES = 230     # ~800 records: one snapshot at 500, WAL tail ~300
INGEST_SNAPSHOT_EVERY = 500
QUERY_CORPUS_ENTITIES = 220      # ~760 records: every other one of an entity is stored
QUERY_CORPUS_SEED = 300
# Open-loop arrivals per second, all generators: about a third of what two
# closed clients reach.  At 150/s one 2 s freeze of the box left a backlog that
# took half the phase to drain and moved p50 from 7 ms to 123 ms.
QUERY_RATE = 100.0
QUERY_CLIENTS = 2                # = nproc on the reference box
QUERY_OPEN_SHARE = 0.6           # of --seconds; the rest is the closed loop
SCORE_RTOL = 1e-9                # batched forwards differ by GEMM ulps, not more


def percentile(samples: Sequence[float], point: float) -> float:
    return float(np.percentile(samples, point))


def _corpus_records(entities: int, seed: int) -> List[Record]:
    scale = ExperimentScale(music_entities=entities)
    return list(build_corpus("music3k", "artist", scale=scale, seed=seed).records)


def _pairwise_f1(clusters: Sequence[Sequence[str]], records: Sequence[Record]) -> float:
    assignments = {record_id: index for index, members in enumerate(clusters)
                   for record_id in members}
    truth = {record.record_id: record.entity_id for record in records
             if record.entity_id is not None}
    return pairwise_cluster_metrics(assignments, truth)["pairwise_f1"]


class _Workload:
    """Shared set-up: build the scenario and train ``M`` from a cold cache."""

    name = ""
    # Seed of unit 0's input, the reference every --seed shares.
    REFERENCE_SEED = 0

    def __init__(self, seed: int, tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.scale = ExperimentScale(music_entities=MODEL_ENTITIES,
                                     support_size=MODEL_SUPPORT, test_size=MODEL_TEST,
                                     adamel_epochs=MODEL_EPOCHS, seed=MODEL_SEED)

    def unit_seed(self, index: int) -> int:
        """What generates unit ``index``'s input: the reference for unit 0,
        else a value no other (``--seed``, index) shares."""
        if index == 0:
            return self.REFERENCE_SEED
        return 1000 * (self.seed + 1) + self.REFERENCE_SEED + index

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.enabled

    def set_op(self, op: object) -> None:
        if self.tracer is not None:
            self.tracer.set_op(op)

    @contextlib.contextmanager
    def untraced(self) -> Iterator[None]:
        """Keep verification work, which is not the workload, out of the trace."""
        was_tracing = self.tracing
        if was_tracing:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if was_tracing:
                self.tracer.enabled = True

    def new_model(self, **overrides: object):
        return create_variant("adamel-hyb", self.scale.adamel_config(**overrides))

    def setup(self) -> None:
        # Every repetition starts cold, so each does the same work.
        get_default_cache().clear()
        self.scenario = build_scenario("music3k", "artist", mode="overlapping",
                                       scale=self.scale, seed=MODEL_SEED)
        self.model = self.new_model()
        self.cold_history = self.model.fit(self.scenario)
        self.predictor = BatchedPredictor.from_trainer(self.model)

    def teardown(self) -> None:
        pass

    def forget_inputs(self) -> None:
        """Drop what the process remembers of inputs it has seen: encoded
        pairs and tokenised texts.  Both halves of a traced run process the
        same inputs, and the second would find them (a second pass over the
        same corpora linked about 10 % faster)."""
        get_default_cache().clear()
        self.predictor.encoder.tokenizer.clear_memo()

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def config_note(self) -> Dict[str, object]:
        return {"model": {"variant": "adamel-hyb", "seed": MODEL_SEED,
                          "entities": MODEL_ENTITIES,
                          "support": MODEL_SUPPORT, "test": MODEL_TEST,
                          "epochs": MODEL_EPOCHS, "dtype": "float64",
                          "execution": "auto"}}


def _losses(history: object) -> List[List[float]]:
    return [history.total_loss, history.base_loss, history.target_loss,
            history.support_loss]


# ---------------------------------------------------------------------- #
class TrainAdapt(_Workload):
    """Warm fits of fresh ``M`` models; op = optimisation step.

    The input a seed can vary without changing the scenario is the training
    seed (initial weights, batch order): unit 0 trains with ``M``'s own and
    must reproduce the set-up's cold fit, the others train with ``--seed``.
    """

    name = "train_adapt"
    REFERENCE_SEED = MODEL_SEED

    def unit_seed(self, index: int) -> int:
        # One training seed for all seeded fits: they must agree with each other.
        return self.REFERENCE_SEED if index == 0 else self.seed

    def measure(self, seconds: float) -> Measurement:
        scenario = self.scenario
        labeled = len(scenario.source.pairs) + len(scenario.support.pairs)
        config = self.scale.adamel_config()
        steps_per_fit = config.epochs * math.ceil(labeled / config.batch_size)
        cache = get_default_cache()
        hits_before, misses_before = cache.lookup_counts()

        def unit(index: int) -> Dict[str, object]:
            # profile_steps only in the traced half: it is the one way to see
            # single steps from outside, and it costs two clock reads a step.
            model = self.new_model(seed=self.unit_seed(index), profile_steps=self.tracing)
            self.set_op(index)
            cpu = time.process_time()
            wall = time.perf_counter()
            history = model.fit(scenario)
            wall = time.perf_counter() - wall
            cpu = time.process_time() - cpu
            with self.untraced():
                auc = model.evaluate(scenario.test.pairs).pr_auc
            # Only numbers outlive the unit: a fitted model pins its compiled
            # graphs' buffers, and peak RSS must not grow with the fit count.
            return {"wall": wall, "cpu": cpu, "auc": auc, "losses": _losses(history),
                    "steps": history.step_seconds or [],
                    "replay": model.replay_stats() or {}}

        fits = run_units(seconds, unit, min_units=3)
        walls = [fit["wall"] for fit in fits]
        seeded = fits[1:]
        hits, misses = cache.lookup_counts()
        lookups = (hits - hits_before) + (misses - misses_before)
        replay = fits[-1]["replay"]
        step_seconds = [value for fit in fits for value in fit["steps"]]
        checks = {
            "losses_finite": all(np.isfinite(fit["losses"]).all() for fit in fits),
            "reference_fit_equals_cold_fit": fits[0]["losses"] == _losses(self.cold_history),
            "seeded_fits_identical": all(
                fit["losses"] == seeded[0]["losses"] and fit["auc"] == seeded[0]["auc"]
                for fit in seeded),
        }
        ops = steps_per_fit * len(fits)
        wall_s = sum(walls)
        return Measurement(
            ops=ops, failed=0, wall_s=wall_s, busy_s=wall_s,
            cpu_s=sum(fit["cpu"] for fit in fits),
            ops_per_s=steps_per_fit / median(walls), latency_p50_ms=median(walls) * 1e3,
            quality=fits[0]["auc"], checks=checks,
            detail={
                "core.trainer.steps": float(ops),
                "core.trainer.step_p50_ms": median(step_seconds) * 1e3,
                "nn.graph.forward_ops": float(replay.get("forward_ops", 0)),
                "nn.graph.backward_ops": float(replay.get("backward_ops", 0)),
                "nn.graph.nodes": float(replay.get("nodes", 0)),
                "features.cache.hit_ratio": (hits - hits_before) / lookups if lookups else 0.0,
            },
            notes=[f"fits={len(fits)} steps/fit={steps_per_fit} "
                   f"pr_auc reference={fits[0]['auc']:.4f} seeded={seeded[0]['auc']:.4f} "
                   "fit_s=" + "/".join(f"{wall:.3f}" for wall in walls)])


# ---------------------------------------------------------------------- #
class BatchLink(_Workload):
    """``LinkagePipeline.run`` over distinct corpora; op = record linked."""

    name = "batch_link"
    REFERENCE_SEED = 100

    def measure(self, seconds: float) -> Measurement:
        self.forget_inputs()
        cache = get_default_cache()
        cache_before = cache.stats()
        threshold = PipelineConfig().score_threshold

        def unit(index: int) -> Dict[str, object]:
            records = _corpus_records(BATCH_CORPUS_ENTITIES, self.unit_seed(index))
            self.set_op(index)
            cpu = time.process_time()
            wall = time.perf_counter()
            result = LinkagePipeline(self.predictor).run(records)
            wall = time.perf_counter() - wall
            cpu = time.process_time() - cpu
            membership = Counter(record_id for members in result.clusters.clusters
                                 for record_id in members)
            scores = np.asarray(result.scored.scores)
            return {
                # Only the first corpus is kept, for the sharded comparison.
                "records": records if index == 0 else None,
                "clusters": result.clusters.clusters if index == 0 else None,
                "count": len(records), "wall": wall, "cpu": cpu, "pairs": len(scores),
                "matches": int(np.count_nonzero(scores >= threshold)),
                "recall": result.candidates.stats.get("recall", 0.0),
                "f1": result.clusters.stats.get("pairwise_f1", 0.0),
                "partition_ok": (set(membership) == {r.record_id for r in records}
                                 and all(count == 1 for count in membership.values())),
                "scores_ok": bool(len(scores) == 0
                                  or (scores.min() >= 0.0 and scores.max() <= 1.0)),
            }

        units = run_units(seconds, unit, min_units=3)
        cache_after = cache.stats()
        lookups = sum(cache_after[k] - cache_before[k] for k in ("hits", "misses"))
        records = sum(u["count"] for u in units)
        pairs = sum(u["pairs"] for u in units)
        walls = [u["wall"] for u in units]
        wall_s = sum(walls)
        detail = {
            "features.cache.hit_ratio": ((cache_after["hits"] - cache_before["hits"])
                                         / lookups if lookups else 0.0),
            "features.cache.evictions": float(cache_after["evictions"]
                                              - cache_before["evictions"]),
            "pipeline.candidates.pairs": float(pairs),
            "pipeline.candidates.recall": float(np.mean([u["recall"] for u in units])),
            "pipeline.candidates.match_share": (sum(u["matches"] for u in units) / pairs
                                                if pairs else 0.0),
        }
        notes = [f"corpora={len(units)} records={records} pairs={pairs} "
                 f"f1 reference={units[0]['f1']:.4f} "
                 f"seeded mean={np.mean([u['f1'] for u in units[1:]]):.4f} run_s="
                 + "/".join(f"{wall:.3f}" for wall in walls)]
        if self.tracing:
            detail.update(self._sharded_baseline(units[0]))
        return Measurement(
            ops=records,
            failed=sum(u["count"] for u in units
                       if not (u["partition_ok"] and u["scores_ok"])),
            wall_s=wall_s, busy_s=wall_s, cpu_s=sum(u["cpu"] for u in units),
            ops_per_s=median([u["count"] / u["wall"] for u in units]),
            latency_p50_ms=median(walls) * 1e3, quality=units[0]["f1"],
            checks={"every_record_in_one_cluster": all(u["partition_ok"] for u in units),
                    "scores_in_unit_interval": all(u["scores_ok"] for u in units)},
            detail=detail, notes=notes)

    def _sharded_baseline(self, unit: Dict[str, object]) -> Dict[str, float]:
        """One 2-worker sharded run over the first corpus (informational)."""
        records = unit["records"]
        with self.untraced():
            started = time.perf_counter()
            result = ShardedPipeline(self.predictor,
                                     shards=ShardConfig(workers=2)).run(records)
            seconds = time.perf_counter() - started
        return {
            "pipeline.sharded.records_per_s_2w": len(records) / seconds,
            "pipeline.sharded.parity": float(result.clusters.clusters == unit["clusters"]),
        }


# ---------------------------------------------------------------------- #
class ServeIngest(_Workload):
    """Shuffled upsert streams into a durable service, each then recovered."""

    name = "serve_ingest"
    REFERENCE_SEED = 200
    # Streams differ in cost by +-15 % with their corpus, and only a few fit a
    # section: letting the clock decide how many run made the same seed
    # report 180 or 230 upserts/s depending on whether the last one was in.
    # So the stream count is fixed by --seconds, at this nominal length each.
    STREAM_NOMINAL_S = 5.0

    def setup(self) -> None:
        super().setup()
        self.data_root = OUT / f"data-{os.getpid()}"

    def teardown(self) -> None:
        if hasattr(self, "data_root"):
            shutil.rmtree(self.data_root, ignore_errors=True)

    def config_note(self) -> Dict[str, object]:
        note = super().config_note()
        config = StorageConfig(snapshot_every=INGEST_SNAPSHOT_EVERY)
        note["flush_policy"] = {
            "wal_fsync_per_append": config.fsync,
            "snapshot_every": config.snapshot_every,
            "wal_segment_max_entries": config.wal_segment_max_entries,
            "upsert_scoring": "coalescer, max_wait=0 (immediate flush)"}
        return note

    def measure(self, seconds: float) -> Measurement:
        streams = max(2, round(seconds / self.STREAM_NOMINAL_S))
        units = run_units(0.0, self._stream, min_units=streams)
        # Batch parity is checked after timing: it re-scores every stream.
        batch_config = StoreConfig().to_pipeline_config()
        with self.untraced():
            for unit in units:
                batch = LinkagePipeline(self.predictor,
                                        config=batch_config).run(unit["records"])
                unit["batch_ok"] = batch.clusters.clusters == unit["clusters"]
        latencies = [value for unit in units for value in unit["latencies"]]
        upserts = len(latencies)
        wall_s = sum(unit["wall"] for unit in units)
        point = tail_point(upserts) or 95.0
        detail = {
            "serve.service.latency_p95_ms": percentile(latencies, 95.0) * 1e3,
            "storage.engine.recover_s": median([unit["recover_s"] for unit in units]),
            "storage.engine.replayed_entries": float(sum(u["replayed"] for u in units)),
            "storage.snapshots.max_stall_ms": max(u["stall"] for u in units) * 1e3,
            "storage.wal.fsync_p50_ms": median(
                [value for unit in units for value in unit["fsyncs"]]) * 1e3,
            "storage.wal.fsyncs": float(sum(len(unit["fsyncs"]) for unit in units)),
            "serve.store.pairs_scored": float(sum(u["pairs_scored"] for u in units)),
            "serve.store.resolutions": float(sum(u["resolutions"] for u in units)),
            "serve.coalescer.batches": float(sum(u["batches"] for u in units)),
            "serve.coalescer.mean_batch_pairs": (
                sum(u["coalesced_pairs"] for u in units)
                / max(sum(u["batches"] for u in units), 1)),
            "serve.coalescer.deadline_flush_share": (
                sum(u["deadline_flushes"] for u in units)
                / max(sum(u["batches"] for u in units), 1)),
            "resilience.breaker.opens": float(sum(u["breaker_opens"] for u in units)),
        }
        return Measurement(
            ops=upserts, failed=sum(unit["failed"] for unit in units),
            wall_s=wall_s, busy_s=sum(latencies) + sum(u["recover_s"] for u in units),
            cpu_s=sum(unit["cpu"] for unit in units),
            ops_per_s=upserts / wall_s, latency_p50_ms=percentile(latencies, 50.0) * 1e3,
            quality=units[0]["f1"],
            checks={
                "streamed_equals_batch": all(unit["batch_ok"] for unit in units),
                "recovered_equals_live": all(unit["recovered_ok"] for unit in units),
                "one_fsync_per_upsert": all(
                    len(unit["fsyncs"]) == len(unit["records"]) for unit in units),
                "wal_lsn_equals_upserts": all(
                    unit["last_lsn"] == len(unit["records"]) for unit in units),
            },
            detail=detail,
            notes=[f"streams={len(units)} upserts={upserts} "
                   f"p50={percentile(latencies, 50.0) * 1e3:.3f}ms "
                   f"p{point:g}={percentile(latencies, point) * 1e3:.3f}ms (n={upserts}) "
                   f"first/last quartile p50="
                   f"{self._quartile_p50(units, 0):.3f}/{self._quartile_p50(units, 3):.3f}ms "
                   f"f1 reference={units[0]['f1']:.4f} "
                   f"seeded mean={np.mean([u['f1'] for u in units[1:]]):.4f}"])

    @staticmethod
    def _quartile_p50(units: Sequence[Dict[str, object]], quartile: int) -> float:
        values: List[float] = []
        for unit in units:
            size = len(unit["latencies"]) // 4
            values.extend(unit["latencies"][quartile * size:(quartile + 1) * size])
        return percentile(values, 50.0) * 1e3

    def _stream(self, index: int) -> Dict[str, object]:
        seed = self.unit_seed(index)
        # Streams share no pairs, so an earlier stream's encodings can never
        # hit; dropping them keeps peak RSS independent of the stream count.
        self.forget_inputs()
        records = _corpus_records(INGEST_CORPUS_ENTITIES, seed)
        np.random.default_rng(seed).shuffle(records)
        data_dir = self.data_root / f"stream-{index}"
        config = StorageConfig(snapshot_every=INGEST_SNAPSHOT_EVERY)
        storage = Storage(data_dir, store_config=StoreConfig(), config=config)
        latencies: List[float] = []
        failed = 0
        try:
            with LinkageService(self.predictor, storage=storage) as service:
                cpu = time.process_time()
                wall = time.perf_counter()
                for position, record in enumerate(records):
                    self.set_op((index, position))
                    started = time.perf_counter()
                    try:
                        service.upsert(record)
                    except Exception:   # counted, and the parity checks will fail
                        failed += 1
                    latencies.append(time.perf_counter() - started)
                wall = time.perf_counter() - wall
                cpu = time.process_time() - cpu
                live_state = storage.store.state_dict()
                clusters = storage.store.clusters()
                storage_stats = storage.stats()
                fsyncs = storage.fsync_latency_samples()
                store_stats = service.store.stats()
                coalescer = service.coalescer.stats()
                breaker = service.breaker.stats()
        finally:
            storage.close()
        self.set_op((index, "recover"))
        started = time.perf_counter()
        recovered = Storage.recover(data_dir, config=config)
        recover_s = time.perf_counter() - started
        try:
            recovered_ok = (recovered.store.state_dict() == live_state
                            and recovered.store.clusters() == clusters)
            replayed = recovered.last_recovery.replayed_entries
        finally:
            recovered.close()
        shutil.rmtree(data_dir, ignore_errors=True)
        # A snapshot is taken inside the upsert that reaches the cadence.
        snapshot_at = range(INGEST_SNAPSHOT_EVERY - 1, len(records), INGEST_SNAPSHOT_EVERY)
        stall = max((max(latencies[max(at - 1, 0):at + 2]) for at in snapshot_at),
                    default=0.0)
        return {
            "records": records, "clusters": clusters, "latencies": latencies,
            "failed": failed, "wall": wall, "cpu": cpu, "recover_s": recover_s,
            "recovered_ok": recovered_ok, "replayed": replayed, "stall": stall,
            "fsyncs": fsyncs, "last_lsn": int(storage_stats["wal_last_lsn"]),
            "pairs_scored": store_stats["pairs_scored"],
            "resolutions": store_stats["resolutions"],
            "batches": coalescer["batches"], "coalesced_pairs": coalescer["pairs_scored"],
            "deadline_flushes": coalescer["deadline_flushes"],
            "breaker_opens": float(breaker.get("opens", 0)),
            "f1": _pairwise_f1(clusters, records),
        }


# ---------------------------------------------------------------------- #
class ServeQuery(_Workload):
    """Unseen probe records against a preloaded store: open loop, then closed.

    The store is a fixture: every second record of each entity of one corpus
    is stored, the others form the probe pool, so no probed pair is encoded
    before a probe first arrives.  Phase A (open loop) draws probes Zipf(s=1)
    over a seeded ranking of the pool - a repeated probe's pairs hit the
    encoding cache, a first-time probe's miss.  Phase B (closed loop) sweeps
    the whole pool in a seeded order, over and over; ``quality`` is judged on
    the pool as a whole, which is the reference input here.
    """

    name = "serve_query"
    REFERENCE_SEED = QUERY_CORPUS_SEED

    def setup(self) -> None:
        super().setup()
        records = _corpus_records(QUERY_CORPUS_ENTITIES, QUERY_CORPUS_SEED)
        np.random.default_rng(QUERY_CORPUS_SEED).shuffle(records)
        seen: Counter = Counter()
        stored: List[Record] = []
        self.pool: List[Record] = []
        for record in records:
            (self.pool if seen[record.entity_id] % 2 else stored).append(record)
            seen[record.entity_id] += 1
        self.truth = {record.record_id: record.entity_id for record in stored}
        self.service = LinkageService(self.predictor).start()
        for record in stored:
            self.service.upsert(record)

    def teardown(self) -> None:
        if hasattr(self, "service"):
            self.service.stop()

    def config_note(self) -> Dict[str, object]:
        note = super().config_note()
        note["load"] = {"open_loop_q_per_s": QUERY_RATE, "clients": QUERY_CLIENTS,
                        "open_share_of_seconds": QUERY_OPEN_SHARE,
                        "service_config": ServiceConfig().as_dict()}
        return note

    def measure(self, seconds: float) -> Measurement:
        service = self.service
        self.forget_inputs()
        cache = get_default_cache()
        cache_before = cache.stats()
        coalescer_before = service.coalescer.stats()
        degraded_before = service.stats()["service"]["degraded_queries"]
        rng = np.random.default_rng((self.seed, 301))
        pool = [self.pool[k] for k in rng.permutation(len(self.pool))]

        def sender(client: int) -> Callable[[Tuple[int, Record]], object]:
            def send(payload: Tuple[int, Record]) -> object:
                number, probe = payload
                self.set_op((client, number))
                try:
                    return service.query(probe)
                except Exception as error:   # counted as failed below
                    return error
            return send

        # Phase A: each generator keeps its own schedule at rate / clients,
        # staggered so arrivals are evenly spaced overall.
        open_s = seconds * QUERY_OPEN_SHARE
        per_client = int(open_s * QUERY_RATE / QUERY_CLIENTS)
        period = QUERY_CLIENTS / QUERY_RATE
        weights = 1.0 / np.arange(1, len(pool) + 1)
        draws = rng.choice(len(pool), size=(QUERY_CLIENTS, per_client),
                           p=weights / weights.sum())
        probes_open = [list(enumerate(pool[k] for k in row)) for row in draws]
        cpu = time.process_time()
        origin = time.perf_counter() + 0.02
        open_samples = run_threads([
            (lambda c=c: run_schedule(
                sender(c), probes_open[c],
                [origin + c / QUERY_RATE + k * period for k in range(per_client)]))
            for c in range(QUERY_CLIENTS)])
        open_wall = time.perf_counter() - origin

        # Phase B: closed loop, one outstanding query per client, each client
        # cycling through its share of the pool.
        probes_closed = [list(enumerate(pool[c::QUERY_CLIENTS], start=per_client))
                         for c in range(QUERY_CLIENTS)]
        closed_started = time.perf_counter()
        deadline = closed_started + (seconds - open_s)
        closed_samples = run_threads([
            (lambda c=c: run_closed(sender(c), probes_closed[c], deadline))
            for c in range(QUERY_CLIENTS)])
        closed_wall = time.perf_counter() - closed_started
        cpu = time.process_time() - cpu

        open_all = _merge(open_samples)
        closed_all = _merge(closed_samples)
        sent = ([probe for client in probes_open for _, probe in client]
                + [client[k % len(client)][1]
                   for client, samples in zip(probes_closed, closed_samples)
                   for k in range(len(samples.results))])
        results = open_all.results + closed_all.results
        failed, repeat_ok, top1 = self._judge(sent, results)
        cache_after = cache.stats()
        lookups = sum(cache_after[k] - cache_before[k] for k in ("hits", "misses"))
        coalescer = service.coalescer.stats()
        batches = coalescer["batches"] - coalescer_before["batches"]
        degraded = service.stats()["service"]["degraded_queries"] - degraded_before
        latency_p50_ms = percentile(open_all.latencies, 50.0) * 1e3
        lag_p95_ms = percentile(open_all.lags, 95.0) * 1e3
        point = tail_point(len(open_all.latencies)) or 95.0
        notes = [
            f"open loop: {QUERY_RATE:g} q/s for {open_wall:.1f}s n={len(open_all.latencies)} "
            f"p50={latency_p50_ms:.3f}ms "
            f"p{point:g}={percentile(open_all.latencies, point) * 1e3:.3f}ms "
            f"generator lag p95={lag_p95_ms:.3f}ms",
            f"closed loop: {QUERY_CLIENTS} clients for {closed_wall:.1f}s "
            f"n={len(closed_all.latencies)} over a pool of {len(pool)}"]
        if lag_p95_ms > 2.0:
            notes.append("INVALID: generator lag p95 above 2 ms - more than 5 % of "
                         "arrivals left late, the open-loop latencies understate load")
        return Measurement(
            ops=len(results), failed=failed, wall_s=open_wall + closed_wall,
            busy_s=sum(open_all.service) + sum(closed_all.service), cpu_s=cpu,
            ops_per_s=len(closed_all.results) / closed_wall,
            latency_p50_ms=latency_p50_ms,
            quality=sum(top1.values()) / len(pool),
            checks={"no_degraded_answers": degraded == 0,
                    "repeated_probes_identical": repeat_ok,
                    "every_pool_probe_answered": len(top1) == len(pool)},
            detail={
                "serve.service.latency_p95_ms": percentile(open_all.latencies, 95.0) * 1e3,
                "serve.service.gen_lag_p95_ms": lag_p95_ms,
                "features.cache.hit_ratio": ((cache_after["hits"] - cache_before["hits"])
                                             / lookups if lookups else 0.0),
                "features.cache.evictions": float(cache_after["evictions"]
                                                  - cache_before["evictions"]),
                "serve.coalescer.batches": batches,
                "serve.coalescer.mean_batch_pairs": (
                    (coalescer["pairs_scored"] - coalescer_before["pairs_scored"])
                    / max(batches, 1)),
                "serve.coalescer.deadline_flush_share": (
                    (coalescer["deadline_flushes"] - coalescer_before["deadline_flushes"])
                    / max(batches, 1)),
                "resilience.breaker.opens": float(service.breaker.stats().get("opens", 0)),
                "resilience.breaker.degraded_queries": float(degraded),
            },
            notes=notes)

    def _judge(self, sent: Sequence[Record], results: Sequence[object]
               ) -> Tuple[int, bool, Dict[str, bool]]:
        """Failed ops; whether every repeated probe got the same scores; and,
        per probe record, whether its best match is a true co-referent."""
        failed = 0
        repeat_ok = True
        first_scores: Dict[str, List[float]] = {}
        top1: Dict[str, bool] = {}
        for probe, result in zip(sent, results):
            if isinstance(result, Exception) or result.degraded:
                failed += 1
                continue
            scores = [match.score for match in result.matches]
            earlier = first_scores.setdefault(probe.record_id, scores)
            if earlier is scores:
                best = result.best
                top1[probe.record_id] = bool(
                    best is not None and self.truth[best.record_id] == probe.entity_id)
            elif len(earlier) != len(scores) or not np.allclose(earlier, scores,
                                                                rtol=SCORE_RTOL, atol=0.0):
                repeat_ok = False
        return failed, repeat_ok, top1


def _merge(samples: Sequence[LoopSamples]) -> LoopSamples:
    merged = LoopSamples()
    for part in samples:
        merged.latencies.extend(part.latencies)
        merged.service.extend(part.service)
        merged.lags.extend(part.lags)
        merged.results.extend(part.results)
    return merged


WORKLOAD_CLASSES = {cls.name: cls for cls in (TrainAdapt, BatchLink, ServeIngest, ServeQuery)}
