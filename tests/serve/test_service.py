"""LinkageService end-to-end, the load generator and the serve CLI."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core import AdaMELHybrid
from repro.data.records import Record
from repro.infer import BatchedPredictor
from repro.pipeline import LinkagePipeline
from repro.serve import (CoalescerClosed, EntityStore, LinkageService, LoadReport,
                         ServiceConfig, StoreConfig, replay_queries, replay_upserts)
from repro.serve.__main__ import main as serve_main
from repro.storage import SnapshotManager, Storage


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return BatchedPredictor.from_trainer(trainer)


@pytest.fixture()
def service(predictor):
    config = ServiceConfig(max_batch_size=16, top_k=3)
    with LinkageService(predictor, service_config=config) as running:
        yield running


class TestLinkageService:
    def test_upserts_then_queries_resolve_entities(self, service, tiny_music_corpus):
        records = tiny_music_corpus.records
        for record in records[:20]:
            result = service.upsert(record)
            assert result.entity_id == service.store.entity_of(record.record_id)
            assert result.seconds >= 0.0
        probe = Record(record_id="probe#svc", source="unseen-source",
                       attributes=dict(records[0].attributes))
        response = service.query(probe)
        assert len(response.matches) <= 3
        assert response.best is None or 0.0 <= response.best.score <= 1.0

    def test_concurrent_query_load_is_served_through_the_coalescer(
            self, service, tiny_music_corpus):
        records = tiny_music_corpus.records
        replay_upserts(service, records)
        report = replay_queries(service, records, num_workers=4)
        assert report.num_workers == 4
        assert report.operations == len(records)
        assert report.errors == 0
        percentiles = report.percentiles()
        assert 0.0 < percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]
        stats = service.coalescer.stats()
        assert stats["requests"] > 0
        assert stats["batches"] > 0
        # All scoring flows through the coalescer (upserts + queries), so the
        # executor can never run more fused batches than requests.  Actual
        # fusion of concurrent submitters is asserted deterministically in
        # test_coalescer.py, where the score function is gated.
        assert stats["batches"] <= stats["requests"]
        assert stats["pairs_scored"] >= stats["requests"]

    def test_service_parity_with_batch_pipeline(self, service, predictor,
                                                tiny_music_corpus):
        records = list(tiny_music_corpus.records)
        replay_upserts(service, records)
        batch = LinkagePipeline(predictor).run(records)
        assert service.store.clusters() == batch.clusters.clusters

    def test_stats_are_nested_and_numeric(self, service, tiny_music_corpus):
        service.upsert(tiny_music_corpus.records[0])
        stats = service.stats()
        assert set(stats) == {"service", "store", "coalescer", "predictor"}
        for section in stats.values():
            assert all(isinstance(value, float) for value in section.values())

    def test_serving_a_restored_store(self, predictor, tiny_music_corpus, tmp_path):
        records = tiny_music_corpus.records
        store = EntityStore(score_fn=predictor.predict_proba)
        for record in records[:15]:
            store.upsert(record)
        snapshots = SnapshotManager(tmp_path)
        snapshots.take(store.state_dict(), lsn=len(store))
        restored = EntityStore.from_state_dict(snapshots.load_latest()[1])
        with LinkageService(predictor, store=restored) as service:
            for record in records[15:30]:
                service.upsert(record)
            assert len(service.store) == 30

    def test_existing_store_and_store_config_conflict(self, predictor):
        with pytest.raises(ValueError, match="not both"):
            LinkageService(predictor, store_config=StoreConfig(),
                           store=EntityStore())


class TestLoadgen:
    def test_latency_percentiles_shape(self):
        samples = [0.001 * i for i in range(1, 101)]
        percentiles = LoadReport("query", len(samples), 1, 1.0, samples).percentiles()
        assert set(percentiles) == {"p50", "p95", "p99"}
        assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]
        assert LoadReport("query", 0, 1, 1.0).percentiles() == \
            {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_upsert_replay_reports_throughput_and_percentiles(self, service,
                                                              tiny_music_corpus):
        report = replay_upserts(service, tiny_music_corpus.records[:10])
        assert report.operations == 10
        assert report.throughput > 0.0
        percentiles = report.percentiles()
        assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]

    def test_replay_queries_rejects_bad_worker_count(self, service):
        with pytest.raises(ValueError, match="num_workers"):
            replay_queries(service, [], num_workers=0)


class TestServeCLI:
    def test_no_demo_flag_prints_help(self, capsys):
        assert serve_main([]) == 2
        assert "--demo" in capsys.readouterr().out

    def test_snapshot_flag_is_gone_not_a_prefix_of_snapshot_every(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            serve_main(["--demo", "--snapshot", "5"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --snapshot 5" in capsys.readouterr().err

    @pytest.mark.slow
    def test_demo_streams_and_passes_parity(self, capsys):
        exit_code = serve_main(["--demo", "--scale", "smoke", "--epochs", "3",
                                "--queries", "30", "--workers", "4"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "parity OK" in output
        assert "query latency" in output


class TestServiceLifecycle:
    @staticmethod
    def _near_duplicate(record, record_id):
        # Same attributes from an unseen source: shares the stored record's
        # blocking buckets, so upserting it must score at least one pair.
        return Record(record_id=record_id, source="unseen-source",
                      attributes=dict(record.attributes))

    @pytest.mark.parametrize("durable", [False, True], ids=["plain", "storage"])
    def test_stopped_service_is_freed_without_the_cycle_collector(
            self, predictor, tiny_music_corpus, tmp_path, durable):
        # start() hands bound methods of the service to the store, the
        # coalescer and the storage engine — reference cycles that stop()
        # must undo, or the service (and in the e2e benchmark the previous
        # set-up's predictor and trainer) lives until a generation-2 pass.
        storage = Storage(tmp_path / "data") if durable else None
        service = LinkageService(predictor, storage=storage).start()
        for record in tiny_music_corpus.records[:8]:
            service.upsert(record)
        service.query(tiny_music_corpus.records[0])
        service.stop()
        if storage is not None:
            storage.close()
        gc.collect()
        gc.disable()
        try:
            del service, storage
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_start_after_stop_serves_again(self, predictor, tiny_music_corpus):
        records = tiny_music_corpus.records
        service = LinkageService(predictor)
        with service:
            service.upsert(records[0])  # first record: nothing to score yet
        with service:
            service.upsert(self._near_duplicate(records[0], "again#1"))
            assert not service.query(records[0]).degraded
            # Both went through the coalescer, and its queue-saturation
            # samples reach the SLO monitor again.
            assert service.coalescer.stats()["requests"] == 2.0
            by_name = {o["name"]: o for o in service.health()["objectives"]}
            saturation = by_name["coalescer_queue_saturation"]["windows"]["600s"]
            assert saturation["total"] == 2

    def test_requests_to_a_stopped_service_fail_as_closed(self, predictor,
                                                          tiny_music_corpus):
        records = tiny_music_corpus.records
        service = LinkageService(predictor)
        probe = self._near_duplicate(records[0], "closed#1")
        with service:
            service.upsert(records[0])
        for _ in range(service.config.breaker_failure_threshold + 1):
            # Not "no score_fn (restored read-only?)", and never CircuitOpen:
            # a stopped service is closed, not failing.
            with pytest.raises(CoalescerClosed):
                service.upsert(probe)
        assert "closed#1" not in service.store
        assert service.query(probe).degraded  # queries still answer
        with service:
            assert service.upsert(probe).entity_id
