"""Service SLO wiring: per-request recording, health(), the --health CLI."""

from __future__ import annotations

import pytest

from repro.core import AdaMELHybrid
from repro.data.records import Record
from repro.infer import BatchedPredictor
from repro.obs.slo import SLOConfig
from repro.serve import (LinkageService, ServiceConfig, replay_queries,
                         replay_upserts)
from repro.serve.__main__ import main as serve_main
from repro.serve.coalescer import RequestCoalescer


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


class TestServiceHealth:
    def test_replayed_load_reports_healthy(self, service, tiny_music_corpus):
        records = tiny_music_corpus.records
        replay_upserts(service, records)
        replay_queries(service, records, num_workers=4)
        report = service.health()
        assert report["status"] == "pass"
        assert report["uptime_seconds"] > 0.0
        by_name = {o["name"]: o for o in report["objectives"]}
        long_window = by_name["serve_query_latency"]["windows"]["600s"]
        assert long_window["total"] == float(len(records))
        assert by_name["serve_upsert_latency"]["status"] == "pass"
        assert by_name["serve_error_rate"]["windows"]["600s"]["total"] == \
            2.0 * len(records)
        # Query pairs ride the coalescer, so saturation sampled at least once.
        assert by_name["coalescer_queue_saturation"]["windows"]["600s"]["total"] > 0

    def test_health_before_any_traffic_is_no_data(self, service):
        assert service.health()["status"] == "no_data"

    def test_failed_requests_record_errors(self, service, tiny_music_corpus):
        records = tiny_music_corpus.records
        service.upsert(records[0])

        def boom(pairs):
            raise RuntimeError("scorer down")

        service.store.bind_score_fn(boom)
        # A near-duplicate probe shares the stored record's blocking buckets,
        # so both requests are forced through the (now failing) scorer.
        probe = Record(record_id="probe#health", source="unseen-source",
                       attributes=dict(records[0].attributes))
        with pytest.raises(RuntimeError):
            service.upsert(probe)
        # Queries never surface scorer failures: they fall back to the
        # index-only degraded ranking (tests/resilience covers the details).
        result = service.query(probe)
        assert result.degraded
        by_name = {o["name"]: o for o in service.health()["objectives"]}
        errors = by_name["serve_error_rate"]["windows"]["600s"]
        assert errors["total"] == 3.0
        assert errors["good"] == 2.0
        # The failed upsert never pollutes the latency samples; the degraded
        # query served an answer, so its latency counts.
        assert by_name["serve_upsert_latency"]["windows"]["600s"]["total"] == 1.0
        assert by_name["serve_query_latency"]["windows"]["600s"]["total"] == 1.0

    def test_custom_catalog_may_drop_objectives(self, predictor,
                                                tiny_music_corpus):
        catalog = [SLOConfig("serve_query_latency", "latency_quantile",
                             target=0.95, threshold=0.25)]
        with LinkageService(predictor, slo_objectives=catalog) as service:
            service.upsert(tiny_music_corpus.records[0])  # must not KeyError
            report = service.health()
        assert [o["name"] for o in report["objectives"]] == \
            ["serve_query_latency"]


class TestCoalescerQueueSampling:
    def test_sample_fn_sees_saturation_fraction(self):
        samples = []
        coalescer = RequestCoalescer(lambda pairs: [0.5] * len(pairs),
                                     max_batch_size=4, max_queue_size=100,
                                     queue_sample_fn=samples.append)
        with coalescer:
            coalescer.score([("a", "b"), ("c", "d")])
        assert samples
        assert all(0.0 <= sample <= 1.0 for sample in samples)
        assert samples[0] >= 2 / 100

    def test_sample_fn_is_optional(self):
        coalescer = RequestCoalescer(lambda pairs: [0.5] * len(pairs))
        with coalescer:
            assert coalescer.score([("a", "b")]) == [0.5]


class TestHealthCLI:
    @pytest.mark.slow
    def test_health_flag_prints_report_and_exits_clean(self, capsys):
        exit_code = serve_main(["--health", "--scale", "smoke",
                                "--epochs", "2", "--workers", "2"])
        out = capsys.readouterr().out
        assert exit_code in (0, 1)  # 1 only on a breached objective
        assert "service health:" in out
        assert "serve_query_latency" in out
        assert "coalescer_queue_saturation" in out

    def test_demo_and_health_are_mutually_exclusive(self, capsys):
        assert serve_main(["--demo", "--health"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
