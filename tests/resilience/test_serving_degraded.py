"""Graceful degradation in serving: breaker, degraded queries, deadlines."""

from __future__ import annotations

import pytest

from repro.core import AdaMELHybrid
from repro.data.records import Record
from repro.infer import BatchedPredictor
from repro.resilience import faults
from repro.resilience.breaker import CircuitBreaker, CircuitOpen
from repro.resilience.faults import FaultSpec
from repro.serve import LinkageService, ServiceConfig


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return BatchedPredictor.from_trainer(trainer)


@pytest.fixture(autouse=True)
def clean_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


@pytest.fixture()
def service(predictor):
    config = ServiceConfig(max_batch_size=16, top_k=3,
                           breaker_failure_threshold=3,
                           breaker_recovery_seconds=60.0)
    with LinkageService(predictor, service_config=config) as running:
        yield running


def _probe(record, record_id="probe#degraded"):
    """A near-duplicate that shares the stored record's blocking buckets,
    forcing the query through the scoring path."""
    return Record(record_id=record_id, source="unseen-source",
                  attributes=dict(record.attributes))


class TestDegradedQueries:
    def test_scoring_faults_degrade_queries_without_errors(
            self, service, tiny_music_corpus):
        records = tiny_music_corpus.records
        for record in records[:5]:
            service.upsert(record)
        probe = _probe(records[0])
        healthy = service.query(probe)
        assert not healthy.degraded
        with faults.plan_scope([FaultSpec(site="serve.score", kind="raise",
                                          every=1)]):
            # Three consecutive scoring failures trip the breaker; every
            # query still answers (degraded), none errors.
            results = [service.query(probe) for _ in range(3)]
            assert all(result.degraded for result in results)
            assert service.breaker.state == "open"
            # With the breaker open the scorer is no longer even consulted:
            # queries short-circuit straight to the index-only path.
            open_result = service.query(probe)
        assert open_result.degraded
        assert open_result.matches  # availability: an answer, not an error
        report = service.health()
        assert report["status"] == "breached"
        assert report["resilience"]["breaker"]["state"] == "open"
        assert report["resilience"]["degraded_queries"] == 4
        assert service.stats()["service"]["degraded_queries"] == 4.0
        # Zero errored requests: degraded answers count as served, so the
        # error-rate window records every request as good.
        by_name = {o["name"]: o for o in report["objectives"]}
        errors = by_name["serve_error_rate"]["windows"]["600s"]
        assert errors["total"] == errors["good"] > 0

    def test_degraded_answers_are_a_subset_of_healthy_candidates(
            self, service, tiny_music_corpus):
        records = tiny_music_corpus.records
        for record in records[:8]:
            service.upsert(record)
        probe = _probe(records[0])
        healthy = service.query(probe, top_k=100)
        with faults.plan_scope([FaultSpec(site="serve.score", kind="raise",
                                          every=1)]):
            degraded = service.query(probe, top_k=100)
        assert degraded.degraded
        healthy_entities = {match.entity_id for match in healthy.matches}
        degraded_entities = {match.entity_id for match in degraded.matches}
        # Same probe, same filters — degraded ranking never invents
        # candidates the scored path would not have considered.
        assert degraded_entities <= healthy_entities
        assert healthy.best.entity_id == degraded.best.entity_id
        # Degraded scores are collision counts (evidence strength), >= 1.
        assert all(match.score >= 1.0 for match in degraded.matches)

    def test_upserts_fail_fast_while_the_breaker_is_open(
            self, service, tiny_music_corpus):
        records = tiny_music_corpus.records
        service.upsert(records[0])
        service.breaker.force_open()
        with pytest.raises(CircuitOpen):
            service.upsert(_probe(records[0], "probe#upsert"))
        # Queries keep answering while upserts are refused.
        assert service.query(_probe(records[0])).degraded

    def test_breaker_recovers_through_a_half_open_probe(
            self, predictor, tiny_music_corpus):
        clock = [0.0]
        config = ServiceConfig(max_batch_size=16, breaker_failure_threshold=1)
        with LinkageService(predictor, service_config=config) as service:
            service.breaker = CircuitBreaker(failure_threshold=1,
                                             recovery_seconds=5.0,
                                             clock=lambda: clock[0])
            records = tiny_music_corpus.records
            for record in records[:3]:
                service.upsert(record)
            probe = _probe(records[0])
            with faults.plan_scope([FaultSpec(site="serve.score",
                                              kind="raise", max_triggers=1)]):
                assert service.query(probe).degraded
                assert service.breaker.state == "open"
                # Before the recovery window: still open, still degraded.
                assert service.query(probe).degraded
                clock[0] += 5.0
                # The half-open probe scores for real (fault exhausted),
                # closing the breaker: full answers resume.
                recovered = service.query(probe)
            assert not recovered.degraded
            assert service.breaker.state == "closed"


class TestDeadlinePropagation:
    def test_exhausted_query_deadline_degrades_instead_of_stalling(
            self, service, tiny_music_corpus):
        records = tiny_music_corpus.records
        for record in records[:3]:
            service.upsert(record)
        result = service.query(_probe(records[0]), timeout=0.0)
        assert result.degraded
        assert result.matches

    def test_exhausted_upsert_deadline_raises_timeout(
            self, service, tiny_music_corpus):
        records = tiny_music_corpus.records
        service.upsert(records[0])
        with pytest.raises(TimeoutError):
            service.upsert(_probe(records[0], "probe#deadline"), timeout=0.0)

    def test_generous_deadlines_do_not_change_answers(
            self, service, tiny_music_corpus):
        records = tiny_music_corpus.records
        for record in records[:3]:
            service.upsert(record)
        probe = _probe(records[0])
        unbounded = service.query(probe)
        bounded = service.query(probe, timeout=30.0)
        assert not bounded.degraded
        assert [match.entity_id for match in bounded.matches] == \
            [match.entity_id for match in unbounded.matches]
