"""Telemetry wired through the real hot paths: pipeline, serve, training.

These tests run the actual subsystems inside ``obs.telemetry()`` and assert
on what lands in the registry/collector — including the acceptance property
that a pipeline run's stage spans sum to its wall clock, the repo-wide
metric naming lint, and the bit-identical ``TrainingHistory`` migration.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import AdaMELHybrid
from repro.features.cache import EncodingCache
from repro.infer import BatchedPredictor
from repro.obs.metrics import valid_metric_name
from repro.pipeline import LinkagePipeline
from repro.serve import LinkageService, ServiceConfig, replay_upserts


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return BatchedPredictor.from_trainer(trainer)


def _snapshot_by_name(registry):
    by_name = {}
    for entry in registry.snapshot():
        by_name.setdefault(entry["name"], []).append(entry)
    return by_name


class TestPipelineInstrumentation:
    def test_run_records_counters_histograms_and_a_trace_tree(
            self, predictor, tiny_music_corpus):
        records = tiny_music_corpus.records
        with obs.telemetry() as session:
            result = LinkagePipeline(predictor).run(records)
        by_name = _snapshot_by_name(session.registry)
        assert by_name["pipeline_runs_total"][0]["value"] == 1.0
        assert by_name["pipeline_records_total"][0]["value"] == len(records)
        assert (by_name["pipeline_candidates_total"][0]["value"]
                == len(result.candidates.pairs))
        stage_labels = {entry["labels"]["stage"]
                        for entry in by_name["pipeline_stage_seconds"]}
        assert stage_labels == {"ingest", "block", "pair", "score", "cluster"}
        # Every blocking index reports a Gini gauge and hottest buckets.
        gini_indexes = {entry["labels"]["index"]
                        for entry in by_name["index_bucket_gini_ratio"]}
        assert len(gini_indexes) >= 2
        assert all(0.0 <= entry["value"] < 1.0
                   for entry in by_name["index_bucket_gini_ratio"])
        assert "index_hot_bucket_records" in by_name
        # Scoring flowed through the instrumented predictor.
        assert (by_name["infer_requests_total"][0]["value"]
                == len(result.candidates.pairs))
        assert by_name["infer_batches_total"][0]["value"] >= 1.0

    def test_stage_spans_sum_to_the_run_wall_clock(self, predictor,
                                                   tiny_music_corpus):
        # Acceptance: the trace tree accounts for the run — child spans sum
        # to the root span, and the root matches the stage_seconds total.
        with obs.telemetry() as session:
            result = LinkagePipeline(predictor).run(tiny_music_corpus.records)
        root = next(span for span in session.collector.roots()
                    if span.name == "pipeline.run")
        child_sum = sum(child.seconds for child in root.children)
        tolerance = 0.15 * root.seconds + 0.05
        assert abs(root.seconds - child_sum) <= tolerance
        assert abs(root.seconds - sum(result.stage_seconds.values())) <= tolerance
        assert {child.name for child in root.children} == {
            "ingest", "block", "pair", "score", "cluster"}

    def test_disabled_run_records_nothing(self, predictor, tiny_music_corpus):
        assert not obs.enabled()
        LinkagePipeline(predictor).run(tiny_music_corpus.records)
        with obs.telemetry() as session:
            pass  # nothing recorded into this fresh session by the prior run
        assert session.registry.snapshot() == []
        assert session.collector.roots() == []


class TestServeInstrumentation:
    def test_service_traffic_lands_in_store_and_coalescer_metrics(
            self, predictor, tiny_music_corpus):
        records = tiny_music_corpus.records[:30]
        config = ServiceConfig(max_batch_size=16, top_k=3)
        with obs.telemetry() as session:
            with LinkageService(predictor, service_config=config) as service:
                replay_upserts(service, records)
                for record in records[:5]:
                    service.query(record)
                legacy = service.coalescer.stats()
        by_name = _snapshot_by_name(session.registry)
        assert by_name["store_upserts_total"][0]["value"] == len(records)
        assert by_name["store_queries_total"][0]["value"] == 5.0
        assert by_name["store_upsert_seconds"][0]["count"] == len(records)
        assert by_name["store_query_seconds"][0]["count"] == 5.0
        # Obs counters agree with the coalescer's legacy stats dict.
        assert (by_name["coalescer_requests_total"][0]["value"]
                == legacy["requests"])
        flushes = {entry["labels"]["reason"]: entry["value"]
                   for entry in by_name.get("coalescer_flushes_total", [])}
        assert sum(flushes.values()) == legacy["batches"]
        assert by_name["coalescer_batch_pairs"][0]["count"] == legacy["batches"]
        assert by_name["coalescer_wait_seconds"][0]["count"] == legacy["requests"]
        # Spans: one root per serve request.
        roots = [span.name for span in session.collector.roots()]
        assert roots.count("serve.upsert") == len(records)
        assert roots.count("serve.query") == 5

    def test_store_resolution_counters(self, predictor, tiny_music_corpus):
        records = tiny_music_corpus.records[:20]
        with obs.telemetry() as session:
            with LinkageService(predictor,
                                service_config=ServiceConfig(
                                    max_batch_size=16)) as service:
                replay_upserts(service, records)
                store_stats = service.store.stats()
        by_name = _snapshot_by_name(session.registry)
        assert (by_name["store_pairs_scored_total"][0]["value"]
                == store_stats["pairs_scored"])
        assert (by_name.get("store_resolutions_total",
                            [{"value": 0.0}])[0]["value"]
                == store_stats.get("resolutions", 0.0))
        assert (by_name.get("store_edges_rescanned_total",
                            [{"value": 0.0}])[0]["value"]
                == store_stats["edges_rescanned"])


class TestCacheInstrumentation:
    @staticmethod
    def _fetch(cache, *keys):
        """Fetch slot rows of ``keys``: (1, 3) features + (1,) mask, 32 bytes each."""
        import numpy as np

        return cache.fetch(("enc", 0), list(keys),
                           lambda positions: (np.ones((len(positions), 1, 3)),
                                              np.ones((len(positions), 1))))

    def test_lookup_counts_is_an_atomic_pair_read(self):
        cache = EncodingCache()
        self._fetch(cache, "a")
        assert cache.lookup_counts() == (0, 1)
        self._fetch(cache, "a", "b")
        assert cache.lookup_counts() == (1, 2)
        assert cache.hit_rate() == pytest.approx(1 / 3)

    def test_cache_counters_route_through_obs(self):
        with obs.telemetry() as session:
            cache = EncodingCache(max_bytes=64)  # room for two slot rows
            self._fetch(cache, "a", "b")
            self._fetch(cache, "a", "missing")  # the arena is full: it starts over
        by_name = _snapshot_by_name(session.registry)
        assert by_name["cache_hits_total"][0]["value"] == 1.0
        assert by_name["cache_misses_total"][0]["value"] == 3.0
        assert by_name["cache_evictions_total"][0]["value"] == 2.0
        assert by_name["cache_entries_count"][0]["value"] == 1.0
        assert by_name["cache_size_bytes"][0]["value"] == 32.0


class TestTrainingInstrumentation:
    def test_step_seconds_bit_identical_to_history(self, music_scenario,
                                                   fast_config):
        # The migration contract: the histogram and TrainingHistory see the
        # SAME per-step floats, so their reductions agree exactly — not
        # approximately.
        config = fast_config.with_updates(profile_steps=True)
        with obs.telemetry() as session:
            history = AdaMELHybrid(config).fit(music_scenario)
        by_name = _snapshot_by_name(session.registry)
        step = by_name["training_step_seconds"][0]
        assert step["count"] == len(history.step_seconds)
        assert step["sum"] == sum(history.step_seconds)
        assert by_name["training_steps_total"][0]["value"] == len(
            history.step_seconds)
        gauge = by_name["training_encoder_cache_hit_ratio"][0]
        assert gauge["value"] == history.encoder_cache_hit_rate

    def test_epoch_histogram_and_trace_per_epoch(self, music_scenario,
                                                 fast_config):
        with obs.telemetry() as session:
            AdaMELHybrid(fast_config).fit(music_scenario)
        by_name = _snapshot_by_name(session.registry)
        assert by_name["training_epochs_total"][0]["value"] == fast_config.epochs
        assert by_name["training_epoch_seconds"][0]["count"] == fast_config.epochs
        assert by_name["training_tape_forward_ops"][0]["value"] >= 0.0
        epochs = [span for span in session.collector.roots()
                  if span.name == "train.epoch"]
        assert len(epochs) == fast_config.epochs
        assert epochs[0].attributes["epoch"] == 0

    def test_history_unchanged_when_disabled(self, music_scenario, fast_config):
        # The regression lock: telemetry off must leave TrainingHistory
        # exactly as before the migration (profiling still works).
        config = fast_config.with_updates(profile_steps=True)
        baseline = AdaMELHybrid(config).fit(music_scenario)
        with obs.telemetry():
            enabled = AdaMELHybrid(config).fit(music_scenario)
        assert baseline.total_loss == enabled.total_loss
        assert len(baseline.step_seconds) == len(enabled.step_seconds)
        assert baseline.encoder_cache_hit_rate == enabled.encoder_cache_hit_rate


class TestNamingLint:
    def test_every_emitted_metric_follows_the_convention(
            self, predictor, music_scenario, fast_config, tiny_music_corpus):
        # Exercise training + pipeline + serve in one session, then lint
        # every family name that landed in the registry.
        with obs.telemetry() as session:
            AdaMELHybrid(fast_config.with_updates(profile_steps=True)).fit(
                music_scenario)
            LinkagePipeline(predictor).run(tiny_music_corpus.records)
            with LinkageService(predictor,
                                service_config=ServiceConfig(
                                    max_batch_size=16)) as service:
                replay_upserts(service, tiny_music_corpus.records[:10])
                service.query(tiny_music_corpus.records[0])
        names = session.registry.names()
        assert len(names) >= 25  # the catalog actually got exercised
        offenders = [name for name in names if not valid_metric_name(name)]
        assert offenders == []
