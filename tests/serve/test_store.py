"""EntityStore: incremental-vs-batch parity, persistence, online queries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AdaMELHybrid
from repro.data.records import Record
from repro.infer import BatchedPredictor
from repro.pipeline import LinkagePipeline
from repro.serve import EntityStore, StoreConfig
from repro.storage import SnapshotManager
from repro.text import jaccard_similarity

from pipeline.blocking_oracle import store_buckets
from resolve_oracle import match_edges, resolve_from_singletons


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return BatchedPredictor.from_trainer(trainer)


@pytest.fixture(scope="module")
def streamed_store(predictor, tiny_music_corpus):
    store = EntityStore(score_fn=predictor.predict_proba)
    for record in tiny_music_corpus.records:
        store.upsert(record)
    return store


@pytest.fixture(scope="module")
def batch_result(predictor, tiny_music_corpus):
    return LinkagePipeline(predictor).run(tiny_music_corpus.records)


class TestBatchParity:
    def test_streaming_upserts_match_batch_pipeline(self, streamed_store, batch_result):
        assert streamed_store.clusters() == batch_result.clusters.clusters

    def test_parity_holds_for_shuffled_input_order(self, predictor, tiny_music_corpus):
        records = list(tiny_music_corpus.records)
        np.random.default_rng(19).shuffle(records)
        store = EntityStore(score_fn=predictor.predict_proba)
        for record in records:
            store.upsert(record)
        batch = LinkagePipeline(predictor).run(records)
        assert store.clusters() == batch.clusters.clusters

    def test_parity_survives_bucket_overflow_retraction(self, predictor,
                                                        tiny_music_corpus):
        # Tight caps force buckets to overflow mid-stream, so candidate pairs
        # emitted early must be retracted exactly as batch blocking would
        # never have emitted them.
        config = StoreConfig(lsh_max_bucket_size=2, max_postings=2,
                             initials_max_bucket_size=2)
        store = EntityStore(score_fn=predictor.predict_proba, config=config)
        for record in tiny_music_corpus.records:
            store.upsert(record)
        assert store.counters.pairs_retracted > 0  # the regime is exercised
        batch = LinkagePipeline(
            predictor, config=config.to_pipeline_config()).run(tiny_music_corpus.records)
        assert store.clusters() == batch.clusters.clusters

    def test_every_record_in_exactly_one_entity(self, streamed_store, tiny_music_corpus):
        clustered = [record_id for members in streamed_store.clusters()
                     for record_id in members]
        assert sorted(clustered) == sorted(
            record.record_id for record in tiny_music_corpus.records)


class TestUpsertSemantics:
    def test_upsert_returns_stable_entity_membership(self, streamed_store,
                                                     tiny_music_corpus):
        record = tiny_music_corpus.records[0]
        entity_id = streamed_store.entity_of(record.record_id)
        assert record.record_id in streamed_store.entity_members(entity_id)

    def test_identical_reupsert_is_idempotent(self, predictor, tiny_music_corpus):
        store = EntityStore(score_fn=predictor.predict_proba)
        first = store.upsert(tiny_music_corpus.records[0])
        before = store.stats()
        assert store.upsert(tiny_music_corpus.records[0]) == first
        assert store.stats() == before

    def test_conflicting_content_is_rejected(self, predictor, tiny_music_corpus):
        store = EntityStore(score_fn=predictor.predict_proba)
        record = tiny_music_corpus.records[0]
        store.upsert(record)
        changed = Record(record_id=record.record_id, source=record.source,
                         attributes={**dict(record.attributes), "name": "someone else"})
        with pytest.raises(ValueError, match="append-only"):
            store.upsert(changed)

    def test_store_without_score_fn_rejects_upsert(self, tiny_music_corpus):
        store = EntityStore()
        with pytest.raises(RuntimeError, match="score_fn"):
            store.upsert(tiny_music_corpus.records[0])

    def test_scoring_failure_leaves_store_untouched_and_is_retryable(
            self, predictor, tiny_music_corpus):
        # A scoring error (model failure, coalescer timeout/shutdown) must
        # not leave a half-ingested record behind: the same upsert retried
        # with a healthy scorer must land, with full batch parity.
        records = tiny_music_corpus.records
        store = EntityStore(score_fn=predictor.predict_proba)
        for record in records[:10]:
            store.upsert(record)
        clusters_before = store.clusters()
        stats_before = store.stats()

        def broken(pairs):
            raise TimeoutError("scoring request not completed")

        store.bind_score_fn(broken)
        with pytest.raises(TimeoutError):
            store.upsert(records[10])
        assert records[10].record_id not in store
        assert store.clusters() == clusters_before
        assert store.stats() == stats_before

        store.bind_score_fn(predictor.predict_proba)
        for record in records[10:]:
            store.upsert(record)
        batch = LinkagePipeline(predictor).run(records)
        assert store.clusters() == batch.clusters.clusters


class TestQuery:
    def test_query_finds_the_probed_entity(self, streamed_store, tiny_music_corpus):
        # Probe with a copy of a stored record from a brand-new source: its
        # own entity must rank among the matches.
        record = tiny_music_corpus.records[0]
        probe = Record(record_id="probe#query", source="unseen-source",
                       attributes=dict(record.attributes))
        matches = streamed_store.query(probe, top_k=5)
        assert matches, "probing a stored record's content found nothing"
        assert all(0.0 <= match.score <= 1.0 for match in matches)
        scores = [match.score for match in matches]
        assert scores == sorted(scores, reverse=True)
        assert streamed_store.entity_of(record.record_id) in {
            match.entity_id for match in matches}

    def test_query_does_not_mutate_the_store(self, streamed_store, tiny_music_corpus):
        clusters_before = streamed_store.clusters()
        records_before = len(streamed_store)
        probe = Record(record_id="probe#readonly", source="unseen-source",
                       attributes=dict(tiny_music_corpus.records[3].attributes))
        streamed_store.query(probe)
        assert len(streamed_store) == records_before
        assert streamed_store.clusters() == clusters_before

    def test_query_respects_top_k(self, streamed_store, tiny_music_corpus):
        probe = Record(record_id="probe#topk", source="unseen-source",
                       attributes=dict(tiny_music_corpus.records[0].attributes))
        assert len(streamed_store.query(probe, top_k=1)) <= 1
        with pytest.raises(ValueError, match="top_k"):
            streamed_store.query(probe, top_k=0)


def persist_and_load(store, directory, score_fn=None):
    """The one way a store is persisted: ``state_dict`` -> snapshot file ->
    ``from_state_dict``."""
    manager = SnapshotManager(directory)
    manager.take(store.state_dict(), lsn=len(store))
    _, payload = manager.load_latest()
    return EntityStore.from_state_dict(payload, score_fn=score_fn)


class TestSnapshotRestore:
    def test_round_trip_is_bit_exact(self, streamed_store, tmp_path):
        restored = persist_and_load(streamed_store, tmp_path)
        assert restored.clusters() == streamed_store.clusters()
        assert restored.entities() == streamed_store.entities()
        # Internal candidate state is reproduced exactly, not just clusters.
        assert restored._support == streamed_store._support
        assert restored._scores == streamed_store._scores
        assert store_buckets(restored) == store_buckets(streamed_store)

    def test_restored_store_is_read_only_until_bound(self, streamed_store,
                                                     predictor, tiny_music_corpus,
                                                     tmp_path):
        restored = persist_and_load(streamed_store, tmp_path)
        probe = tiny_music_corpus.records[0]
        with pytest.raises(RuntimeError, match="score_fn"):
            restored.query(probe)
        restored.bind_score_fn(predictor.predict_proba)
        assert restored.upsert(probe) == streamed_store.entity_of(probe.record_id)

    def test_restore_continues_streaming_with_parity(self, predictor,
                                                     tiny_music_corpus, tmp_path):
        records = list(tiny_music_corpus.records)
        half = len(records) // 2
        store = EntityStore(score_fn=predictor.predict_proba)
        for record in records[:half]:
            store.upsert(record)
        restored = persist_and_load(store, tmp_path, score_fn=predictor.predict_proba)
        for record in records[half:]:
            restored.upsert(record)
        batch = LinkagePipeline(predictor).run(records)
        assert restored.clusters() == batch.clusters.clusters

    def test_unknown_format_version_rejected(self, streamed_store):
        state = streamed_store.state_dict()
        state["format_version"] = 999
        with pytest.raises(ValueError, match="state version 999"):
            EntityStore.from_state_dict(state)


class TestStateDict:
    def test_round_trip_rebuilds_entities_and_merge_logs(self, streamed_store):
        restored = EntityStore.from_state_dict(streamed_store.state_dict())
        assert restored.state_dict() == streamed_store.state_dict()
        assert store_buckets(restored) == store_buckets(streamed_store)
        assert restored.clusters() == streamed_store.clusters()
        assert restored._clusters.merge_logs == streamed_store._clusters.merge_logs

    def test_members_contradicting_the_match_edges_are_rejected(self, streamed_store):
        state = streamed_store.state_dict()
        members = state["members"]
        donor = next(entity_id for entity_id in sorted(members)
                     if len(members[entity_id]) > 1)
        taker = next(entity_id for entity_id in sorted(members) if entity_id != donor)
        members[taker].append(members[donor].pop())
        with pytest.raises(ValueError, match=min(donor, taker)):
            EntityStore.from_state_dict(state)

    def test_counters_absent_from_older_state_dicts_start_at_zero(self, streamed_store):
        state = streamed_store.state_dict()
        assert state["counters"].pop("edges_rescanned") > 0
        state["counters"]["counter_from_the_future"] = 7   # a newer build's: dropped
        restored = EntityStore.from_state_dict(state)
        assert restored.counters.edges_rescanned == 0
        assert restored.counters.upserts == streamed_store.counters.upserts
        assert not hasattr(restored.counters, "counter_from_the_future")


class TestMatchGraphBookkeeping:
    def test_retractions_leave_no_dead_nodes_and_the_edge_count_is_kept(
            self, predictor, tiny_music_corpus):
        config = StoreConfig(lsh_max_bucket_size=2, max_postings=2,
                             initials_max_bucket_size=2)
        store = EntityStore(score_fn=predictor.predict_proba, config=config)
        for record in tiny_music_corpus.records:
            store.upsert(record)
            assert store.stats()["match_edges"] == len(match_edges(store))
        assert store.counters.edges_retracted > 0  # the regime is exercised
        adjacent = store._clusters._adjacent
        assert all(adjacent.values())
        assert sum(map(len, adjacent.values())) == 2 * len(match_edges(store))
        assert store.clusters() == resolve_from_singletons(store)


class TestResolutionLocality:
    """Count-based guard: the cost of an upsert follows the clusters it
    touches, not the connected component of the match graph they sit in."""

    SOURCES = 4

    def chain_stream(self, size):
        # Entity e is named "tok<e> tok<e+1>", once per source: its records
        # match each other (Jaccard 1) and those of entities e-1 and e+1
        # (Jaccard 1/3), so the whole match graph is one component in which
        # every cross-entity edge is vetoed.
        return [Record(record_id=f"s{source}#e{entity:04d}", source=f"s{source}",
                       attributes={"name": f"tok{entity:04d} tok{entity + 1:04d}"})
                for entity, source in (divmod(index, self.SOURCES)
                                       for index in range(size))]

    @staticmethod
    def name_overlap(pairs):
        return np.array([jaccard_similarity(pair.left.attributes["name"],
                                            pair.right.attributes["name"])
                         for pair in pairs])

    def test_edges_rescanned_per_upsert_do_not_grow_with_the_component(self):
        records = self.chain_stream(1000)
        store = EntityStore(score_fn=self.name_overlap,
                            config=StoreConfig(score_threshold=0.3))
        rescanned = []
        for record in records:
            before = store.stats()["edges_rescanned"]
            store.upsert(record)
            rescanned.append(store.stats()["edges_rescanned"] - before)
        assert store.clusters() == resolve_from_singletons(store)

        # The regime: one component spans the store, so a flood fill from
        # any upsert reaches (and the old re-resolve re-sorted) every edge.
        adjacent = store._clusters._adjacent
        reached, frontier = set(), [records[-1].record_id]
        while frontier:
            record_id = frontier.pop()
            if record_id not in reached:
                reached.add(record_id)
                frontier.extend(adjacent[record_id])
        assert len(reached) == len(records)
        assert store.stats()["match_edges"] > 4 * len(records)

        quartile = len(records) // 4
        first = np.mean(rescanned[:quartile])
        last = np.mean(rescanned[-quartile:])
        assert 0 < last <= 2 * first
        assert last < 0.01 * store.stats()["match_edges"]


class TestConfigBridge:
    def test_store_config_round_trips_through_pipeline_config(self):
        config = StoreConfig(blocking_attributes=["name"], num_perm=64, bands=16,
                             lsh_max_bucket_size=5, max_postings=6,
                             initials_max_bucket_size=7, min_token_length=2,
                             cross_source_only=False, score_threshold=0.7,
                             source_consistent=False, seed=11)
        # Every field has a batch-pipeline twin.
        shared = config.as_dict()
        pipeline_config = config.to_pipeline_config().as_dict()
        assert {name: pipeline_config.get(name) for name in shared} == shared

    def test_from_dict_drops_retired_backend_keys_and_rejects_unknown_ones(self):
        config = StoreConfig(max_postings=5)
        payload = dict(config.as_dict(), backend="paged", backend_path="postings.db")
        assert StoreConfig.from_dict(payload) == config
        with pytest.raises(ValueError, match="frobnicate"):
            StoreConfig.from_dict(dict(config.as_dict(), frobnicate=1))

    def test_stats_are_json_clean(self, streamed_store):
        import json
        import math

        stats = streamed_store.stats()
        assert all(math.isfinite(value) for value in stats.values())
        assert json.dumps(stats)
