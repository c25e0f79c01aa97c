"""Tests for the candidate-generation indexes (MinHash-LSH, inverted, initials)."""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

import pytest

from repro.data.records import Record
from repro.pipeline import (
    CandidateGenerationStage,
    IndexModeError,
    InitialsKeyIndex,
    InvertedTokenIndex,
    MinHashLSHIndex,
    ground_truth_pairs,
)
from repro.text.tokenizer import text_table, tokenize

from blocking_oracle import bulk_buckets, dict_walk_pairs


# One index of each kind with a cap small enough for the tiny corpus to overflow.
SMALL_CAP_INDEXES = pytest.mark.parametrize("make_index", [
    lambda: InvertedTokenIndex(min_token_length=3, max_postings=3),
    lambda: MinHashLSHIndex(num_perm=32, bands=8, max_bucket_size=3, seed=7),
    lambda: InitialsKeyIndex(max_bucket_size=3),
], ids=["inverted", "minhash", "initials"])


def _record(record_id, source, name, extra=""):
    return Record(record_id=record_id, source=source,
                  attributes={"name": name, "notes": extra})


def _id_pairs(index, cross_source_only=False):
    ids = index.record_ids
    left, right = index.candidate_pairs(cross_source_only=cross_source_only)
    return {tuple(sorted((ids[lo], ids[hi])))
            for lo, hi in zip(left.tolist(), right.tolist())}


class TestRecordTokens:
    def test_filters_short_tokens_and_sorts(self):
        record = _record("r1", "s1", "Neil Diamond in NY")
        index = InvertedTokenIndex(min_token_length=3)
        assert index.bucket_keys(record) == ["diamond", "neil"]

    def test_respects_attribute_selection(self):
        record = _record("r1", "s1", "Neil Diamond", extra="remastered")
        index = InvertedTokenIndex(attributes=["notes"], min_token_length=2)
        assert index.bucket_keys(record) == ["remastered"]


class TestInvertedTokenIndex:
    def test_shared_token_pairs(self):
        index = InvertedTokenIndex()
        index.add_records([
            _record("a", "s1", "neil diamond"),
            _record("b", "s2", "neil young"),
            _record("c", "s3", "aretha franklin"),
        ])
        assert _id_pairs(index) == {("a", "b")}

    def test_cross_source_only_drops_same_source(self):
        index = InvertedTokenIndex()
        index.add_records([
            _record("a", "s1", "neil diamond"),
            _record("b", "s1", "neil young"),
        ])
        assert _id_pairs(index, cross_source_only=True) == set()
        assert _id_pairs(index) == {("a", "b")}

    def test_stop_word_postings_emit_no_pairs(self):
        index = InvertedTokenIndex(max_postings=3)
        index.add_records([_record(f"r{i}", f"s{i}", "common stopword") for i in range(6)])
        assert _id_pairs(index) == set()
        assert index.stats()["overflowed_tokens"] == 2

    def test_degenerate_max_postings_rejected(self):
        # A cap below two would skip every block: refused, not silently empty.
        with pytest.raises(ValueError):
            InvertedTokenIndex(["name"], max_postings=1)

    def test_min_token_length_zero_still_works(self):
        # 0 means "keep every token", identical to 1.
        index = InvertedTokenIndex(["name"], min_token_length=0)
        index.add_records([_record("a", "s1", "x y"), _record("b", "s2", "x z")])
        assert _id_pairs(index) == {("a", "b")}

    def test_matches_block_semantics(self, tiny_music_corpus):
        """Naive oracle: group records by token, skip blocks over the cap,
        enumerate every pair inside each remaining block."""
        records = tiny_music_corpus.records
        index = InvertedTokenIndex(["name"], max_postings=50)
        index.add_records(records)
        blocks = defaultdict(list)
        for record in records:
            for token in set(tokenize(record.value("name"))):
                if len(token) >= 3:
                    blocks[token].append(record.record_id)
        expected = {tuple(sorted(pair))
                    for block in blocks.values() if len(block) <= 50
                    for pair in combinations(block, 2)}
        assert _id_pairs(index) == expected

    def test_incremental_add_equals_bulk_build(self, tiny_music_corpus):
        records = tiny_music_corpus.records
        bulk = InvertedTokenIndex()
        bulk.add_records(records)
        incremental = InvertedTokenIndex()
        for start in range(0, len(records), 7):
            incremental.add_records(records[start:start + 7])
        assert _id_pairs(incremental) == _id_pairs(bulk)


class TestMinHashLSHIndex:
    def test_near_duplicates_collide(self):
        index = MinHashLSHIndex(num_perm=64, bands=16)
        index.add_records([
            _record("a", "s1", "the dark side of the moon remastered edition"),
            _record("b", "s2", "the dark side of the moon remastered"),
            _record("c", "s3", "completely different words entirely here"),
        ])
        pairs = _id_pairs(index)
        assert ("a", "b") in pairs
        assert ("a", "c") not in pairs and ("b", "c") not in pairs

    def test_incremental_add_equals_bulk_build(self, tiny_music_corpus):
        records = tiny_music_corpus.records
        bulk = MinHashLSHIndex(num_perm=64, bands=16)
        bulk.add_records(records)
        incremental = MinHashLSHIndex(num_perm=64, bands=16)
        for start in range(0, len(records), 5):
            incremental.add_records(records[start:start + 5])
        assert _id_pairs(incremental) == _id_pairs(bulk)

    def test_signatures_deterministic_across_instances(self, tiny_music_corpus):
        records = tiny_music_corpus.records[:10]
        first = MinHashLSHIndex(num_perm=32, bands=8).signatures(records)
        second = MinHashLSHIndex(num_perm=32, bands=8).signatures(records)
        assert (first == second).all()

    def test_empty_records_do_not_collide(self):
        index = MinHashLSHIndex(num_perm=32, bands=8)
        index.add_records([
            Record(record_id="a", source="s1", attributes={"name": ""}),
            Record(record_id="b", source="s2", attributes={"name": ""}),
        ])
        assert _id_pairs(index) == set()

    def test_overflowed_buckets_emit_no_pairs(self):
        index = MinHashLSHIndex(num_perm=32, bands=8, max_bucket_size=3)
        index.add_records([_record(f"r{i}", f"s{i}", "identical text value")
                           for i in range(6)])
        assert _id_pairs(index) == set()

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            MinHashLSHIndex(num_perm=10, bands=3)


class TestInitialsKeyIndex:
    def test_abbreviation_matches_full_form(self):
        index = InitialsKeyIndex()
        index.add_records([
            _record("a", "s1", "Elliott Bianchi"),
            _record("b", "s2", "E. B."),
            _record("c", "s3", "Quincy Zane"),
        ])
        assert _id_pairs(index) == {("a", "b")}

    def test_token_order_is_irrelevant(self):
        index = InitialsKeyIndex()
        index.add_records([
            _record("a", "s1", "B. L."),
            _record("b", "s2", "Louis Bowie"),
        ])
        assert _id_pairs(index) == {("a", "b")}

    def test_trailing_noise_is_tolerated(self):
        index = InitialsKeyIndex()
        index.add_records([
            _record("a", "s1", "F. G. musicien"),
            _record("b", "s2", "Freddie Gaye"),
        ])
        assert _id_pairs(index) == {("a", "b")}


class TestIngestOneAndProbe:
    """The single-record ingestion/probe path the online entity store uses."""

    @SMALL_CAP_INDEXES
    def test_ingest_one_matches_bulk_buckets(self, make_index, tiny_music_corpus):
        records = tiny_music_corpus.records
        bulk = make_index()
        bulk.add_records(records)
        streamed = make_index()
        for record in records:
            streamed.ingest_one(record)
        # The bulk columns hold every bucket a streamed build keeps, bucket
        # order included: a bulk build posts each record's keys in the same
        # (sorted) order as a streamed one, whatever the hash seed.
        assert list(streamed._buckets.items()) == list(bulk_buckets(bulk).items())
        assert streamed.record_ids == bulk.record_ids
        left, right = bulk.candidate_pairs(cross_source_only=True)
        assert (set(zip(left.tolist(), right.tolist()))
                == dict_walk_pairs(streamed, cross_source_only=True))

    def test_emission_support_mirrors_candidate_pairs(self, tiny_music_corpus):
        # Summing per-bucket emissions minus retractions must recover exactly
        # the live candidate pairs batch emission would produce.
        from collections import Counter

        index = InvertedTokenIndex(min_token_length=3, max_postings=3)
        support = Counter()
        for record in tiny_music_corpus.records:
            _, emitted, retracted = index.ingest_one(record)
            for left, right in emitted:
                support[tuple(sorted((left, right)))] += 1
            for members in retracted:
                for left, right in combinations(members, 2):
                    support[tuple(sorted((left, right)))] -= 1
        live = {pair for pair, count in support.items() if count > 0}
        assert live == dict_walk_pairs(index, cross_source_only=False)
        bulk = InvertedTokenIndex(min_token_length=3, max_postings=3)
        bulk.add_records(tiny_music_corpus.records)
        left, right = bulk.candidate_pairs(cross_source_only=False)
        assert live == set(zip(left.tolist(), right.tolist()))
        assert all(count >= 0 for count in support.values())

    def test_probe_is_read_only_and_finds_co_bucketed_records(self):
        index = InvertedTokenIndex(min_token_length=3, max_postings=4)
        for record in (_record("r1", "s1", "Neil Diamond"),
                       _record("r2", "s2", "neil diamond live"),
                       _record("r3", "s3", "Johnny Cash")):
            index.ingest_one(record)
        probe = _record("px", "s9", "diamond anthology")
        assert index.probe(probe) == {0, 1}
        assert len(index) == 3  # probing never registers the record

    def test_probe_skips_overflowed_buckets(self):
        index = InvertedTokenIndex(min_token_length=3, max_postings=2)
        for i in range(4):
            index.ingest_one(_record(f"r{i}", f"s{i}", "diamond"))
        assert index.probe(_record("px", "s9", "diamond")) == set()


class TestIngestionModes:
    """An index answers only on the path that filled it: bulk-built indexes
    have no buckets to read, streamed ones no posting columns."""

    @SMALL_CAP_INDEXES
    def test_bulk_index_refuses_streaming_reads(self, make_index, tiny_music_corpus):
        records = tiny_music_corpus.records
        index = make_index()
        index.add_records(records[:-1])
        keys = index.bucket_keys(records[0])  # pure: allowed on either path
        for call in (lambda: index.probe_keys(keys),
                     lambda: index.probe(records[0]),
                     lambda: index.preview_one(records[-1]),
                     lambda: index.ingest_one(records[-1]),
                     lambda: index.commit_one(records[-1], keys)):
            with pytest.raises(IndexModeError, match="this one is bulk"):
                call()
        assert len(index) == len(records) - 1  # nothing was registered

    @SMALL_CAP_INDEXES
    def test_streamed_index_refuses_bulk_calls(self, make_index, tiny_music_corpus):
        records = tiny_music_corpus.records
        index = make_index()
        index.ingest_one(records[0])
        for call in (lambda: index.add_records(records[1:3]),
                     lambda: index.candidate_pairs(cross_source_only=True)):
            with pytest.raises(IndexModeError, match="this one is streamed"):
                call()
        assert len(index) == 1


class TestKeyMemos:
    """Blocking keys come from the text table, whose generations are bounded
    and start over when full: keys do not change across a start-over."""

    @pytest.mark.parametrize("make_index", [
        lambda: MinHashLSHIndex(num_perm=32, bands=8),
        lambda: InitialsKeyIndex(),
    ], ids=["minhash", "initials"])
    def test_keys_identical_across_a_start_over(self, make_index, tiny_music_corpus,
                                                monkeypatch):
        records = tiny_music_corpus.records[:40]
        # The records keep the roomy generation's text ids: the bounded
        # index must notice they are stale, not read them.
        expected = [make_index().bucket_keys(record) for record in records]
        table = text_table()
        monkeypatch.setattr(table, "bound", 3)
        bounded = make_index()
        serials = set()
        for record, keys in zip(records, expected):
            assert bounded.bucket_keys(record) == keys
            generation = table.generation()
            assert len(generation) < 3
            serials.add(generation.serial)
        assert len(serials) >= 20  # a start-over every record or two


class TestLSHRecallVsTokenBlocker:
    def test_index_union_beats_token_blocker_at_equal_budget(self, tiny_music_corpus):
        """The index union must dominate single-attribute token blocking:
        at least as much recall from at most as many candidates."""
        records = tiny_music_corpus.records
        truth = ground_truth_pairs(records)
        assert truth

        blocker = InvertedTokenIndex(["name"], max_postings=50)
        blocker.add_records(records)
        blocker_pairs = _id_pairs(blocker, cross_source_only=True)

        stage = CandidateGenerationStage()
        stage.add_records(records)
        result = stage.generate()
        stage_pairs = {tuple(sorted((pair.left.record_id, pair.right.record_id)))
                       for pair in result.pairs}

        stage_recall = len(truth & stage_pairs) / len(truth)
        blocker_recall = len(truth & blocker_pairs) / len(truth)
        assert stage_recall >= blocker_recall
        assert stage_recall >= 0.95
