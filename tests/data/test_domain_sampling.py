"""Tests for domains, scenarios, sampling, splits and storage."""

import gc

import numpy as np
import pytest

from repro.data import (
    EntityPair,
    MELScenario,
    PairCollection,
    Record,
    SourceDomain,
    SupportSet,
    TargetDomain,
    read_pair_labels_csv,
    read_pairs_jsonl,
    read_records_csv,
    sample_balanced,
    sample_support_set,
    shuffled_batches,
    stratified_split,
    write_pair_labels_csv,
    write_pairs_jsonl,
    write_records_csv,
)


def _make_pair(i: int, label, source_left="s1", source_right="s2") -> EntityPair:
    left = Record(record_id=f"l{i}", source=source_left,
                  attributes={"title": f"song {i}", "artist": "Neil Diamond"}, entity_id=f"e{i}")
    right = Record(record_id=f"r{i}", source=source_right,
                   attributes={"title": f"song {i}", "artist": "N. D."}, entity_id=f"e{i}")
    return EntityPair(left=left, right=right, label=label)


@pytest.fixture
def labeled_pairs():
    return [_make_pair(i, label=i % 2) for i in range(20)]


class TestPairCollections:
    def test_positive_rate(self, labeled_pairs):
        collection = PairCollection(labeled_pairs)
        assert collection.positive_rate() == pytest.approx(0.5)

    def test_source_domain_requires_labels(self, labeled_pairs):
        with pytest.raises(ValueError):
            SourceDomain(labeled_pairs + [_make_pair(99, None)])

    def test_target_domain_strips_labels(self, labeled_pairs):
        target = TargetDomain(labeled_pairs)
        assert all(pair.label is None for pair in target)

    def test_support_set_requires_labels(self):
        with pytest.raises(ValueError):
            SupportSet([_make_pair(0, None)])

    def test_filter_sources_modes(self, labeled_pairs):
        mixed = labeled_pairs + [_make_pair(100, 1, "s3", "s4")]
        collection = PairCollection(mixed)
        assert len(collection.filter_sources(["s3"], mode="any")) == 1
        assert len(collection.filter_sources(["s1", "s2"], mode="all")) == 20

    def test_summary_keys(self, labeled_pairs):
        summary = PairCollection(labeled_pairs).summary()
        assert {"num_pairs", "positive_rate", "num_sources"} <= set(summary)


class TestMELScenario:
    def test_scenario_sources(self, music_scenario):
        assert music_scenario.seen_sources == frozenset({"website_1", "website_2", "website_3"})
        assert music_scenario.unseen_sources
        assert music_scenario.unseen_sources.isdisjoint(music_scenario.seen_sources)

    def test_scenario_alignment(self, music_scenario):
        schema = music_scenario.aligned_schema()
        for pair in list(music_scenario.source)[:5]:
            assert set(pair.left.attribute_names()) == set(schema)

    def test_align_is_memoised_without_a_reference_cycle(self, labeled_pairs):
        scenario = MELScenario(source=SourceDomain(labeled_pairs),
                               target=TargetDomain(labeled_pairs),
                               test=PairCollection(labeled_pairs))
        aligned = scenario.align()
        assert scenario.align() is aligned and aligned.align() is aligned
        # A dropped scenario must go by reference counting: its records and
        # pairs would otherwise sit in memory until a generation-2 pass.
        gc.collect()
        gc.disable()
        try:
            del scenario, aligned
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_scenario_requires_source_and_test(self, labeled_pairs):
        with pytest.raises(ValueError):
            MELScenario(source=SourceDomain(labeled_pairs), target=TargetDomain(labeled_pairs),
                        test=PairCollection([]))

    def test_target_domain_unlabeled_in_scenario(self, music_scenario):
        assert all(pair.label is None for pair in music_scenario.target)

    def test_summary(self, music_scenario):
        summary = music_scenario.summary()
        assert summary["train"] == len(music_scenario.source)
        assert summary["test"] == len(music_scenario.test)


class TestSampling:
    def test_batch_sampler_covers_everything(self):
        batches = list(shuffled_batches(23, batch_size=5, seed=1))
        seen = np.concatenate(batches)
        assert sorted(seen.tolist()) == list(range(23))
        assert [len(batch) for batch in batches] == [5, 5, 5, 5, 3]

    def test_batch_sampler_deterministic_given_seed(self):
        batches_a = [b.tolist() for b in shuffled_batches(10, 3, seed=7)]
        batches_b = [b.tolist() for b in shuffled_batches(10, 3, seed=7)]
        assert batches_a == batches_b

    def test_batch_sampler_first_epoch_matches_legacy_order(self):
        """The order is a fresh generator seeded directly shuffling arange(n),
        which keeps every training trace stable."""
        legacy_rng = np.random.default_rng(9)
        expected = np.arange(12)
        legacy_rng.shuffle(expected)
        assert next(shuffled_batches(12, batch_size=12, seed=9)).tolist() == expected.tolist()

    def test_batch_sampler_rejects_empty_input(self):
        with pytest.raises(ValueError, match="num_items"):
            next(shuffled_batches(0, batch_size=4, seed=0))

    def test_sample_balanced_counts(self, labeled_pairs):
        sampled = sample_balanced(labeled_pairs, num_positive=3, num_negative=3, seed=0)
        labels = [pair.label for pair in sampled]
        assert labels.count(1) == 3 and labels.count(0) == 3

    def test_sample_support_set_size_and_balance(self, labeled_pairs):
        support = sample_support_set(labeled_pairs, size=10, seed=0)
        assert len(support) == 10
        labels = [pair.label for pair in support]
        assert abs(labels.count(1) - labels.count(0)) <= 2

    def test_sample_support_set_empty_inputs(self):
        assert sample_support_set([], size=10) == []
        assert sample_support_set([_make_pair(0, 1)], size=0) == []


class TestSplits:
    def test_stratified_split_preserves_ratio(self, labeled_pairs):
        train, test = stratified_split(labeled_pairs, test_fraction=0.3, seed=0)
        train_rate = np.mean([pair.label for pair in train])
        assert train_rate == pytest.approx(0.5, abs=0.1)

    def test_invalid_fraction(self, labeled_pairs):
        with pytest.raises(ValueError):
            stratified_split(labeled_pairs, test_fraction=1.5)


class TestStorage:
    def test_records_csv_roundtrip(self, tmp_path, tiny_music_corpus):
        records = tiny_music_corpus.records[:10]
        path = write_records_csv(records, tmp_path / "records.csv")
        loaded = read_records_csv(path)
        assert loaded == records

    def test_pairs_jsonl_roundtrip(self, tmp_path, tiny_music_corpus):
        pairs = tiny_music_corpus.pairs[:10]
        path = write_pairs_jsonl(pairs, tmp_path / "pairs.jsonl")
        loaded = read_pairs_jsonl(path)
        assert loaded == pairs

    def test_pair_labels_csv_roundtrip(self, tmp_path, tiny_music_corpus):
        pairs = tiny_music_corpus.pairs[:10]
        records = tiny_music_corpus.records
        path = write_pair_labels_csv(pairs, tmp_path / "labels.csv")
        loaded = read_pair_labels_csv(path, records)
        assert [(p.left.record_id, p.right.record_id, p.label) for p in loaded] == \
               [(p.left.record_id, p.right.record_id, p.label) for p in pairs]

    def test_pair_labels_unknown_record(self, tmp_path, tiny_music_corpus):
        pairs = tiny_music_corpus.pairs[:3]
        path = write_pair_labels_csv(pairs, tmp_path / "labels.csv")
        with pytest.raises(KeyError):
            read_pair_labels_csv(path, records=[])

    def test_iter_records_csv_streams_lazily(self, tmp_path, tiny_music_corpus):
        from repro.data import iter_records_csv

        records = tiny_music_corpus.records[:10]
        path = write_records_csv(records, tmp_path / "records.csv")
        stream = iter_records_csv(path)
        assert iter(stream) is stream  # a generator, not a materialised list
        assert next(stream) == records[0]
        assert list(stream) == records[1:]

    def test_iter_pairs_jsonl_streams_lazily(self, tmp_path, tiny_music_corpus):
        from repro.data import iter_pairs_jsonl

        pairs = tiny_music_corpus.pairs[:10]
        path = write_pairs_jsonl(pairs, tmp_path / "pairs.jsonl")
        stream = iter_pairs_jsonl(path)
        assert iter(stream) is stream
        assert list(stream) == pairs
