"""Candidates as position columns, from blocking to clustering.

``CandidateGenerationStage.generate`` hands its pairs on as a ``PairColumns``
view over the records.  It must read as the pair list the stage built before
(``blocking_oracle.set_and_sort_generate`` is that construction), encode
and score exactly like that list — also when the text table starts over
between micro-batches — and ``LinkagePipeline.run`` / ``ShardedPipeline.run``
must build no ``EntityPair`` at all.  A view is encoded without the
``EncodingCache``: it looks up no key and stores no row, and its batch is the
one its pair list gets from a cold, a warm or no cache.  CI runs this module
under two ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AdaMELHybrid
from repro.data.records import EntityPair, PairColumns, record_id_ranks
from repro.features import EncodingCache, PairEncoder, get_default_cache
from repro.infer import BatchedPredictor
from repro.pipeline import (CandidateGenerationStage, LinkagePipeline, ShardConfig,
                            ShardedPipeline)
from repro.text.tokenizer import text_table

from blocking_oracle import set_and_sort_generate


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return BatchedPredictor.from_trainer(trainer)


@pytest.fixture(scope="module")
def candidates(tiny_music_corpus):
    stage = CandidateGenerationStage()
    stage.add_records(tiny_music_corpus.records)
    return stage.generate().pairs


def _as_list(view):
    """The pair list ``generate`` used to build from the same columns."""
    return [EntityPair(left=view.records[lo], right=view.records[hi], label=None)
            for lo, hi in zip(view.left.tolist(), view.right.tolist())]


def _assert_same_batch(from_columns, from_pairs):
    """Plan, rows, masks and labels equal bit for bit."""
    assert np.array_equal(from_columns.plan.index, from_pairs.plan.index)
    assert np.array_equal(from_columns.plan.offsets, from_pairs.plan.offsets)
    assert np.array_equal(from_columns.plan.rows, from_pairs.plan.rows)
    assert np.array_equal(from_columns.slot_mask, from_pairs.slot_mask)
    assert np.array_equal(from_columns.labels, from_pairs.labels)


class TestView:
    def test_equals_the_pair_list_construction(self, candidates, tiny_music_corpus):
        records = list(tiny_music_corpus.records)
        stage = CandidateGenerationStage()
        stage.add_records(records)
        streamed = CandidateGenerationStage()
        for record in records:
            for index in streamed.indexes:
                index.ingest_one(record)
        expected, _ = set_and_sort_generate(records, streamed.indexes,
                                            stage._index_labels(), True)
        assert isinstance(candidates, PairColumns)
        assert len(candidates) == len(expected) > 100
        assert list(candidates) == expected == _as_list(candidates)
        assert [pair.pair_id for pair in candidates] == [pair.pair_id for pair in expected]
        assert np.array_equal(candidates.rank, record_id_ranks(candidates.records)[1])

    def test_indexing_and_slicing(self, candidates):
        pairs = _as_list(candidates)
        assert candidates[0] == pairs[0] and candidates[-1] == pairs[-1]
        assert candidates[np.int64(5)] == pairs[5]
        with pytest.raises(IndexError):
            candidates[len(candidates)]
        for piece in (slice(3, 40), slice(None, None, 7), slice(-9, None), slice(50, 10)):
            view = candidates[piece]
            assert isinstance(view, PairColumns) and view.records is candidates.records
            assert list(view) == pairs[piece]
        nested = candidates[10:90][5:20:3]
        assert list(nested) == pairs[10:90][5:20:3]
        assert candidates[10:90]._text_ids is candidates._text_ids

    def test_columns_must_be_one_length(self, candidates):
        with pytest.raises(ValueError):
            PairColumns(candidates.records, [0, 1], [1])


class TestScoringFromColumns:
    def test_encode_equals_the_pair_list(self, predictor, candidates):
        encoder = predictor.encoder
        for piece in (slice(0, 1), slice(0, 256), slice(100, 357)):
            _assert_same_batch(encoder.encode(candidates[piece]),
                               encoder.encode(_as_list(candidates)[piece]))
        assert len(encoder.encode(candidates[5:5])) == 0

    @pytest.mark.parametrize("cache_state", ["cold", "warm", "off"])
    def test_a_view_encodes_as_its_pair_list_without_the_cache(self, predictor, candidates,
                                                              cache_state):
        base = predictor.encoder
        cache = EncodingCache()
        encoder = PairEncoder(base.schema, embedder=base.embedder, tokenizer=base.tokenizer,
                              feature_kinds=base.extractor.feature_kinds, cache=cache,
                              use_cache=cache_state != "off")
        view = candidates[:300]
        pairs = list(view)
        if cache_state == "warm":
            encoder.encode(pairs)
        before = (cache.lookup_counts(), cache.stats())
        from_columns = encoder.encode(view)
        assert (cache.lookup_counts(), cache.stats()) == before
        _assert_same_batch(from_columns, encoder.encode(pairs))
        # The pair list still goes through the cache when there is one.
        assert (cache.lookup_counts() != before[0]) == (cache_state != "off")

    def test_scores_hold_when_the_text_table_starts_over(self, predictor, candidates,
                                                         monkeypatch):
        small = BatchedPredictor(predictor.encoder, predictor.network, micro_batch_size=7)
        view = candidates[:120]
        expected = small.predict_proba(_as_list(view))
        table = text_table()
        serials = []
        gather = PairColumns.text_ids

        def spy(self, generation, attributes):
            serials.append(generation.serial)
            return gather(self, generation, attributes)

        monkeypatch.setattr(PairColumns, "text_ids", spy)
        monkeypatch.setattr(table, "bound", 3)
        cache = small.encoder.cache
        before = (cache.lookup_counts(), cache.stats())
        # A fresh view: nothing gathered yet, in any generation.
        fresh = PairColumns(view.records, view.left, view.right, view.rank)
        assert np.array_equal(small.predict_proba(fresh), expected)
        assert (cache.lookup_counts(), cache.stats()) == before
        # Each 7-pair encode outgrows a 3-text generation: the next one
        # starts over, and the records' matrix is gathered again in it.
        assert len(serials) == -(-len(view) // 7)
        assert len(set(serials)) == len(serials)


class TestNoPairObjects:
    """The batch path carries positions: no ``EntityPair`` is constructed in
    the process that runs it."""

    @pytest.fixture()
    def constructed(self, monkeypatch):
        count = [0]
        original = EntityPair.__post_init__

        def counting(self):
            count[0] += 1
            original(self)

        monkeypatch.setattr(EntityPair, "__post_init__", counting)
        return count

    def test_linkage_pipeline_builds_no_pair(self, predictor, tiny_music_corpus,
                                             constructed):
        result = LinkagePipeline(predictor).run(tiny_music_corpus.records)
        assert len(result.scored) > 256 and len(result.clusters.clusters) > 0
        assert constructed[0] == 0
        result.candidates.pairs[0]
        assert constructed[0] == 1  # the counter sees a pair that is built

    @pytest.mark.skipif(not ShardedPipeline.fork_available(), reason="needs fork")
    def test_sharded_pipeline_builds_no_pair_in_the_driver(self, predictor,
                                                            tiny_music_corpus, constructed):
        sized = BatchedPredictor(predictor.encoder, predictor.network, micro_batch_size=64)
        result = ShardedPipeline(sized, shards=ShardConfig(workers=2)).run(
            tiny_music_corpus.records)
        assert result.shard_report.used_processes and result.shard_report.chunks > 2
        assert result.shard_report.rescored_chunks == []
        assert constructed[0] == 0


class TestNoCacheLookups:
    """The batch path encodes its view straight through: the process-wide
    ``EncodingCache`` sees no lookup and stores no row."""

    def test_linkage_pipeline_leaves_the_cache_untouched(self, predictor, tiny_music_corpus):
        cache = get_default_cache()
        assert predictor.encoder.cache is cache
        before = (cache.lookup_counts(), cache.stats())
        result = LinkagePipeline(predictor).run(tiny_music_corpus.records)
        assert len(result.scored) > 256
        assert (cache.lookup_counts(), cache.stats()) == before
        assert set(result.scored.stats) == {"num_pairs", "micro_batch_size", "mean_score",
                                            "pairs_per_second"}

    @pytest.mark.skipif(not ShardedPipeline.fork_available(), reason="needs fork")
    def test_sharded_workers_never_fetch(self, predictor, tiny_music_corpus, monkeypatch):
        """Forked workers inherit a ``fetch`` that fails: a worker that
        consulted its copy of the cache would fail its micro-batch, and the
        driver's rescore would fail the run."""
        cache = get_default_cache()

        def refuse(self, *args, **kwargs):
            raise AssertionError("the batch path consulted the encoding cache")

        monkeypatch.setattr(EncodingCache, "fetch", refuse)
        sized = BatchedPredictor(predictor.encoder, predictor.network, micro_batch_size=64)
        before = (cache.lookup_counts(), cache.stats())
        result = ShardedPipeline(sized, shards=ShardConfig(workers=2)).run(
            tiny_music_corpus.records)
        assert result.shard_report.used_processes and result.shard_report.chunks > 2
        assert result.shard_report.rescored_chunks == []
        assert (cache.lookup_counts(), cache.stats()) == before
