"""ShardedPipeline is LinkagePipeline with a micro-batch scoring fan-out.

The contract: pairs, scores (``np.array_equal``), clusters, assignments,
``index_stats``, candidate stats and score stats (all but the wall-clock
``pairs_per_second``) are bit-identical to the single-process engine at every
worker count and micro-batch size.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.core import AdaMELHybrid
from repro.data.storage import write_records_csv
from repro.infer import BatchedPredictor, save_model
from repro.pipeline import (
    LinkagePipeline,
    ShardConfig,
    ShardedPipeline,
)
from repro.pipeline.__main__ import main as pipeline_main

FORK = ShardedPipeline.fork_available()


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return BatchedPredictor.from_trainer(trainer)


def _pair_keys(result):
    return [(pair.left.record_id, pair.right.record_id)
            for pair in result.scored.pairs]


def _untimed(stats):
    """A stage's stats without its wall-clock rate."""
    return {key: value for key, value in stats.items() if key != "pairs_per_second"}


def _sized(predictor, micro_batch_size):
    return BatchedPredictor(predictor.encoder, predictor.network,
                            micro_batch_size=micro_batch_size)


def _assert_parity(predictor, records, workers, micro_batch_size):
    """Run both engines over ``records``; assert bit-identity; return both."""
    predictor = _sized(predictor, micro_batch_size)
    batch = LinkagePipeline(predictor).run(list(records))
    sharded = ShardedPipeline(predictor,
                              shards=ShardConfig(workers=workers)).run(list(records))
    assert _pair_keys(sharded) == _pair_keys(batch)
    assert np.array_equal(sharded.scored.scores, batch.scored.scores)
    assert sharded.clusters.clusters == batch.clusters.clusters
    assert sharded.clusters.assignments == batch.clusters.assignments
    assert sharded.index_stats == batch.index_stats
    assert sharded.candidates.stats == batch.candidates.stats
    assert _untimed(sharded.scored.stats) == _untimed(batch.scored.stats)
    report = sharded.shard_report
    assert report.chunks == -(-len(batch.scored) // micro_batch_size)
    assert report.used_processes == (FORK and workers > 1 and report.chunks > 1)
    assert report.rescored_chunks == []
    return batch, sharded


class TestParity:
    @pytest.mark.parametrize("micro_batch_size", [7, 64, 256])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bit_identical_to_linkage_pipeline(self, predictor, tiny_music_corpus,
                                               workers, micro_batch_size):
        records = list(tiny_music_corpus.records)
        random.Random(workers * 10_000 + micro_batch_size).shuffle(records)
        batch, _ = _assert_parity(predictor, records, workers, micro_batch_size)
        assert len(batch.scored) > micro_batch_size

    @pytest.mark.parametrize("workers", [1, 3])
    def test_candidate_count_an_exact_multiple_of_the_chunk_size(
            self, predictor, tiny_music_corpus, workers):
        records = list(tiny_music_corpus.records)
        count = len(LinkagePipeline(predictor).run(list(records)).scored)
        size = next(size for size in range(2, count + 1) if count % size == 0)
        _, sharded = _assert_parity(predictor, records, workers, size)
        assert sharded.shard_report.chunks == count // size

    @pytest.mark.parametrize("workers", [1, 3])
    def test_zero_candidates_on_a_single_source_corpus(self, predictor,
                                                       tiny_music_corpus, workers):
        source = tiny_music_corpus.records[0].source
        records = [record for record in tiny_music_corpus.records
                   if record.source == source]
        _, sharded = _assert_parity(predictor, records, workers, 64)
        assert len(sharded.scored) == 0
        assert sharded.shard_report.chunks == 0


class TestShardedTelemetry:
    MICRO_BATCH = 64

    def _run_with_telemetry(self, predictor, records, workers):
        import repro.obs as obs

        with obs.telemetry() as session:
            result = ShardedPipeline(
                _sized(predictor, self.MICRO_BATCH),
                shards=ShardConfig(workers=workers)).run(list(records))
        return result, session

    @staticmethod
    def _span_shape(span):
        """(name, sorted child shapes) — attribute- and timing-free."""
        return (span.name,
                tuple(sorted(TestShardedTelemetry._span_shape(child)
                             for child in span.children)))

    @staticmethod
    def _shard_seconds_counts(session):
        return {entry["labels"]["phase"]: entry["count"]
                for entry in session.registry.snapshot()
                if entry["name"] == "pipeline_sharded_shard_seconds"}

    def test_run_records_convention_valid_metrics(self, predictor,
                                                  tiny_music_corpus):
        from repro.obs.metrics import valid_metric_name

        _, session = self._run_with_telemetry(
            predictor, tiny_music_corpus.records, workers=1)
        names = {entry["name"] for entry in session.registry.snapshot()}
        assert {"pipeline_sharded_shard_seconds",
                "pipeline_sharded_rescored_chunks_total"} <= names
        assert [name for name in names if not valid_metric_name(name)] == []

    def test_worker_spans_merge_into_one_driver_tree(self, predictor,
                                                     tiny_music_corpus):
        result, session = self._run_with_telemetry(
            predictor, tiny_music_corpus.records, workers=3)
        (root,) = session.collector.roots()
        assert root.name == "pipeline.run"
        (score,) = [span for span in root.children if span.name == "score"]
        workers = score.children
        assert [span.name for span in workers] == ["sharded.worker"] * len(workers)
        assert [span.attributes["shard"] for span in workers] == \
            list(range(result.shard_report.chunks))
        assert sum(span.attributes["pairs"] for span in workers) == len(result.scored)
        assert all(span.seconds > 0.0 for span in workers)

    def test_shard_seconds_observed_once_per_shard_per_phase(self, predictor,
                                                             tiny_music_corpus):
        result, session = self._run_with_telemetry(
            predictor, tiny_music_corpus.records, workers=1)
        assert self._shard_seconds_counts(session) == {
            "score": result.shard_report.chunks}

    @pytest.mark.skipif(not FORK, reason="fork start method unavailable")
    def test_forked_run_has_identical_span_structure(self, predictor,
                                                     tiny_music_corpus):
        _, inline = self._run_with_telemetry(
            predictor, tiny_music_corpus.records, workers=1)
        forked_result, forked = self._run_with_telemetry(
            predictor, tiny_music_corpus.records, workers=3)
        assert forked_result.shard_report.used_processes
        shape = [self._span_shape(span) for span in inline.collector.roots()]
        assert [self._span_shape(span)
                for span in forked.collector.roots()] == shape

    @pytest.mark.skipif(not FORK, reason="fork start method unavailable")
    def test_forked_metrics_match_inline(self, predictor, tiny_music_corpus):
        result, session = self._run_with_telemetry(
            predictor, tiny_music_corpus.records, workers=3)
        assert result.shard_report.used_processes
        assert self._shard_seconds_counts(session) == {
            "score": result.shard_report.chunks}


class TestShardedCLI:
    @pytest.mark.slow
    def test_cli_workers_flag_runs_sharded(self, predictor, music_scenario,
                                           fast_config, tiny_music_corpus,
                                           tmp_path):
        trainer = AdaMELHybrid(fast_config)
        trainer.fit(music_scenario)
        bundle = save_model(trainer, tmp_path / "bundle")
        records_csv = write_records_csv(tiny_music_corpus.records,
                                        tmp_path / "records.csv")
        exit_code = pipeline_main([
            "--records", str(records_csv),
            "--model", str(bundle),
            "--workers", "2",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert exit_code == 0
        stats = json.loads((tmp_path / "out" / "stats.json").read_text())
        sharding = stats["sharding"]
        assert set(sharding) == {"workers", "used_processes", "chunks",
                                 "rescored_chunks"}
        assert sharding["workers"] == 2
        assert sharding["used_processes"] == FORK
        size = stats["stages"]["score"]["micro_batch_size"]
        assert sharding["chunks"] == -(-stats["stages"]["pair"]["num_candidates"] // size)
        assert sharding["chunks"] >= 2
        assert sharding["rescored_chunks"] == []

    def test_shards_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exited:
            pipeline_main(["--workers", "2", "--shards", "2"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err
