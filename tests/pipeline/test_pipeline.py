"""End-to-end tests for the linkage pipeline, its stages and the CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import AdaMELHybrid
from repro.data.storage import write_records_csv
from repro.infer import BatchedPredictor, save_model
from repro.data.records import Record
from repro.pipeline import (
    CandidateGenerationStage,
    InvertedTokenIndex,
    LinkagePipeline,
)
from repro.pipeline.__main__ import main as pipeline_main


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return BatchedPredictor.from_trainer(trainer)


@pytest.fixture(scope="module")
def pipeline_result(predictor, tiny_music_corpus):
    pipeline = LinkagePipeline(predictor)
    return pipeline.run(tiny_music_corpus.records)


class TestCandidateGeneration:
    def test_candidates_are_cross_source_and_deduplicated(self, tiny_music_corpus):
        stage = CandidateGenerationStage()
        stage.add_records(tiny_music_corpus.records)
        result = stage.generate()
        keys = [tuple(sorted((pair.left.record_id, pair.right.record_id)))
                for pair in result.pairs]
        assert len(keys) == len(set(keys))
        assert all(pair.left.source != pair.right.source for pair in result.pairs)

    def test_stats_report_recall_and_reduction(self, tiny_music_corpus):
        stage = CandidateGenerationStage()
        stage.add_records(tiny_music_corpus.records)
        stats = stage.generate().stats
        assert stats["recall"] >= 0.95
        assert stats["pair_reduction_factor"] >= 5.0
        assert 0.0 < stats["reduction_ratio"] < 1.0

    def test_stats_fields(self):
        records = [
            Record(record_id=record_id, source=source, attributes={"name": name},
                   entity_id=entity_id)
            for record_id, source, name, entity_id in (
                ("a1", "s1", "neil diamond", "e1"), ("a2", "s2", "neil diamond", "e1"),
                ("b1", "s1", "aretha franklin", "e2"), ("b2", "s2", "aretha franklin", "e2"),
                ("c1", "s1", "completely unrelated", "e3"),
                ("c2", "s2", "something else", "e3"))]
        stage = CandidateGenerationStage([InvertedTokenIndex(["name"], max_postings=50)])
        stage.add_records(records)
        stats = stage.generate().stats
        # e1 and e2 pairs are found, e3's is not: recall 2/3.
        assert stats["recall"] == pytest.approx(2 / 3)
        assert stats["num_true_pairs"] == 3
        assert stats["num_candidates"] == 2
        # 3 records per source => 9 cross-source pairs.
        assert stats["possible_pairs"] == 9
        assert stats["reduction_ratio"] == pytest.approx(2 / 9)
        assert stats["pair_reduction_factor"] == pytest.approx(9 / 2)

    def test_requires_at_least_one_index(self):
        with pytest.raises(ValueError):
            CandidateGenerationStage([])

    def test_no_candidates_keeps_stats_finite(self):
        import math

        # A single-source corpus has no cross-source pairs to propose.
        stage = CandidateGenerationStage()
        stage.add_records([Record(record_id=f"r{i}", source="only",
                                  attributes={"name": f"value {i}"})
                           for i in range(4)])
        stats = stage.generate().stats
        assert stats["num_candidates"] == 0.0
        assert all(math.isfinite(value) for value in stats.values())
        assert json.dumps(stats)  # JSON-serialisable, no Infinity tokens

    def test_duplicate_record_ids_keep_the_first_position_pair(self):
        # Position pairs naming the same two ids are one candidate: the one
        # whose (smaller, larger) positions sort first, oriented by id.
        records = [Record(record_id=record_id, source=source,
                          attributes={"name": "neil diamond"})
                   for record_id, source in (("b", "s1"), ("a", "s2"), ("b", "s3"))]
        stage = CandidateGenerationStage([InvertedTokenIndex(["name"])])
        stage.add_records(records)
        result = stage.generate()
        # (0, 1) and (1, 2) both name (a, b): (0, 1) is kept, a on the left.
        # (0, 2) names (b, b) and keeps its position order.
        assert [(pair.left, pair.right) for pair in result.pairs] == [
            (records[1], records[0]), (records[0], records[2])]
        assert [pair.pair_id for pair in result.pairs] == ["a|b", "b|b"]
        assert result.stats["hits_InvertedTokenIndex"] == 3
        assert result.stats["num_candidates"] == 2

    def test_streaming_ingestion_equals_bulk(self, tiny_music_corpus):
        records = tiny_music_corpus.records
        bulk = CandidateGenerationStage()
        bulk.add_records(records)
        streamed = CandidateGenerationStage()
        for start in range(0, len(records), 13):
            streamed.add_records(records[start:start + 13])
        bulk_keys = {pair.pair_id for pair in bulk.generate().pairs}
        streamed_keys = {pair.pair_id for pair in streamed.generate().pairs}
        assert bulk_keys == streamed_keys


class TestLinkagePipeline:
    def test_every_record_is_clustered_exactly_once(self, pipeline_result,
                                                    tiny_music_corpus):
        clustered = [record_id for members in pipeline_result.clusters.clusters
                     for record_id in members]
        assert sorted(clustered) == sorted(r.record_id for r in tiny_music_corpus.records)

    def test_deterministic_under_fixed_seed(self, predictor, tiny_music_corpus,
                                            pipeline_result):
        rerun = LinkagePipeline(predictor).run(tiny_music_corpus.records)
        assert rerun.clusters.clusters == pipeline_result.clusters.clusters
        assert np.array_equal(rerun.scored.scores, pipeline_result.scored.scores)
        assert rerun.candidates.stats == pipeline_result.candidates.stats

    def test_streaming_iterator_input_matches_list_input(self, predictor,
                                                         tiny_music_corpus,
                                                         pipeline_result):
        streamed = LinkagePipeline(predictor).run(iter(tiny_music_corpus.records))
        assert streamed.clusters.clusters == pipeline_result.clusters.clusters

    def test_scoring_batch_site_is_hit_once_per_micro_batch(self, predictor,
                                                            tiny_music_corpus):
        import repro.obs as obs
        from repro.resilience import faults
        from repro.resilience.faults import FaultSpec

        sized = BatchedPredictor(predictor.encoder, predictor.network,
                                 micro_batch_size=64)
        spec = FaultSpec(site="scoring.batch", kind="delay", every=1,
                         delay_seconds=0.0)
        with obs.telemetry() as session, faults.plan_scope([spec]):
            result = LinkagePipeline(sized).run(tiny_music_corpus.records)
        (hits,) = [entry["value"] for entry in session.registry.snapshot()
                   if entry["name"] == "resilience_faults_injected_total"
                   and entry["labels"]["site"] == "scoring.batch"]
        assert len(result.scored) > 64
        assert hits == -(-len(result.scored) // 64)

    def test_summary_covers_all_stages(self, pipeline_result):
        summary = pipeline_result.summary()
        assert set(summary["stages"]) == {"ingest", "block", "pair", "score", "cluster"}
        assert summary["stages"]["pair"]["recall"] >= 0.95
        assert "pairwise_f1" in summary["stages"]["cluster"]
        # Index diagnostics (bucket/overflow counters) surface under "block".
        assert summary["stages"]["block"]["MinHashLSHIndex_buckets"] > 0
        assert "InvertedTokenIndex_overflowed_tokens" in summary["stages"]["block"]

    def test_blocking_runs_exactly_once_per_run(self, predictor, tiny_music_corpus,
                                                monkeypatch):
        # Regression guard for double-blocking: one pipeline run must call
        # candidate generation once and each index's pair enumeration once —
        # stats/reporting paths may not silently re-run blocking.
        from repro.pipeline import candidates as candidates_module
        from repro.pipeline.index import _BucketedIndex

        generate_calls = []
        original_generate = candidates_module.CandidateGenerationStage.generate
        monkeypatch.setattr(
            candidates_module.CandidateGenerationStage, "generate",
            lambda self: generate_calls.append(1) or original_generate(self))
        pair_calls = []
        original_pairs = _BucketedIndex.candidate_pairs
        monkeypatch.setattr(
            _BucketedIndex, "candidate_pairs",
            lambda self, cross_source_only=False: pair_calls.append(1)
            or original_pairs(self, cross_source_only=cross_source_only))

        result = LinkagePipeline(predictor).run(tiny_music_corpus.records)
        assert sum(generate_calls) == 1
        assert sum(pair_calls) == 3  # one enumeration per blocking index
        assert result.candidates.stats["num_candidates"] > 0

    def test_write_outputs(self, pipeline_result, tmp_path):
        output_dir = pipeline_result.write(tmp_path / "out")
        clusters = [json.loads(line)
                    for line in (output_dir / "clusters.jsonl").read_text().splitlines()]
        assert len(clusters) == len(pipeline_result.clusters.clusters)
        assert all(cluster["size"] == len(cluster["record_ids"]) for cluster in clusters)
        matches = [json.loads(line)
                   for line in (output_dir / "matches.jsonl").read_text().splitlines()]
        threshold = pipeline_result.config.score_threshold
        assert len(matches) == int((pipeline_result.scored.scores >= threshold).sum())
        stats = json.loads((output_dir / "stats.json").read_text())
        assert stats["stages"]["cluster"]["num_clusters"] == len(clusters)


class TestPipelineCLI:
    @pytest.mark.slow
    def test_cli_links_saved_model_against_csv(self, predictor, music_scenario,
                                               tiny_music_corpus, fast_config, tmp_path):
        trainer = AdaMELHybrid(fast_config)
        trainer.fit(music_scenario)
        bundle = save_model(trainer, tmp_path / "bundle")
        records_csv = write_records_csv(tiny_music_corpus.records, tmp_path / "records.csv")
        exit_code = pipeline_main([
            "--records", str(records_csv),
            "--model", str(bundle),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert exit_code == 0
        assert (tmp_path / "out" / "clusters.jsonl").exists()
        assert (tmp_path / "out" / "stats.json").exists()

    def test_records_without_model_is_an_error(self, tmp_path, capsys):
        exit_code = pipeline_main(["--records", str(tmp_path / "nope.csv")])
        assert exit_code == 2
        assert "--model" in capsys.readouterr().err
