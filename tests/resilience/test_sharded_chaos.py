"""Chaos parity: the sharded pipeline's scoring fan-out under injected faults.

A worker that dies, raises or answers with fewer scores than pairs only
costs wall-clock: the driver rescores that micro-batch itself, so the output
stays bit-identical to :class:`LinkagePipeline` and the report names the
rescored micro-batches.  A fault that also hits the driver's rescore propagates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AdaMELHybrid
from repro.infer import BatchedPredictor
from repro.pipeline import LinkagePipeline, ShardConfig, ShardedPipeline
from repro.resilience import faults
from repro.resilience.faults import FaultInjected, FaultSpec

pytestmark = pytest.mark.skipif(not ShardedPipeline.fork_available(),
                                reason="fork start method unavailable")

MICRO_BATCH_SIZE = 64


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return BatchedPredictor.from_trainer(trainer, micro_batch_size=MICRO_BATCH_SIZE)


@pytest.fixture(scope="module")
def baseline(predictor, tiny_music_corpus):
    return LinkagePipeline(predictor).run(list(tiny_music_corpus.records))


@pytest.fixture(autouse=True)
def clean_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


def _run(predictor, records, workers):
    return ShardedPipeline(predictor,
                           shards=ShardConfig(workers=workers)).run(list(records))


def _assert_bit_identical(chaotic, baseline):
    assert ([(p.left.record_id, p.right.record_id) for p in chaotic.scored.pairs]
            == [(p.left.record_id, p.right.record_id) for p in baseline.scored.pairs])
    assert np.array_equal(chaotic.scored.scores, baseline.scored.scores)
    assert chaotic.clusters.clusters == baseline.clusters.clusters
    assert chaotic.clusters.assignments == baseline.clusters.assignments
    assert chaotic.index_stats == baseline.index_stats
    assert chaotic.candidates.stats == baseline.candidates.stats


def _assert_worker_fault_is_rescored(predictor, corpus, baseline, tmp_path,
                                     kind):
    for workers in (2, 3):
        specs = [
            # One worker-side fault in the whole run: the token latch keeps
            # every other worker process from firing it too.
            FaultSpec(site="sharded.score", kind=kind, every=1, scope="worker",
                      token=str(tmp_path / f"{kind}-{workers}-once")),
            # ... and stall every third scoring micro-batch in the workers.
            FaultSpec(site="scoring.batch", kind="delay", every=3,
                      delay_seconds=0.002, scope="worker"),
        ]
        with faults.plan_scope(specs):
            chaotic = _run(predictor, corpus.records, workers)
        _assert_bit_identical(chaotic, baseline)
        report = chaotic.shard_report
        assert report.used_processes
        assert report.rescored_chunks
        assert report.rescored_chunks == sorted(set(report.rescored_chunks))
        if kind != "kill":  # a death also fails the micro-batches queued behind it
            assert len(report.rescored_chunks) == 1


class TestForkedChaosParity:
    def test_fault_free_run_rescores_nothing(self, predictor, tiny_music_corpus,
                                             baseline):
        result = _run(predictor, tiny_music_corpus.records, workers=2)
        _assert_bit_identical(result, baseline)
        assert result.shard_report.used_processes
        assert result.shard_report.rescored_chunks == []

    # The scoring fan-out is the one forked phase, so each test below injects
    # one worker-side fault of its kind there and runs on 2 and 3 workers.
    def test_one_kill_per_phase_plus_scoring_delays_is_bit_identical(
            self, predictor, tiny_music_corpus, baseline, tmp_path):
        _assert_worker_fault_is_rescored(predictor, tiny_music_corpus,
                                         baseline, tmp_path, "kill")

    def test_raised_worker_errors_are_retried_to_parity(
            self, predictor, tiny_music_corpus, baseline, tmp_path):
        _assert_worker_fault_is_rescored(predictor, tiny_music_corpus,
                                         baseline, tmp_path, "raise")

    def test_partial_worker_answers_are_treated_as_failures(
            self, predictor, tiny_music_corpus, baseline, tmp_path):
        _assert_worker_fault_is_rescored(predictor, tiny_music_corpus,
                                         baseline, tmp_path, "partial")

    def test_in_process_partial_answer_is_rescored(self, predictor,
                                                   tiny_music_corpus, baseline):
        specs = [FaultSpec(site="sharded.score", kind="partial", at_hit=2)]
        with faults.plan_scope(specs):
            faulty = _run(predictor, tiny_music_corpus.records, workers=1)
        _assert_bit_identical(faulty, baseline)
        assert not faulty.shard_report.used_processes
        assert faulty.shard_report.rescored_chunks == [1]

    @pytest.mark.parametrize("workers, scope", [(1, "driver"), (2, "any")])
    def test_persistent_fault_in_the_driver_surfaces_the_error(
            self, predictor, tiny_music_corpus, workers, scope):
        specs = [FaultSpec(site="sharded.score", kind="raise", every=1,
                           scope=scope)]
        with faults.plan_scope(specs):
            with pytest.raises(FaultInjected):
                _run(predictor, tiny_music_corpus.records, workers)
