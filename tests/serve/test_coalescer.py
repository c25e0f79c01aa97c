"""RequestCoalescer: the flush rule, fusion, backpressure, failures.

No test here sleeps or asserts on elapsed time.  The score function is a
plain deterministic one (no model) behind a gate: while the gate is shut the
executor sits inside a batch, so what queues up behind it — and therefore
what the next batches must look like — is decided by the test, not by a
timer.  ``WAIT`` only bounds how long a broken build may hang.
"""

from __future__ import annotations

import inspect
import threading

import numpy as np
import pytest

from repro.data.records import EntityPair, Record
from repro.infer import BatchedPredictor
from repro.serve import (CoalescerClosed, CoalescerQueueFull, EntityStore,
                         RequestCoalescer, ServiceConfig)

WAIT = 10.0


def make_pair(index: int) -> EntityPair:
    left = Record(record_id=f"l{index}", source="a", attributes={"name": f"left {index}"})
    right = Record(record_id=f"r{index}", source="b", attributes={"name": f"right {index}"})
    return EntityPair(left=left, right=right)


def make_pairs(start: int, stop: int):
    return [make_pair(index) for index in range(start, stop)]


def index_scores(pairs):
    """Deterministic per-pair score derived from the record id."""
    return np.array([float(int(pair.left.record_id[1:]) % 97) / 97.0
                     for pair in pairs])


class GatedScores:
    """``index_scores`` that records every batch and blocks while shut."""

    def __init__(self, fail_with: BaseException = None) -> None:
        self.gate = threading.Event()
        self.entered = threading.Event()  # the executor is inside a batch
        self.batches = []                 # pair indexes, one list per call
        self.fail_with = fail_with

    def __call__(self, pairs):
        self.batches.append([int(pair.left.record_id[1:]) for pair in pairs])
        self.entered.set()
        assert self.gate.wait(WAIT), "the test never opened the gate"
        if self.fail_with is not None:
            raise self.fail_with
        return index_scores(pairs)

    def hold_executor(self, coalescer, pair_index: int = 0):
        """Submit one request and return once the executor is stuck in it."""
        handle = coalescer.submit(make_pair(pair_index))
        assert self.entered.wait(WAIT)
        return handle


def accepted_signal(coalescer) -> threading.Semaphore:
    """Released once per accepted submit (``queue_sample_fn`` fires then), so
    a test can wait for other threads' requests to be queued without polling."""
    accepted = threading.Semaphore(0)
    coalescer.queue_sample_fn = lambda saturation: accepted.release()
    return accepted


class WatchedCondition(threading.Condition):
    """The coalescer's condition, telling the test when a thread waits on it."""

    def __init__(self) -> None:
        super().__init__()
        self.waited_on = threading.Event()

    def wait(self, timeout=None):
        self.waited_on.set()  # still under the lock; released inside wait()
        return super().wait(timeout)


def stop_behind_the_in_flight_batch(coalescer, scores: GatedScores) -> None:
    """``stop()`` while the executor is held, releasing it only once the
    coalescer is stopping — so what is queued is drained by the shutdown."""
    def release_when_stopping():
        with coalescer._condition:
            assert coalescer._condition.wait_for(lambda: coalescer._stopping, WAIT)
        scores.gate.set()

    releaser = threading.Thread(target=release_when_stopping)
    releaser.start()
    coalescer.stop(timeout=WAIT)
    releaser.join(WAIT)
    assert not releaser.is_alive()


class TestFusion:
    def test_results_match_submission_and_request_order(self):
        pairs = make_pairs(0, 20)
        with RequestCoalescer(index_scores, max_batch_size=8) as coalescer:
            first = coalescer.submit(pairs[:6])
            second = coalescer.submit(pairs[6])
            third = coalescer.submit(pairs[7:20])
            np.testing.assert_array_equal(first.result(WAIT), index_scores(pairs[:6]))
            np.testing.assert_array_equal(second.result(WAIT), index_scores([pairs[6]]))
            np.testing.assert_array_equal(third.result(WAIT), index_scores(pairs[7:20]))

    def test_concurrent_submitters_are_fused_into_fewer_batches(self):
        # Whatever queues up behind the in-flight batch is the next batch:
        # k requests from k threads -> exactly one more batch, FIFO.
        scores = GatedScores()
        num_clients = 12
        results = {}

        def client(index):
            results[index] = coalescer.score(make_pair(index), timeout=WAIT)

        with RequestCoalescer(scores, max_batch_size=64) as coalescer:
            accepted = accepted_signal(coalescer)
            in_flight = scores.hold_executor(coalescer, pair_index=0)
            assert accepted.acquire(timeout=WAIT)
            threads = [threading.Thread(target=client, args=(index,))
                       for index in range(1, num_clients + 1)]
            for thread in threads:  # one at a time: the queue order is known
                thread.start()
                assert accepted.acquire(timeout=WAIT)
            assert coalescer.pending() == num_clients
            scores.gate.set()
            for thread in threads:
                thread.join(WAIT)
                assert not thread.is_alive()
            in_flight.result(WAIT)
        assert scores.batches == [[0], list(range(1, num_clients + 1))]
        for index in range(1, num_clients + 1):
            np.testing.assert_array_equal(results[index],
                                          index_scores([make_pair(index)]))
        stats = coalescer.stats()
        assert stats["batches"] == 2.0
        assert stats["capped_batches"] == 0.0

    def test_scores_identical_to_direct_call(self):
        pairs = make_pairs(0, 33)
        with RequestCoalescer(index_scores, max_batch_size=8) as coalescer:
            fused = np.concatenate([coalescer.score([pair]) for pair in pairs])
        np.testing.assert_array_equal(fused, index_scores(pairs))


class TestFlushTriggers:
    """The one rule: an idle executor drains what is queued, up to the cap."""

    def test_lone_request_on_an_idle_coalescer_is_one_batch(self):
        # 3 pairs never fill a 64-pair batch, and nothing else is coming: the
        # request is scored as a batch of its own, and so is the next one (a
        # single closed client has nothing to fuse with).
        scores = GatedScores()
        scores.gate.set()
        with RequestCoalescer(scores, max_batch_size=64) as coalescer:
            assert coalescer.score(make_pairs(0, 3), timeout=WAIT).shape == (3,)
            assert coalescer.stats()["batches"] == 1.0
            assert coalescer.score(make_pairs(3, 5), timeout=WAIT).shape == (2,)
        assert scores.batches == [[0, 1, 2], [3, 4]]
        stats = coalescer.stats()
        assert stats["batches"] == 2.0
        assert stats["capped_batches"] == 0.0
        assert stats["deadline_flushes"] == 0.0

    def test_backlog_above_the_cap_drains_in_capped_batches(self):
        scores = GatedScores()
        sizes = [3, 3, 3, 2, 4, 4, 1]  # 20 pairs behind an 8-pair cap
        with RequestCoalescer(scores, max_batch_size=8) as coalescer:
            in_flight = scores.hold_executor(coalescer, pair_index=0)
            handles, start = [], 1
            for size in sizes:
                handles.append(coalescer.submit(make_pairs(start, start + size)))
                start += size
            assert coalescer.pending() == sum(sizes)
            scores.gate.set()
            in_flight.result(WAIT)
            start = 1
            for size, handle in zip(sizes, handles):
                np.testing.assert_array_equal(
                    handle.result(WAIT), index_scores(make_pairs(start, start + size)))
                start += size
        # Whole requests, FIFO, never split: 3+3 | 3+2 | 4+4 | 1.
        assert scores.batches == [[0], list(range(1, 7)), list(range(7, 12)),
                                  list(range(12, 20)), [20]]
        stats = coalescer.stats()
        assert stats["batches"] == 5.0
        assert stats["capped_batches"] == 3.0  # the last one emptied the queue

    def test_oversized_request_goes_through_alone(self):
        scores = GatedScores()
        with RequestCoalescer(scores, max_batch_size=4,
                              max_queue_size=64) as coalescer:
            in_flight = scores.hold_executor(coalescer, pair_index=0)
            small = coalescer.submit(make_pairs(1, 3))
            oversized = coalescer.submit(make_pairs(3, 14))
            tail = coalescer.submit(make_pair(14))
            scores.gate.set()
            for handle in (in_flight, small, tail):
                handle.result(WAIT)
            assert oversized.result(WAIT).shape == (11,)
        assert scores.batches == [[0], [1, 2], list(range(3, 14)), [14]]
        assert coalescer.stats()["capped_batches"] == 2.0


class TestBackpressure:
    def test_submit_times_out_when_queue_is_full(self):
        scores = GatedScores()
        with RequestCoalescer(scores, max_batch_size=2,
                              max_queue_size=2) as coalescer:
            # Batch one occupies the executor; the queue then fills up.
            first = scores.hold_executor(coalescer, pair_index=0)
            second = coalescer.submit(make_pairs(1, 3))
            with pytest.raises(CoalescerQueueFull):
                coalescer.submit(make_pair(3), timeout=0.0)
            assert coalescer.stats()["rejected"] == 1.0
            assert coalescer.pending() == 2
            scores.gate.set()
            first.result(WAIT)
            second.result(WAIT)

    def test_submit_blocks_until_room_frees_up(self):
        scores = GatedScores()
        saturation = []
        coalescer = RequestCoalescer(scores, max_batch_size=2, max_queue_size=2,
                                     queue_sample_fn=saturation.append)
        coalescer._condition = condition = WatchedCondition()
        with coalescer:
            first = scores.hold_executor(coalescer, pair_index=0)
            second = coalescer.submit(make_pairs(1, 3))  # the queue is full
            condition.waited_on.clear()  # the executor is busy: only a
            late = []                    # submitter can wait from here on
            blocked = threading.Thread(
                target=lambda: late.append(coalescer.score(make_pair(3), timeout=WAIT)))
            blocked.start()
            assert condition.waited_on.wait(WAIT)
            assert len(saturation) == 2  # not accepted: it waits for room
            scores.gate.set()
            blocked.join(WAIT)
            assert not blocked.is_alive()
            first.result(WAIT)
            second.result(WAIT)
        np.testing.assert_array_equal(late[0], index_scores([make_pair(3)]))
        # The late request rode after the one that filled the queue, and the
        # bound was never exceeded on the way.
        assert scores.batches == [[0], [1, 2], [3]]
        assert len(saturation) == 3 and max(saturation) <= 1.0


class TestLifecycleAndFailure:
    def test_submit_before_start_and_after_stop_raises(self):
        coalescer = RequestCoalescer(index_scores)
        with pytest.raises(CoalescerClosed):
            coalescer.submit(make_pair(0))
        coalescer.start()
        coalescer.stop()
        with pytest.raises(CoalescerClosed):
            coalescer.submit(make_pair(0))

    def test_stop_flushes_queued_requests(self):
        scores = GatedScores()
        coalescer = RequestCoalescer(scores, max_batch_size=64).start()
        in_flight = scores.hold_executor(coalescer, pair_index=0)
        queued = coalescer.submit(make_pairs(3, 5))
        stop_behind_the_in_flight_batch(coalescer, scores)
        np.testing.assert_array_equal(in_flight.result(0.0), index_scores([make_pair(0)]))
        np.testing.assert_array_equal(queued.result(0.0), index_scores(make_pairs(3, 5)))
        assert coalescer.pending() == 0

    def test_stop_timeout_never_detaches_a_live_executor(self):
        # A stop() that times out while score_fn is stuck must not let a
        # later start() spawn a second executor next to the live one (two
        # threads would then drive the non-thread-safe model concurrently).
        scores = GatedScores()
        coalescer = RequestCoalescer(scores, max_batch_size=1).start()
        handle = scores.hold_executor(coalescer, pair_index=0)
        executor = coalescer._thread
        with pytest.raises(TimeoutError, match="still running"):
            coalescer.stop(timeout=0.0)
        assert coalescer.start() is coalescer
        assert coalescer._thread is executor and executor.is_alive()
        scores.gate.set()
        coalescer.stop(timeout=WAIT)
        assert not executor.is_alive()
        np.testing.assert_array_equal(handle.result(0.0), index_scores([make_pair(0)]))

    def test_score_fn_error_propagates_to_every_request(self):
        scores = GatedScores(fail_with=RuntimeError("model fell over"))
        with RequestCoalescer(scores, max_batch_size=4) as coalescer:
            alone = scores.hold_executor(coalescer, pair_index=0)
            first = coalescer.submit(make_pair(1))
            second = coalescer.submit(make_pair(2))
            scores.gate.set()
            for handle in (alone, first, second):
                with pytest.raises(RuntimeError, match="fell over"):
                    handle.result(WAIT)
            assert scores.batches == [[0], [1, 2]]
            # The executor absorbed both failures and still serves.
            scores.fail_with = None
            np.testing.assert_array_equal(coalescer.score(make_pair(3), timeout=WAIT),
                                          index_scores([make_pair(3)]))
            assert coalescer.stats()["executor_restarts"] == 0.0

    def test_bad_score_shape_is_an_error(self):
        with RequestCoalescer(lambda pairs: np.zeros(1 + len(pairs)),
                              max_batch_size=4) as coalescer:
            with pytest.raises(ValueError, match="shape"):
                coalescer.score(make_pair(0), timeout=WAIT)

    def test_empty_score_returns_empty(self):
        with RequestCoalescer(index_scores) as coalescer:
            assert coalescer.score([]).shape == (0,)
            assert coalescer.stats()["requests"] == 0.0

    def test_empty_score_on_a_closed_coalescer_is_refused(self):
        # Empty or not, a request to a coalescer that is not running fails.
        coalescer = RequestCoalescer(index_scores)
        with pytest.raises(CoalescerClosed):
            coalescer.score([])
        coalescer.start()
        coalescer.stop()
        with pytest.raises(CoalescerClosed):
            coalescer.score([])

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            RequestCoalescer(index_scores, max_batch_size=0)
        with pytest.raises(ValueError, match="max_queue_size"):
            RequestCoalescer(index_scores, max_batch_size=8, max_queue_size=4)


class TestNoTimerNoSecondQueue:
    """API guard: the deadline knob and the predictor's queue stay deleted."""

    @staticmethod
    def _parameters(cls):
        names = set()
        for _, member in inspect.getmembers(cls, callable):
            try:
                names |= set(inspect.signature(member).parameters)
            except (TypeError, ValueError):  # builtins without a signature
                continue
        return names

    def test_max_wait_is_in_no_signature(self):
        for cls in (RequestCoalescer, EntityStore, ServiceConfig):
            assert not [name for name in self._parameters(cls) if "max_wait" in name]
        assert "max_wait_ms" not in ServiceConfig().as_dict()
        assert "upsert_score_fn" not in self._parameters(EntityStore)

    def test_predictor_has_no_queue(self):
        for name in ("submit", "flush", "pending"):
            assert not hasattr(BatchedPredictor, name)
        assert {"max_queue_size", "auto_flush"}.isdisjoint(
            self._parameters(BatchedPredictor))


class TestFlushTelemetry:
    """Flush-reason counters and queue gauges through ``repro.obs``."""

    @staticmethod
    def _flushes(session):
        return {entry["labels"]["reason"]: entry["value"]
                for entry in session.registry.snapshot()
                if entry["name"] == "coalescer_flushes_total"}

    def test_idle_flush_is_counted_by_reason(self):
        from repro import obs

        with obs.telemetry() as session:
            with RequestCoalescer(index_scores, max_batch_size=64) as coalescer:
                coalescer.score(make_pairs(0, 3), timeout=WAIT)
        assert self._flushes(session) == {"idle": 1.0, "cap": 0.0, "shutdown": 0.0}

    def test_cap_flush_is_counted_by_reason(self):
        from repro import obs

        scores = GatedScores()
        with obs.telemetry() as session:
            with RequestCoalescer(scores, max_batch_size=4) as coalescer:
                handles = [scores.hold_executor(coalescer, pair_index=0),
                           coalescer.submit(make_pairs(1, 4)),
                           coalescer.submit(make_pairs(4, 7))]
                scores.gate.set()
                for handle in handles:
                    handle.result(WAIT)
        flushes = self._flushes(session)
        assert flushes == {"idle": 2.0, "cap": 1.0, "shutdown": 0.0}
        assert flushes["cap"] == coalescer.stats()["capped_batches"]

    def test_shutdown_flush_is_counted_by_reason(self):
        from repro import obs

        scores = GatedScores()
        with obs.telemetry() as session:
            coalescer = RequestCoalescer(scores, max_batch_size=64).start()
            scores.hold_executor(coalescer, pair_index=0)
            handle = coalescer.submit(make_pair(3))
            stop_behind_the_in_flight_batch(coalescer, scores)
            handle.result(0.0)
        assert self._flushes(session) == {"idle": 1.0, "cap": 0.0, "shutdown": 1.0}

    def test_queue_depth_high_watermark_and_wait_times(self):
        from repro import obs

        scores = GatedScores()
        with obs.telemetry() as session:
            with RequestCoalescer(scores, max_batch_size=2,
                                  max_queue_size=64) as coalescer:
                handles = [scores.hold_executor(coalescer, pair_index=0),
                           coalescer.submit(make_pairs(1, 3)),
                           coalescer.submit(make_pairs(3, 5))]
                scores.gate.set()
                for handle in handles:
                    handle.result(WAIT)
        series = {entry["name"]: entry for entry in session.registry.snapshot()}
        # 4 pairs piled up behind the in-flight batch: the watermark saw them,
        # and the final depth is zero (everything drained).
        assert series["coalescer_queue_high_watermark_pairs"]["max"] == 4.0
        assert series["coalescer_queue_depth_pairs"]["value"] == 0.0
        assert series["coalescer_requests_total"]["value"] == 3.0
        assert series["coalescer_pairs_scored_total"]["value"] == 5.0
        assert series["coalescer_wait_seconds"]["count"] == 3

    def test_rejected_submissions_are_counted(self):
        from repro import obs

        scores = GatedScores()
        with obs.telemetry() as session:
            with RequestCoalescer(scores, max_batch_size=2,
                                  max_queue_size=2) as coalescer:
                first = scores.hold_executor(coalescer, pair_index=0)
                second = coalescer.submit(make_pairs(1, 3))
                with pytest.raises(CoalescerQueueFull):
                    coalescer.submit(make_pair(3), timeout=0.0)
                scores.gate.set()
                first.result(WAIT)
                second.result(WAIT)
        series = {entry["name"]: entry for entry in session.registry.snapshot()}
        assert series["coalescer_rejected_total"]["value"] == 1.0
        assert series["coalescer_requests_total"]["value"] == 2.0
