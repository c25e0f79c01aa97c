"""Coalescer failure modes: wedged-executor shutdown, executor crash restart.

Like ``tests/serve/test_coalescer.py`` these hold the executor inside a gated
``score_fn`` instead of sleeping: ``stop(timeout=0.0)`` finds it wedged at
once, and ``WAIT`` only bounds how long a broken build may hang.
"""

from __future__ import annotations

import threading

import pytest

from repro.serve.coalescer import CoalescerClosed, RequestCoalescer

WAIT = 10.0


class GatedScore:
    """Scores 0.5 per pair once the gate opens; tells when it is entered."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.entered = threading.Event()

    def __call__(self, pairs):
        self.entered.set()
        assert self.gate.wait(WAIT), "the test never opened the gate"
        return [0.5] * len(pairs)


class TestStopWithWedgedExecutor:
    def test_stop_timeout_fails_queued_requests_promptly(self):
        score = GatedScore()
        coalescer = RequestCoalescer(score, max_batch_size=2, max_queue_size=100)
        coalescer.start()
        try:
            in_flight = coalescer.submit([("a", "b")])
            assert score.entered.wait(WAIT)  # the executor is inside score_fn
            queued = coalescer.submit([("c", "d")])
            with pytest.raises(TimeoutError):
                coalescer.stop(timeout=0.0)
            # The queued request has already failed — its client must not sit
            # out a full result timeout to learn the executor is wedged.
            with pytest.raises(CoalescerClosed):
                queued.result(timeout=0.0)
            assert coalescer.pending() == 0
            # The in-flight batch still belongs to the executor: once the
            # scorer returns, its client gets real scores.
            score.gate.set()
            assert list(in_flight.result(timeout=WAIT)) == [0.5]
        finally:
            score.gate.set()
            coalescer.stop(timeout=WAIT)  # executor drained; this join succeeds

    def test_submit_after_failed_stop_is_refused(self):
        score = GatedScore()
        coalescer = RequestCoalescer(score)
        coalescer.start()
        try:
            coalescer.submit([("a", "b")])
            assert score.entered.wait(WAIT)
            with pytest.raises(TimeoutError):
                coalescer.stop(timeout=0.0)
            with pytest.raises(CoalescerClosed):
                coalescer.submit([("c", "d")])
        finally:
            score.gate.set()
            coalescer.stop(timeout=WAIT)


class TestExecutorCrashRestart:
    def test_crash_fails_its_batch_and_respawns_the_executor(self):
        coalescer = RequestCoalescer(lambda pairs: [0.5] * len(pairs),
                                     max_batch_size=4)
        with coalescer:
            boom = RuntimeError("machinery bug")

            def crashing(batch):
                raise boom

            coalescer._execute = crashing  # instance override, class intact
            pending = coalescer.submit([("a", "b")])
            with pytest.raises(CoalescerClosed) as excinfo:
                pending.result(timeout=WAIT)
            assert excinfo.value.__cause__ is boom
            del coalescer._execute
            # The replacement executor serves new traffic transparently.
            assert list(coalescer.score([("c", "d")], timeout=WAIT)) == [0.5]
            assert coalescer.stats()["executor_restarts"] == 1.0

    def test_score_fn_errors_do_not_count_as_crashes(self):
        def failing(pairs):
            raise ValueError("model rejected the batch")

        coalescer = RequestCoalescer(failing)
        with coalescer:
            with pytest.raises(ValueError, match="rejected"):
                coalescer.score([("a", "b")], timeout=WAIT)
            # Per-batch score errors are absorbed by _execute; the executor
            # thread survives without a restart.
            assert coalescer.stats()["executor_restarts"] == 0.0
            with pytest.raises(ValueError, match="rejected"):
                coalescer.score([("c", "d")], timeout=WAIT)
