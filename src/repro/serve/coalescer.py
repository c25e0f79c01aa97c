"""Demand-driven request coalescing in front of the batched predictor.

The model's autograd mode is process-wide, so concurrent forward passes from
many threads are unsafe — and tiny per-request forwards waste the fused-batch
speedup anyway.  :class:`RequestCoalescer` solves both: client threads
enqueue scoring requests and one executor thread — the only caller of the
model — follows a single rule:

    the moment it is idle, drain whatever is queued (whole requests in FIFO
    order, up to ``max_batch_size`` pairs) and score it as one fused batch.

A request therefore waits only while another batch is in flight.  A lone
request on an idle coalescer is scored at once; under load the queue that
builds up behind the in-flight batch *is* the next batch, so batch size
follows the arrival rate with no timer and no knob.

Backpressure is explicit: the queue holds at most ``max_queue_size`` pairs
and ``submit`` blocks (optionally with a timeout) until there is room,
raising :class:`CoalescerQueueFull` on timeout instead of growing without
bound.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import (Callable, Deque, Dict, List, NamedTuple, Optional,
                    Sequence, Union)

import numpy as np

from ..data.records import EntityPair
from ..obs import BoundHandles, DEFAULT_SIZE_BUCKETS

__all__ = ["RequestCoalescer", "PendingScore", "CoalescerClosed", "CoalescerQueueFull"]

ScoreFn = Callable[[Sequence[EntityPair]], np.ndarray]


class _CoalescerInstruments(NamedTuple):
    requests: object
    rejected: object
    pairs_scored: object
    flushes: Dict[str, object]
    queue_depth: object
    high_watermark: object
    wait_seconds: object
    batch_pairs: object
    restarts: object


def _bind_coalescer_instruments(registry) -> _CoalescerInstruments:
    flush_help = ("Batches drained, by what ended them (idle: took the whole "
                  "queue / cap: max_batch_size with requests left / shutdown)")
    return _CoalescerInstruments(
        requests=registry.counter("coalescer_requests_total",
                                  "Scoring requests accepted"),
        rejected=registry.counter("coalescer_rejected_total",
                                  "Requests rejected by queue backpressure"),
        pairs_scored=registry.counter("coalescer_pairs_scored_total",
                                      "Pairs scored through fused batches"),
        flushes={reason: registry.counter("coalescer_flushes_total", flush_help,
                                          {"reason": reason})
                 for reason in ("idle", "cap", "shutdown")},
        queue_depth=registry.gauge("coalescer_queue_depth_pairs",
                                   "Pairs currently queued"),
        high_watermark=registry.gauge("coalescer_queue_high_watermark_pairs",
                                      "Deepest the queue has been"),
        wait_seconds=registry.histogram("coalescer_wait_seconds",
                                        "Queue wait from enqueue to batch drain"),
        batch_pairs=registry.histogram("coalescer_batch_pairs",
                                       "Fused pairs per executed batch",
                                       buckets=DEFAULT_SIZE_BUCKETS),
        restarts=registry.counter("coalescer_executor_restarts_total",
                                  "Executor threads respawned after a crash"),
    )


class CoalescerClosed(RuntimeError):
    """The coalescer is stopped (or was never started) and cannot accept work."""


class CoalescerQueueFull(RuntimeError):
    """``submit`` timed out waiting for queue room (backpressure bound hit)."""


class PendingScore:
    """One submitted request and its handle; resolved by the executor thread."""

    __slots__ = ("_event", "_result", "_error", "pairs", "enqueued_at")

    def __init__(self, pairs: List[EntityPair], enqueued_at: float) -> None:
        self._event = threading.Event()
        self._result: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self.pairs = pairs
        self.enqueued_at = enqueued_at

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the batch holding this request was scored."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"scoring request not completed within {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _resolve(self, result: np.ndarray) -> None:
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class RequestCoalescer:
    """Fuse the scoring requests that queue up behind the in-flight batch.

    Parameters
    ----------
    score_fn:
        The fused scorer, typically ``BatchedPredictor.predict_proba``.  Only
        the executor thread ever calls it, so it needs no thread safety.
    max_batch_size:
        Upper bound on the pairs handed to ``score_fn`` per call (whole
        requests are never split, so a single larger-than-batch request goes
        through alone).  A batch that stops here with requests still queued
        is counted in ``capped_batches`` — the saturation signal.
    max_queue_size:
        Backpressure bound on queued pairs; ``submit`` blocks for room.
    queue_sample_fn:
        Optional callback receiving the queue saturation (queued pairs over
        ``max_queue_size``, in ``[0, 1]``) after every accepted submit —
        invoked outside the lock.  The serving layer feeds its
        queue-saturation SLO through this, keeping the coalescer free of any
        SLO dependency.
    """

    def __init__(self, score_fn: ScoreFn, max_batch_size: int = 64,
                 max_queue_size: int = 4096,
                 queue_sample_fn: Optional[Callable[[float], None]] = None) -> None:
        if max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        if max_queue_size < max_batch_size:
            raise ValueError(f"max_queue_size ({max_queue_size}) must be >= "
                             f"max_batch_size ({max_batch_size})")
        self.score_fn = score_fn
        self.max_batch_size = max_batch_size
        self.max_queue_size = max_queue_size
        self._condition = threading.Condition()
        self._queue: Deque[PendingScore] = deque()
        self._queued_pairs = 0
        self._stopping = False
        self._running = False
        self._thread: Optional[threading.Thread] = None
        # Counters (guarded by the condition's lock).
        self.requests = 0
        self.pairs_scored = 0
        self.batches = 0
        self.capped_batches = 0
        self.rejected = 0
        self.executor_restarts = 0
        self._batch_sizes_sum = 0
        self.queue_sample_fn = queue_sample_fn
        self._obs = BoundHandles(_bind_coalescer_instruments)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "RequestCoalescer":
        """Spawn the executor thread (idempotent while running)."""
        with self._condition:
            if self._running:
                return self
            self._stopping = False
            self._running = True
            self._spawn_executor()
        return self

    def _spawn_executor(self) -> None:
        self._thread = threading.Thread(target=self._run, name="repro-coalescer",
                                        daemon=True)
        self._thread.start()

    def _fail_queued(self, failure: CoalescerClosed) -> None:
        """Empty the queue and fail what was in it (nobody will score it)."""
        with self._condition:
            abandoned = list(self._queue)
            self._queue.clear()
            self._queued_pairs = 0
            self._condition.notify_all()  # submitters blocked on room
        for request in abandoned:
            request._fail(failure)

    def stop(self, timeout: Optional[float] = None) -> None:
        """Flush whatever is queued, then stop the executor thread.

        If the executor does not finish within ``timeout`` (e.g. it is stuck
        inside a slow ``score_fn``), the coalescer stays in the stopping
        state and ``TimeoutError`` is raised: a later ``start()`` must never
        spawn a second executor while the old one lives, because two threads
        would then call the non-thread-safe model concurrently.  Retry
        ``stop()`` to wait again.

        Requests still *queued* at that point are failed promptly with
        :class:`CoalescerClosed` — a wedged executor will not get to them,
        and their clients should not sit out their full result timeouts to
        learn that.  The in-flight batch is left to the executor: its
        clients get real scores (or the score error) whenever it returns.
        """
        with self._condition:
            if not self._running:
                return
            self._stopping = True
            self._condition.notify_all()
            thread = self._thread
        assert thread is not None
        thread.join(timeout)
        if thread.is_alive():
            self._fail_queued(CoalescerClosed(
                "the coalescer is stopping and its executor is wedged; "
                "this queued request will never be scored"))
            raise TimeoutError(
                f"coalescer executor still running after {timeout}s "
                f"(score_fn in flight?); retry stop() to keep waiting")
        with self._condition:
            self._running = False
            self._thread = None

    def __enter__(self) -> "RequestCoalescer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def _check_accepting(self) -> None:
        """Raise unless requests are accepted.  Caller holds the lock."""
        if not self._running or self._stopping:
            raise CoalescerClosed("the coalescer is not running; call start() "
                                  "or use it as a context manager")

    def submit(self, pairs: Union[EntityPair, Sequence[EntityPair]],
               timeout: Optional[float] = None) -> PendingScore:
        """Enqueue a request; returns a :class:`PendingScore` handle.

        Blocks while the queue is at ``max_queue_size`` (backpressure); a
        ``timeout`` bounds that wait and raises :class:`CoalescerQueueFull`.
        """
        if isinstance(pairs, EntityPair):
            pairs = [pairs]
        else:
            pairs = list(pairs)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            self._check_accepting()
            # A request bigger than the whole queue bound could never fit.
            needed = min(len(pairs), self.max_queue_size) or 1
            while self._queued_pairs + needed > self.max_queue_size:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    self.rejected += 1
                    instruments = self._obs.get()
                    if instruments is not None:
                        instruments.rejected.inc()
                    raise CoalescerQueueFull(
                        f"no room for {len(pairs)} pair(s) within {timeout}s "
                        f"(queued={self._queued_pairs}, bound={self.max_queue_size})")
                self._condition.wait(remaining)
                self._check_accepting()  # stopped while waiting for room
            pending = PendingScore(pairs, enqueued_at=time.monotonic())
            self._queue.append(pending)
            self._queued_pairs += len(pairs)
            queued_pairs = self._queued_pairs
            self.requests += 1
            self._condition.notify_all()
        instruments = self._obs.get()
        if instruments is not None:
            instruments.requests.inc()
            instruments.queue_depth.set(queued_pairs)
            instruments.high_watermark.set_max(queued_pairs)
        if self.queue_sample_fn is not None:
            self.queue_sample_fn(queued_pairs / self.max_queue_size)
        return pending

    def score(self, pairs: Union[EntityPair, Sequence[EntityPair]],
              timeout: Optional[float] = None) -> np.ndarray:
        """Submit and block for the probabilities (the common client call).

        ``timeout`` is one overall bound covering both the wait for queue
        room and the wait for the result.
        """
        if not isinstance(pairs, EntityPair) and not len(pairs):
            with self._condition:
                self._check_accepting()  # empty or not, a closed coalescer refuses
            return np.zeros(0)
        give_up = None if timeout is None else time.monotonic() + timeout
        pending = self.submit(pairs, timeout=timeout)
        remaining = None if give_up is None else max(give_up - time.monotonic(), 0.0)
        return pending.result(remaining)

    def pending(self) -> int:
        """Pairs currently queued (not yet handed to the executor)."""
        with self._condition:
            return self._queued_pairs

    def stats(self) -> Dict[str, float]:
        """Coalescing counters (batches, capped batches, mean fused size)."""
        with self._condition:
            return {
                "requests": float(self.requests),
                "pairs_scored": float(self.pairs_scored),
                "batches": float(self.batches),
                "capped_batches": float(self.capped_batches),
                # Nothing flushes on a deadline any more; the key stays, at
                # zero, only because benchmarks/e2e/workloads.py indexes it —
                # the next [benchmark] PR drops it from both sides.
                "deadline_flushes": 0.0,
                "rejected": float(self.rejected),
                "executor_restarts": float(self.executor_restarts),
                "queued_pairs": float(self._queued_pairs),
                "mean_batch_pairs": (self._batch_sizes_sum / self.batches
                                     if self.batches else 0.0),
                "max_batch_size": float(self.max_batch_size),
            }

    # ------------------------------------------------------------------ #
    # Executor side
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            batch = None
            try:
                batch = self._next_batch()
                if batch is None:
                    return
                self._execute(batch)
            except BaseException as error:
                # ``_execute`` already absorbs score_fn errors per batch;
                # anything reaching here is a bug in the executor machinery
                # itself.  Dying silently would leave every waiter hanging.
                self._on_executor_crash(batch, error)
                return

    def _on_executor_crash(self, batch: Optional[List[PendingScore]],
                           error: BaseException) -> None:
        """Contain an executor-thread crash: fail its batch, respawn.

        The in-flight batch is failed with the crash (those clients'
        requests may genuinely have caused it); while the coalescer is
        running a replacement executor is spawned to pick the *queued*
        requests up, so one poisoned batch does not take the service's
        scoring path down.  During shutdown there is no respawn — the queue
        is drained and failed instead.
        """
        with self._condition:
            restart = self._running and not self._stopping
            if restart:
                self.executor_restarts += 1
                self._spawn_executor()
        failure = CoalescerClosed(f"coalescer executor crashed: {error!r}")
        failure.__cause__ = error
        for request in (batch or []):
            if not request.done():
                request._fail(failure)
        if restart:
            instruments = self._obs.get()
            if instruments is not None:
                instruments.restarts.inc()
        else:
            self._fail_queued(failure)

    def _next_batch(self) -> Optional[List[PendingScore]]:
        """Sleep until something is queued, then drain one batch at once.

        Only an idle executor gets here, so no request waits for co-riders:
        whatever piled up behind the previous batch rides together, in FIFO
        order, whole requests up to ``max_batch_size`` pairs.  ``None`` means
        shutdown with an empty queue.
        """
        with self._condition:
            while not self._queue:
                if self._stopping:
                    return None
                self._condition.wait()
            batch: List[PendingScore] = []
            taken = 0
            while self._queue and (not batch or
                                   taken + len(self._queue[0].pairs) <= self.max_batch_size):
                request = self._queue.popleft()
                batch.append(request)
                taken += len(request.pairs)
            self._queued_pairs -= taken
            queued_pairs = self._queued_pairs
            if self._queue:  # the next request did not fit under the cap
                cause = "cap"
                self.capped_batches += 1
            else:
                cause = "shutdown" if self._stopping else "idle"
            self.batches += 1
            self._batch_sizes_sum += taken
            self._condition.notify_all()  # wake submitters blocked on room
        instruments = self._obs.get()
        if instruments is not None:
            drained_at = time.monotonic()
            instruments.flushes[cause].inc()
            instruments.batch_pairs.observe(taken)
            instruments.queue_depth.set(queued_pairs)
            for request in batch:
                instruments.wait_seconds.observe(drained_at - request.enqueued_at)
        return batch

    def _execute(self, batch: List[PendingScore]) -> None:
        fused: List[EntityPair] = []
        for request in batch:
            fused.extend(request.pairs)
        try:
            scores = np.asarray(self.score_fn(fused))
            if scores.shape != (len(fused),):
                raise ValueError(f"score_fn returned shape {scores.shape} for "
                                 f"{len(fused)} pairs")
        except BaseException as error:  # propagate to every waiting client
            for request in batch:
                request._fail(error)
            return
        with self._condition:
            self.pairs_scored += len(fused)
        instruments = self._obs.get()
        if instruments is not None:
            instruments.pairs_scored.inc(len(fused))
        offset = 0
        for request in batch:
            request._resolve(scores[offset:offset + len(request.pairs)].copy())
            offset += len(request.pairs)

    def __repr__(self) -> str:
        return (f"RequestCoalescer(max_batch_size={self.max_batch_size}, "
                f"pending={self.pending()})")
