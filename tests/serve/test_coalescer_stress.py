"""Seeded thread-stress of the batching layer.

More client threads than cores, a shortened switch interval, a queue bound
small enough that submitters block on it, and a share of requests whose
budget is nearly zero: every answer must still be the caller's own slice of
the fused scores, and the counters must add up.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro.core import AdaMELHybrid
from repro.infer import BatchedPredictor
from repro.pipeline import LinkagePipeline
from repro.serve import CoalescerQueueFull, LinkageService, RequestCoalescer

from test_coalescer import WAIT, index_scores, make_pairs

THREADS = 8
REQUESTS_PER_THREAD = 200


@pytest.fixture()
def eager_thread_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def run_clients(targets) -> None:
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(6 * WAIT)
    assert not any(thread.is_alive() for thread in threads)


@pytest.mark.parametrize("seed", [0, 1])
def test_coalescer_under_contention_gives_everyone_their_own_scores(
        seed, eager_thread_switching):
    saturation = []
    coalescer = RequestCoalescer(index_scores, max_batch_size=8, max_queue_size=12,
                                 queue_sample_fn=saturation.append)
    outcomes = {"answered": 0, "accepted_pairs": 0, "no_room": 0, "gave_up": 0}
    wrong = []
    tally = threading.Lock()

    def client(thread_index: int) -> None:
        rng = random.Random(1000 * seed + thread_index)
        for request_index in range(REQUESTS_PER_THREAD):
            start = (thread_index * REQUESTS_PER_THREAD + request_index) * 10
            pairs = make_pairs(start, start + rng.randint(1, 9))
            impatient = rng.random() < 0.2
            outcome, scores = "answered", None
            try:
                scores = coalescer.score(pairs, timeout=1e-5 if impatient else WAIT)
            except CoalescerQueueFull:
                outcome = "no_room"
            except TimeoutError:   # accepted, but the waiter left: the pairs
                outcome = "gave_up"  # are scored anyway, for nobody
            if scores is not None and not np.array_equal(scores, index_scores(pairs)):
                wrong.append((thread_index, request_index))
            with tally:
                outcomes[outcome] += 1
                if outcome != "no_room":
                    outcomes["accepted_pairs"] += len(pairs)

    with coalescer:
        run_clients([lambda index=index: client(index) for index in range(THREADS)])
    # stop() drained the queue, so everything accepted has been scored.
    stats = coalescer.stats()
    assert not wrong
    assert sum(outcomes[key] for key in ("answered", "no_room", "gave_up")) \
        == THREADS * REQUESTS_PER_THREAD
    assert stats["requests"] == outcomes["answered"] + outcomes["gave_up"]
    assert stats["rejected"] == outcomes["no_room"]
    assert stats["pairs_scored"] == outcomes["accepted_pairs"]
    assert stats["batches"] <= stats["requests"]
    assert stats["queued_pairs"] == 0.0 and coalescer.pending() == 0
    assert stats["executor_restarts"] == 0.0
    # 8 clients x up to 9 pairs against a 12-pair bound: the bound was
    # reached (submitters had to wait for room) and never exceeded.
    assert len(saturation) == stats["requests"]
    assert max(saturation) == 1.0


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    return BatchedPredictor.from_trainer(trainer)


def test_queries_racing_a_writer_stay_healthy_and_batch_equal(
        predictor, tiny_music_corpus, eager_thread_switching):
    # The writer holds the store lock across its scoring round trip while
    # four readers push their own requests through the same executor.
    records = list(tiny_music_corpus.records)
    writing = threading.Event()
    writing.set()
    answers = []

    def writer() -> None:
        try:
            for record in records:
                service.upsert(record, timeout=WAIT)
        finally:
            writing.clear()

    def reader(offset: int) -> None:
        mine = []
        position = offset
        while writing.is_set() or len(mine) < 20:
            mine.append(service.query(records[position % len(records)], timeout=WAIT))
            position += 4
        answers.append(mine)

    with LinkageService(predictor) as service:
        run_clients([writer] + [lambda offset=offset: reader(offset)
                                for offset in range(4)])
        stats = service.stats()
        clusters = service.store.clusters()
    assert len(answers) == 4
    assert not any(result.degraded for mine in answers for result in mine)
    assert stats["service"]["degraded_queries"] == 0.0
    assert stats["store"]["records"] == float(len(records))
    assert stats["coalescer"]["batches"] <= stats["coalescer"]["requests"]
    assert clusters == LinkagePipeline(predictor).run(records).clusters.clusters
