"""Hammer tests: the EncodingCache slot arena under concurrent fetch/clear traffic.

Online serving fetches from the process-wide cache on many threads.  These
tests drive it hard from worker threads and then check what the arena
promises: every row a fetch returns is the row of its key (also when the
arena was reset while the fetch held ids into it), the byte budget holds,
and every lookup counts once, as a hit or a miss.

The encoders in front of the cache share more than it: the vocabulary table
is process-wide per configuration and the text table is process-wide, so the
last class encodes from several threads at once and compares with a
sequential run.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.data.records import EntityPair, Record
from repro.data.schema import Schema
from repro.features import EncodingCache, PairEncoder
from repro.text import HashedEmbedder, Tokenizer
from repro.text.tokenizer import text_table

from arena_oracle import cache_invariants_hold, fetch_checked, reference_rows
from encode_oracle import stacked_encode_pair

ROW_BYTES = (2 * 4 + 2) * 8  # the oracle's rows: (2, 4) features + (2,) mask


def random_keys(rng, pool: int, size: int):
    return [(f"l{i}", f"r{i % 7}") for i in rng.integers(0, pool, size=size)]


class TestEncodingCacheHammer:
    @pytest.mark.slow
    def test_concurrent_lookup_store_keeps_budget_and_counters(self):
        # The budget holds ten rows of a forty-key space, so the arena starts
        # over again and again while every thread fetches overlapping keys.
        cache = EncodingCache(max_bytes=ROW_BYTES * 10)
        num_threads, calls = 8, 300
        lookups_per_thread = []
        errors = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            lookups = 0
            try:
                for _ in range(calls):
                    keys = random_keys(rng, 40, int(rng.integers(1, 6)))
                    fetch_checked(cache, keys)
                    lookups += len(keys)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)
            lookups_per_thread.append(lookups)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(num_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert cache_invariants_hold(cache)
        # Every lookup increments exactly one of hits/misses, atomically.
        assert cache.hits + cache.misses == sum(lookups_per_thread)
        assert cache.evictions > 0
        assert len(cache) <= 10

    @pytest.mark.slow
    def test_concurrent_clear_does_not_corrupt_the_budget(self):
        cache = EncodingCache(max_bytes=ROW_BYTES * 6)
        stop = threading.Event()
        errors = []

        def fetcher(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    fetch_checked(cache, random_keys(rng, 24, int(rng.integers(1, 4))))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def clearer() -> None:
            try:
                while not stop.is_set():
                    cache.clear()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = ([threading.Thread(target=fetcher, args=(seed,)) for seed in range(6)]
                   + [threading.Thread(target=clearer)])
        for thread in threads:
            thread.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for thread in threads:
            thread.join(timeout=30)
        timer.cancel()

        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert cache_invariants_hold(cache)
        # The cache must still work normally after the storm.
        cache.clear()
        fetch_checked(cache, [("l1", "r1")])
        fetch_checked(cache, [("l1", "r1")])
        assert cache.lookup_counts() == (1, 1)

    def test_reset_under_a_reader_holding_ids_returns_correct_rows(self):
        """A fetch reads its hits' ids, then encodes its misses; if another
        fetch resets the arena meanwhile, the hits still come back right."""
        cache = EncodingCache(max_bytes=ROW_BYTES * 4)
        held = [("l1", "r1"), ("l2", "r2"), ("l3", "r3")]
        fetch_checked(cache, held)
        arrays_before = cache._arenas["enc"].features

        def encode_while_another_fetch_resets(positions):
            fetch_checked(cache, [("l7", "r7"), ("l8", "r8"), ("l9", "r9")])
            assert cache._arenas["enc"].features is not arrays_before  # reset happened
            return reference_rows([keys[i] for i in positions])

        keys = held + [("l4", "r4")]
        features, mask = cache.fetch(("enc", 0), keys, encode_while_another_fetch_resets)
        assert np.array_equal(features, reference_rows(keys)[0])
        assert np.array_equal(mask, reference_rows(keys)[1])
        assert cache_invariants_hold(cache)


class TestConcurrentEncoders:
    """Threads encoding through encoders that share vocabulary and text memo."""

    SCHEMA = Schema(("name", "title", "genre"))

    def corpus(self):
        rng = np.random.default_rng(3)
        words = [f"tok{i}" for i in range(80)]
        records = [Record(f"r{i}", f"s{i % 3}",
                          {a: " ".join(rng.choice(words, size=int(rng.integers(0, 5))))
                           for a in self.SCHEMA})
                   for i in range(60)]
        picks = rng.integers(0, len(records), size=(240, 2))
        return [EntityPair(records[i], records[j], pair_id=f"p{n}")
                for n, (i, j) in enumerate(picks)]

    def encoder(self, seed: int, cache=None) -> PairEncoder:
        # Same configuration -> same rows of the text table's generations.
        tokenizer = Tokenizer(crop_size=4)
        embedder = HashedEmbedder(dim=8, seed=seed, tokenizer=tokenizer)
        return PairEncoder(self.SCHEMA, embedder=embedder, tokenizer=tokenizer,
                           cache=cache, use_cache=cache is not None)

    @pytest.mark.parametrize("values", [1 << 16, 8], ids=["roomy", "resetting"])
    def test_threads_equal_the_sequential_result(self, values, monkeypatch):
        # ``values``: texts per text-table generation.
        monkeypatch.setattr(text_table(), "bound", values)
        self.assert_threads_equal_the_sequential_result(shared_cache=None)

    def test_threads_sharing_a_small_cache_equal_the_sequential_result(self):
        # Room for 40 slot rows: the shared arena starts over many times.
        row_bytes = (2 * 8 + 2) * 8
        self.assert_threads_equal_the_sequential_result(
            shared_cache=EncodingCache(max_bytes=row_bytes * 40))

    def assert_threads_equal_the_sequential_result(self, shared_cache):
        pairs = self.corpus()
        reference = self.encoder(53)
        expected = stacked_encode_pair(reference, pairs)
        reference.tokenizer.clear_memo()
        reference.embedder.clear_memo()

        # Overlapping slices, different batch sizes per thread.
        num_threads = 4
        results = [None] * num_threads
        errors = []
        start = threading.Barrier(num_threads)

        def worker(index: int) -> None:
            encoder = self.encoder(53, cache=shared_cache)
            batch_size = (1, 7, 32, 240)[index]
            try:
                start.wait(timeout=10)
                chunks = [encoder.encode(pairs[s:s + batch_size])
                          for s in range(0, len(pairs), batch_size)]
                results[index] = (np.concatenate([c.features for c in chunks]),
                                  np.concatenate([c.feature_mask for c in chunks]))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(num_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for features, mask in results:
            assert np.array_equal(features, expected.features)
            assert np.array_equal(mask, expected.feature_mask)
        if shared_cache is not None:
            assert cache_invariants_hold(shared_cache)
            assert shared_cache.evictions > 0
