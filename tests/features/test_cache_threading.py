"""Hammer tests: EncodingCache under concurrent lookup/store/clear traffic.

Before the serve subsystem, the process-wide cache was only touched from one
thread; online serving hits it from many.  These tests drive it hard from
worker threads and then check the structural invariants the byte-budget
eviction relies on (tracked bytes == sum of entry bytes <= budget, consistent
hit/miss accounting).

The encoders in front of the cache share more than it: the vocabulary table
and the text -> token-id memo are process-wide per configuration, so the last
class encodes from several threads at once and compares with a sequential run.
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

from encode_oracle import stacked_encode_pair


def entry_arrays(rng: np.random.Generator, size: int = 8):
    features = rng.normal(size=(size, size))
    mask = np.ones(size)
    return features, mask


def cache_invariants_hold(cache: EncodingCache) -> bool:
    entries = list(cache._entries.values())
    tracked = sum(features.nbytes + mask.nbytes for features, mask in entries)
    return cache.current_bytes == tracked and cache.current_bytes <= cache.max_bytes


class TestEncodingCacheHammer:
    @pytest.mark.slow
    def test_concurrent_lookup_store_keeps_budget_and_counters(self):
        # Budget fits only a fraction of the keyspace, so eviction churns
        # constantly while every thread hammers overlapping keys.
        entry_bytes = 8 * 8 * 8 + 8 * 8
        cache = EncodingCache(max_bytes=entry_bytes * 10)
        num_threads, ops = 8, 400
        lookups_per_thread = []
        errors = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            lookups = 0
            try:
                for index in range(ops):
                    key = ("pair", int(rng.integers(0, 40)))
                    if cache.lookup(key) is None:
                        features, mask = entry_arrays(rng)
                        cache.store(key, features, mask)
                    lookups += 1
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)
            lookups_per_thread.append(lookups)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert cache_invariants_hold(cache)
        # Every lookup increments exactly one of hits/misses, atomically.
        assert cache.hits + cache.misses == sum(lookups_per_thread)
        assert len(cache) <= 10

    @pytest.mark.slow
    def test_concurrent_clear_does_not_corrupt_the_budget(self):
        entry_bytes = 8 * 8 * 8 + 8 * 8
        cache = EncodingCache(max_bytes=entry_bytes * 6)
        stop = threading.Event()
        errors = []

        def mutator(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    key = ("pair", int(rng.integers(0, 24)))
                    if cache.lookup(key) is None:
                        features, mask = entry_arrays(rng)
                        cache.store(key, features, mask)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def clearer() -> None:
            try:
                while not stop.is_set():
                    cache.clear()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = ([threading.Thread(target=mutator, args=(seed,)) for seed in range(6)]
                   + [threading.Thread(target=clearer)])
        for thread in threads:
            thread.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for thread in threads:
            thread.join()
        timer.cancel()

        assert not errors
        assert cache_invariants_hold(cache)
        # The cache must still work normally after the storm.
        features, mask = entry_arrays(np.random.default_rng(0))
        cache.store(("after", 0), features, mask)
        cached = cache.lookup(("after", 0))
        assert cached is not None
        np.testing.assert_array_equal(cached[0], features)


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

    def encoder(self, seed: int, values: int, tokens: int) -> PairEncoder:
        # Same configuration -> same process-wide vocabulary and text memo.
        tokenizer = Tokenizer(crop_size=4, cache_size=values)
        embedder = HashedEmbedder(dim=8, seed=seed, tokenizer=tokenizer, cache_size=tokens)
        return PairEncoder(self.SCHEMA, embedder=embedder, tokenizer=tokenizer,
                           use_cache=False)

    @pytest.mark.parametrize("values,tokens", [(1 << 16, 100_000), (8, 16)],
                             ids=["roomy", "resetting"])
    def test_threads_equal_the_sequential_result(self, values, tokens):
        pairs = self.corpus()
        reference = self.encoder(53, values, tokens)
        expected = stacked_encode_pair(reference, pairs)
        reference.tokenizer.clear_memo()
        reference.embedder.clear_memo()

        # Overlapping slices, different batch sizes per thread.
        num_threads = 4
        results = [None] * num_threads
        errors = []
        start = threading.Barrier(num_threads)

        def worker(index: int) -> None:
            encoder = self.encoder(53, values, tokens)
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
