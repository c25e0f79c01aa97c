"""SQLiteIndexBackend: bit-exact parity with the in-memory bucket stores.

The backend must be indistinguishable from :class:`MemoryBucketStore`
through the whole posting-list interface — adds under a cap, probes that
skip overflowed buckets, sizes/overflow accounting, and state round-trips —
and, one level up, an ``EntityStore(backend="sqlite")`` must stream to the
same clusters and the same index state as a memory-backed store.
"""

from __future__ import annotations

import numpy as np
import pytest

import _crash_child as child
from repro.pipeline.index import MemoryBucketStore
from repro.serve.store import EntityStore, StoreConfig
from repro.storage.backends import SQLiteIndexBackend


@pytest.fixture()
def backend():
    with_backend = SQLiteIndexBackend()
    yield with_backend
    with_backend.close()


def random_ops(seed, num_ops=300, num_keys=12, num_positions=40):
    """A deterministic op stream hitting tuple keys, caps and repeats."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(num_ops):
        which = int(rng.integers(num_keys))
        # Half the keys are strings (token index), half tuples (LSH bands).
        key = (f"token{which}" if which % 2
               else (which, int(rng.integers(3))))
        ops.append((key, int(rng.integers(num_positions))))
    return ops


class TestBucketStoreParity:
    @pytest.mark.parametrize("cap", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_interface_parity_under_a_cap(self, backend, cap, seed):
        memory = MemoryBucketStore()
        sqlite = backend.bucket_store()
        for key, position in random_ops(seed):
            memory.add(key, position, cap)
            sqlite.add(key, position, cap)
            assert list(sqlite.members(key)) == list(memory.members(key))
        assert dict(sqlite.sizes()) == dict(memory.sizes())
        assert sqlite.overflowed(cap) == memory.overflowed(cap)
        assert len(sqlite) == len(memory)
        assert {key: list(positions) for key, positions in sqlite.entries()} \
            == {key: list(positions) for key, positions in memory.entries()}

    @pytest.mark.parametrize("cap", [2, 3])
    def test_probe_parity_skips_overflowed_buckets(self, backend, cap):
        memory = MemoryBucketStore()
        sqlite = backend.bucket_store()
        ops = random_ops(seed=7)
        keys = sorted({key for key, _ in ops}, key=repr)
        for key, position in ops:
            memory.add(key, position, cap)
            sqlite.add(key, position, cap)
        for probe_keys in (keys, keys[:3], [("nope", 0)], []):
            assert sqlite.probe(probe_keys, cap) == memory.probe(probe_keys, cap)

    def test_add_stops_growing_past_overflow(self, backend):
        sqlite = backend.bucket_store()
        for position in range(10):
            sqlite.add("hot", position, cap=2)
        # Overflow is recorded (cap + 1 members mark it), not unbounded.
        assert len(sqlite.members("hot")) == 3
        assert sqlite.overflowed(2) == 1
        assert sqlite.probe(["hot"], cap=2) == set()

    def test_load_replaces_prior_state(self, backend):
        sqlite = backend.bucket_store()
        sqlite.add("stale", 1, cap=8)
        sqlite.load([("fresh", [0, 2]), ((1, 2), [3])])
        assert {key for key, _ in sqlite.entries()} == {"fresh", (1, 2)}
        assert list(sqlite.members("fresh")) == [0, 2]

    def test_stores_are_isolated_from_each_other(self, backend):
        first, second = backend.bucket_stores(2)
        first.add("shared", 1, cap=8)
        assert list(second.members("shared")) == []
        assert len(second) == 0


def stream_store(config: StoreConfig, records) -> EntityStore:
    store = EntityStore(score_fn=child.score_fn, config=config)
    for record in records:
        store.upsert(record)
    return store


class TestEntityStoreOnSQLite:
    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            EntityStore(config=StoreConfig(backend="rocksdb"))

    def test_sqlite_store_matches_memory_store_bit_exactly(
            self, tiny_music_corpus):
        records = tiny_music_corpus.records
        memory = stream_store(child.store_config(), records)
        sqlite = stream_store(
            StoreConfig(**{**child.store_config().as_dict(),
                           "backend": "sqlite"}), records)
        try:
            # The tight caps exercised retraction; parity must survive it.
            assert memory.counters.pairs_retracted > 0
            assert sqlite.clusters() == memory.clusters()
            assert sqlite.counters == memory.counters
            sqlite_state = sqlite.state_dict()
            memory_state = memory.state_dict()
            assert sqlite_state["indexes"] == memory_state["indexes"]
            # The whole state matches modulo the backend config fields.
            for state in (sqlite_state, memory_state):
                state["config"].pop("backend")
                state["config"].pop("backend_path")
            assert sqlite_state == memory_state
        finally:
            sqlite.close()

    def test_on_disk_database_starts_clean_per_store(self, tiny_music_corpus,
                                                     tmp_path):
        """The WAL + snapshots are the source of truth; the SQLite file is a
        paging layer a fresh store may reuse without inheriting stale rows."""
        path = str(tmp_path / "postings.db")
        config = StoreConfig(**{**child.store_config().as_dict(),
                                "backend": "sqlite", "backend_path": path})
        records = tiny_music_corpus.records[:15]
        first = stream_store(config, records)
        clusters = first.clusters()
        first.close()
        second = stream_store(config, records)
        try:
            assert second.clusters() == clusters
            assert len(second) == len(records)
        finally:
            second.close()

    def test_backend_fields_round_trip_config_but_not_pipeline(self):
        config = StoreConfig(backend="sqlite")
        assert StoreConfig.from_dict(config.as_dict()) == config
        pipeline_config = config.to_pipeline_config()
        assert not hasattr(pipeline_config, "backend")
