"""SnapshotManager protocol, and the snapshot not holding the store lock
while it serializes and writes (a concurrent upsert completes while a
snapshot is mid-write)."""

from __future__ import annotations

import threading

import pytest

import _crash_child as child
from repro.serve.store import EntityStore
from repro.storage import SnapshotManager, Storage


class TestSnapshotManager:
    def test_take_and_load_latest_round_trip(self, tmp_path):
        manager = SnapshotManager(tmp_path)
        manager.take({"value": 1}, lsn=10)
        manager.take({"value": 2}, lsn=25)
        lsn, payload = manager.load_latest()
        assert (lsn, payload) == (25, {"value": 2})

    def test_list_is_sorted_by_lsn(self, tmp_path):
        manager = SnapshotManager(tmp_path, keep=5)
        for lsn in (30, 10, 20):
            manager.take({"lsn_was": lsn}, lsn=lsn)
        assert [lsn for lsn, _ in manager.list()] == [10, 20, 30]

    def test_retention_prunes_oldest(self, tmp_path):
        manager = SnapshotManager(tmp_path, keep=2)
        for lsn in (10, 20, 30):
            manager.take({}, lsn=lsn)
        assert [lsn for lsn, _ in manager.list()] == [20, 30]

    def test_no_temp_files_survive_publication(self, tmp_path):
        SnapshotManager(tmp_path).take({"value": 1}, lsn=1)
        assert [p.name for p in tmp_path.iterdir()] == \
            [f"snapshot-{1:016d}.json"]

    def test_cleanup_removes_stale_temp_files_only(self, tmp_path):
        manager = SnapshotManager(tmp_path)
        manager.take({}, lsn=5)
        stale = tmp_path / ".snapshot-0000000000000009.json.tmp"
        stale.write_text("{", encoding="utf-8")
        assert manager.cleanup() == 1
        assert not stale.exists()
        assert manager.latest()[0] == 5

    def test_damaged_newest_degrades_to_previous(self, tmp_path):
        manager = SnapshotManager(tmp_path)
        manager.take({"value": 1}, lsn=10)
        manager.take({"value": 2}, lsn=20)
        newest = manager.latest()[1]
        newest.write_text("not json", encoding="utf-8")
        assert manager.load_latest() == (10, {"value": 1})

    def test_empty_directory_has_nothing_to_load(self, tmp_path):
        manager = SnapshotManager(tmp_path)
        assert manager.latest() is None
        assert manager.load_latest() is None

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            SnapshotManager(tmp_path, keep=0)


class TestSnapshotLocking:
    def test_concurrent_upsert_completes_while_snapshot_is_mid_write(
            self, tiny_music_corpus, tmp_path, monkeypatch):
        """Serialization and the file write happen outside the store lock:
        park the snapshot thread inside ``SnapshotManager.take`` and prove
        an upsert still goes through before the snapshot finishes."""
        records = tiny_music_corpus.records
        storage = Storage(tmp_path / "data", score_fn=child.score_fn,
                          store_config=child.store_config())
        for record in records[:20]:
            storage.upsert(record)
        mid_write = threading.Event()
        release = threading.Event()
        real_take = storage.snapshots.take

        def parked_take(payload, lsn):
            mid_write.set()
            assert release.wait(timeout=10.0)
            return real_take(payload, lsn)

        monkeypatch.setattr(storage.snapshots, "take", parked_take)
        snapshotter = threading.Thread(target=storage.snapshot)
        snapshotter.start()
        try:
            assert mid_write.wait(timeout=10.0)
            upserted = threading.Event()

            def upsert():
                storage.upsert(records[20])
                upserted.set()

            writer = threading.Thread(target=upsert)
            writer.start()
            finished = upserted.wait(timeout=10.0)
            writer.join(timeout=10.0)
            assert finished, "upsert blocked behind a mid-write snapshot"
        finally:
            release.set()
            snapshotter.join(timeout=10.0)
        assert not snapshotter.is_alive()
        # The snapshot captured the pre-upsert state it froze under the lock.
        lsn, payload = storage.snapshots.load_latest()
        assert lsn == 20
        assert len(EntityStore.from_state_dict(payload["store"])) == 20
        assert len(storage.store) == 21
        storage.close()
