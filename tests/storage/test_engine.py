"""Storage engine: meta, auto-snapshot cadence, open/recover guards, and
the durable-service wiring (WAL fsync SLO, storage stats)."""

from __future__ import annotations

import json

import pytest

import _crash_child as child
from repro.serve.service import LinkageService, ServiceConfig
from repro.serve.store import EntityStore, StoreConfig
from repro.storage import (META_FILENAME, STORAGE_FORMAT_VERSION, Storage,
                           StorageConfig, StorageError)

from pipeline.blocking_oracle import store_buckets


@pytest.fixture(scope="module")
def records():
    return child.build_records()


def fresh_storage(data_dir, **overrides) -> Storage:
    defaults = dict(snapshot_every=child.SNAPSHOT_EVERY,
                    wal_segment_max_entries=child.SEGMENT_MAX_ENTRIES)
    defaults.update(overrides)
    return Storage(data_dir, score_fn=child.score_fn,
                   store_config=child.store_config(),
                   config=StorageConfig(**defaults))


class TestLifecycle:
    def test_meta_file_pins_the_store_config(self, tmp_path, records):
        storage = fresh_storage(tmp_path)
        storage.close()
        meta = json.loads((tmp_path / META_FILENAME).read_text(encoding="utf-8"))
        assert meta["format_version"] == STORAGE_FORMAT_VERSION
        assert StoreConfig.from_dict(meta["store_config"]) == \
            child.store_config()

    def test_recover_uses_the_meta_config_without_being_told(self, tmp_path,
                                                             records):
        storage = fresh_storage(tmp_path)
        for record in records[:5]:
            storage.upsert(record)
        storage.close()
        recovered = Storage.recover(tmp_path, score_fn=child.score_fn)
        try:
            assert recovered.store.config == child.store_config()
            assert len(recovered.store) == 5
        finally:
            recovered.close()

    def test_constructing_over_a_populated_directory_refuses(self, tmp_path,
                                                             records):
        storage = fresh_storage(tmp_path)
        for record in records[:3]:
            storage.upsert(record)
        storage.close()
        with pytest.raises(StorageError, match="recover"):
            Storage(tmp_path, score_fn=child.score_fn,
                    store_config=child.store_config())

    def test_open_dispatches_fresh_vs_recover(self, tmp_path, records):
        first = Storage.open(tmp_path / "data", score_fn=child.score_fn,
                             store_config=child.store_config())
        for record in records[:4]:
            first.upsert(record)
        first.close()
        second = Storage.open(tmp_path / "data", score_fn=child.score_fn)
        try:
            assert second.last_recovery is not None
            assert len(second.store) == 4
        finally:
            second.close()

    def test_wal_holds_one_entry_per_upsert(self, tmp_path, records):
        storage = fresh_storage(tmp_path, snapshot_every=None)
        for record in records[:6]:
            storage.upsert(record)
        # Idempotent re-upserts commit nothing and must not be logged.
        storage.upsert(records[0])
        assert storage.wal.last_lsn == 6
        assert len(storage.fsync_latency_samples()) == 6
        storage.close()


class TestCompaction:
    def test_auto_snapshot_cadence_and_wal_pruning(self, tmp_path, records):
        storage = fresh_storage(tmp_path)
        for record in records[:25]:
            storage.upsert(record)
        try:
            lsns = [lsn for lsn, _ in storage.snapshots.list()]
            assert lsns == [10, 20]  # keep=2 of the cadence snapshots
            stats = storage.stats()
            assert stats["snapshot_lsn"] == 20.0
            assert stats["wal_tail_entries"] == 5.0
            # Pruning dropped every segment fully covered by the snapshot.
            assert stats["wal_entries"] < 25
        finally:
            storage.close()

    def test_recovery_replays_only_the_tail(self, tmp_path, records):
        storage = fresh_storage(tmp_path)
        for record in records[:25]:
            storage.upsert(record)
        storage.close()
        recovered = Storage.recover(tmp_path, score_fn=child.score_fn,
                                    config=child.storage_config())
        try:
            report = recovered.last_recovery
            assert report.snapshot_lsn == 20
            assert report.replayed_entries == 5
            assert report.records == 25
        finally:
            recovered.close()

    def test_manual_snapshot_without_cadence(self, tmp_path, records):
        storage = fresh_storage(tmp_path, snapshot_every=None)
        for record in records[:7]:
            storage.upsert(record)
        path = storage.snapshot()
        try:
            assert path.exists()
            assert storage.stats()["wal_tail_entries"] == 0.0
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert payload["lsn"] == 7
            assert EntityStore.from_state_dict(payload["store"]).clusters() \
                == storage.store.clusters()
        finally:
            storage.close()


class TestRecoveryGuards:
    def test_snapshot_ahead_of_wal_is_an_error(self, tmp_path, records):
        storage = fresh_storage(tmp_path)
        for record in records[:12]:
            storage.upsert(record)
        storage.close()
        for segment in list(tmp_path.glob("wal-*.log")):
            segment.unlink()
        with pytest.raises(StorageError, match="missing"):
            Storage.recover(tmp_path, score_fn=child.score_fn)

    def test_tampered_scores_fail_replay_loudly(self, tmp_path, records):
        storage = fresh_storage(tmp_path, snapshot_every=None)
        for record in records[:6]:
            storage.upsert(record)
        storage.close()
        # Drop a score from some WAL entry that recorded one: replay must
        # refuse to guess.
        segment = sorted(tmp_path.glob("wal-*.log"))[0]
        lines = []
        tampered = False
        import struct
        from zlib import crc32
        blob = segment.read_bytes()
        offset, out = 0, b""
        header = struct.Struct(">II")
        while offset < len(blob):
            length, _ = header.unpack_from(blob, offset)
            start = offset + header.size
            payload = json.loads(blob[start:start + length])
            if not tampered and payload["scores"]:
                payload["scores"].popitem()
                tampered = True
            raw = json.dumps(payload, sort_keys=True).encode("utf-8")
            out += header.pack(len(raw), crc32(raw)) + raw
            offset = start + length
        assert tampered
        segment.write_bytes(out)
        with pytest.raises(StorageError):
            Storage.recover(tmp_path, score_fn=child.score_fn)

    def test_snapshot_members_contradicting_its_edges_never_load(self, tmp_path,
                                                                 records):
        # A snapshot's entities are a checksum of its match edges: flip one
        # member and recovery must name the file, not serve the clusters.
        storage = fresh_storage(tmp_path)
        for record in records[:12]:
            storage.upsert(record)
        storage.close()
        _, path = storage.snapshots.latest()
        payload = json.loads(path.read_text(encoding="utf-8"))
        members = payload["store"]["members"]
        donor = next(entity_id for entity_id in sorted(members)
                     if len(members[entity_id]) > 1)
        taker = next(entity_id for entity_id in sorted(members) if entity_id != donor)
        members[taker].append(members[donor].pop())
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        with pytest.raises(StorageError, match=path.name):
            Storage.recover(tmp_path, score_fn=child.score_fn)

    def test_unknown_meta_config_key_names_the_meta_file(self, tmp_path, records):
        storage = fresh_storage(tmp_path, snapshot_every=None)
        for record in records[:3]:
            storage.upsert(record)
        storage.close()
        rewrite_store_configs(tmp_path, {"frobnicate": 1})
        # Both readers of the meta file: recovery without a snapshot, and a
        # construction that takes its config from the meta file.
        with pytest.raises(StorageError, match=f"{META_FILENAME}.*frobnicate"):
            Storage.open(tmp_path, score_fn=child.score_fn)
        with pytest.raises(StorageError, match=f"{META_FILENAME}.*frobnicate"):
            Storage(tmp_path, score_fn=child.score_fn)

    def test_unknown_snapshot_config_key_names_the_snapshot(self, tmp_path, records):
        storage = fresh_storage(tmp_path)
        for record in records[:12]:
            storage.upsert(record)
        storage.close()
        rewrite_store_configs(tmp_path, {"frobnicate": 1})
        _, path = storage.snapshots.latest()
        with pytest.raises(StorageError, match=f"{path.name}.*frobnicate"):
            Storage.recover(tmp_path, score_fn=child.score_fn)


    @pytest.mark.parametrize("key", ["store", "config", "records", "scores", "support",
                                     "members"])
    def test_snapshot_missing_a_key_names_the_snapshot(self, tmp_path, records, key):
        storage = fresh_storage(tmp_path)
        for record in records[:12]:
            storage.upsert(record)
        storage.close()
        _, path = storage.snapshots.latest()
        payload = json.loads(path.read_text(encoding="utf-8"))
        del (payload if key == "store" else payload["store"])[key]
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        with pytest.raises(StorageError, match=f"{path.name}.*'{key}'"):
            Storage.recover(tmp_path, score_fn=child.score_fn)

    def test_snapshot_pairing_missing_records_names_the_snapshot(self, tmp_path, records):
        # Pairs that name positions past the snapshot's records: refused as
        # malformed, not an IndexError from the clustering pass.
        storage = fresh_storage(tmp_path)
        for record in records[:30]:
            storage.upsert(record)
        storage.close()
        lsn, path = storage.snapshots.latest()
        assert lsn == 30
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["store"]["records"][-3:]
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        with pytest.raises(StorageError, match=f"{path.name}.*pair"):
            Storage.recover(tmp_path, score_fn=child.score_fn)

    @pytest.mark.parametrize("meta", [{"format_version": STORAGE_FORMAT_VERSION}, []],
                             ids=["no-store-config", "not-an-object"])
    def test_malformed_meta_names_the_meta_file(self, tmp_path, records, meta):
        storage = fresh_storage(tmp_path, snapshot_every=None)
        for record in records[:3]:
            storage.upsert(record)
        storage.close()
        (tmp_path / META_FILENAME).write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(StorageError, match=META_FILENAME):
            Storage.open(tmp_path, score_fn=child.score_fn)
        with pytest.raises(StorageError, match=f"{META_FILENAME}.*'store_config'"
                           if meta else META_FILENAME):
            Storage(tmp_path, score_fn=child.score_fn)


def rewrite_store_configs(data_dir, extra) -> None:
    """Add ``extra`` keys to the store config of the meta file and of every
    snapshot under ``data_dir``."""
    meta_path = data_dir / META_FILENAME
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["store_config"].update(extra)
    meta_path.write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
    for path in data_dir.glob("snapshot-*.json"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["store"]["config"].update(extra)
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


class TestRetiredConfigKeys:
    """Data directories written while ``StoreConfig`` still had its
    posting-list backend fields carry ``"backend"`` / ``"backend_path"`` in
    the meta file and in every snapshot; they recover as if the keys were
    absent, whatever their values."""

    @pytest.mark.parametrize("retired", [
        {"backend": "memory", "backend_path": None},
        {"backend": "paged", "backend_path": "postings.db"},
    ])
    @pytest.mark.parametrize("snapshot_every,snapshot_lsn", [(10, 20), (None, 0)])
    def test_directory_with_retired_keys_recovers(self, tmp_path, records, retired,
                                                  snapshot_every, snapshot_lsn):
        storage = fresh_storage(tmp_path, snapshot_every=snapshot_every)
        for record in records[:25]:
            storage.upsert(record)
        storage.close()
        rewrite_store_configs(tmp_path, retired)
        reference = EntityStore(score_fn=child.score_fn, config=child.store_config())
        for record in records[:25]:
            reference.upsert(record)
        recovered = Storage.open(tmp_path, score_fn=child.score_fn,
                                 config=child.storage_config())
        try:
            assert recovered.last_recovery.snapshot_lsn == snapshot_lsn
            assert recovered.store.config == child.store_config()
            assert recovered.store.entities() == reference.entities()
            assert recovered.store.state_dict() == reference.state_dict()
            assert store_buckets(recovered.store) == store_buckets(reference)
        finally:
            recovered.close()


class TestDurableService:
    def test_storage_is_mutually_exclusive_with_store_config(self, tmp_path):
        storage = fresh_storage(tmp_path)
        try:
            with pytest.raises(ValueError, match="storage"):
                LinkageService(child.HashPredictor(), storage=storage,
                               store_config=child.store_config())
        finally:
            storage.close()

    def test_durable_service_feeds_the_wal_fsync_slo(self, tmp_path, records):
        storage = fresh_storage(tmp_path, snapshot_every=None)
        config = ServiceConfig(request_timeout=30.0)
        with LinkageService(child.HashPredictor(), storage=storage,
                            service_config=config) as service:
            for record in records[:8]:
                service.upsert(record)
            assert storage.wal.last_lsn == 8
            report = service.health()
            by_name = {o["name"]: o for o in report["objectives"]}
            fsync = by_name["wal_fsync_latency"]
            assert fsync["status"] != "no_data"
            assert fsync["windows"]["600s"]["total"] == 8.0
            stats = service.stats()
            assert stats["storage"]["wal_last_lsn"] == 8.0
            out = service.snapshot()  # no path: compacted engine snapshot
            assert out.name.startswith("snapshot-")
        storage.close()
