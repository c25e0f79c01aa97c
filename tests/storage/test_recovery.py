"""Crash harness: kill a child at every storage fault site, recover,
assert bit-exactness with a store that never crashed.

The child (``_crash_child.py``) streams a deterministic shuffled corpus
through a :class:`repro.storage.Storage` with tight bucket caps (so the
overflow/retraction machinery is live) and a small snapshot cadence (so
crashes land before, between, and after compactions).  The parent arms one
``kill`` fault per case, asserts the child died with the kill exit code, then
recovers the data directory and checks three things:

* the restored store's ``state_dict()`` — records, scores, support,
  entities, counters — and its index buckets (rebuilt from the records, as a
  snapshot carries none) equal a reference store that upserted exactly the
  surviving prefix;
* the restored clusters equal one batch ``LinkagePipeline.run`` over that
  prefix (the store's core parity contract survives a crash);
* the recovered engine keeps serving: streaming the rest of the corpus
  through it lands on the same state as an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import _crash_child as child
from repro.pipeline import LinkagePipeline
from repro.resilience.faults import FAULT_PLAN_ENV, KILL_EXIT_CODE, SITES
from repro.serve.store import EntityStore
from repro.storage import Storage

from pipeline.blocking_oracle import store_buckets

CHILD = Path(child.__file__).resolve()

# (storage fault site, hit number that kills, committed upserts that must survive).
# The WAL append is the commit point: dying before (or inside) append N
# leaves N-1 upserts, dying after it leaves N — even when the in-memory
# commit never ran.  Snapshot-point crashes happen *after* the triggering
# upsert committed, at lsn = hits * snapshot_every.
CASES = [
    ("before_wal_append", 3, 2),
    ("before_wal_append", 14, 13),   # crosses the lsn-10 snapshot
    ("wal_append", 3, 2),            # the I/O-error site, killed instead
    ("mid_wal_append", 3, 2),        # torn tail: header durable, payload not
    ("after_wal_append", 3, 3),      # WAL ahead of the in-memory store
    ("after_wal_append", 14, 14),
    ("after_commit", 3, 3),
    ("before_snapshot_rename", 2, 2 * child.SNAPSHOT_EVERY),
    ("after_snapshot_rename", 2, 2 * child.SNAPSHOT_EVERY),
]


def run_child(data_dir: Path, point=None, hits=1) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop(FAULT_PLAN_ENV, None)
    if point is not None:
        env[FAULT_PLAN_ENV] = json.dumps(
            [{"site": f"storage.{point}", "kind": "kill", "at_hit": hits}])
    return subprocess.run([sys.executable, str(CHILD), str(data_dir)],
                         env=env, capture_output=True, text=True)


@pytest.fixture(scope="module")
def records():
    stream = child.build_records()
    # Every case needs a strict prefix to survive AND a remainder to
    # continue with; the snapshot cases survive 2 * SNAPSHOT_EVERY records.
    assert len(stream) > 2 * child.SNAPSHOT_EVERY + 1
    return stream


@pytest.fixture(scope="module")
def reference(records):
    """One uninterrupted reference stream, with its state captured at every
    prefix length a crash case can leave behind."""
    needed = {expected for _, _, expected in CASES}
    store = EntityStore(score_fn=child.score_fn, config=child.store_config())
    states = {}
    for count, record in enumerate(records, start=1):
        store.upsert(record)
        if count in needed:
            states[count] = (store.state_dict(), store.clusters(), store_buckets(store))
    return {"prefix": states, "full_state": store.state_dict(),
            "full_clusters": store.clusters(), "full_buckets": store_buckets(store)}


@pytest.fixture(scope="module")
def batch_clusters(records):
    """Batch-pipeline clusters over every surviving-prefix length."""
    config = child.store_config().to_pipeline_config()
    return {n: LinkagePipeline(child.HashPredictor(),
                               config=config).run(records[:n]).clusters.clusters
            for n in {expected for _, _, expected in CASES}}


def test_case_table_covers_every_crash_point():
    assert ({f"storage.{point}" for point, _, _ in CASES}
            == {site for site in SITES if site.startswith("storage.")})


@pytest.mark.parametrize("point,hits,expected",
                         CASES, ids=[f"{p}-hit{h}" for p, h, _ in CASES])
def test_recovery_is_bit_exact_at_every_crash_point(tmp_path, records,
                                                    reference, batch_clusters,
                                                    point, hits, expected):
    data_dir = tmp_path / "data"
    proc = run_child(data_dir, point=point, hits=hits)
    assert proc.returncode == KILL_EXIT_CODE, (proc.stdout, proc.stderr)

    storage = Storage.recover(data_dir, score_fn=child.score_fn,
                              config=child.storage_config())
    try:
        assert len(storage.store) == expected

        ref_state, ref_clusters, ref_buckets = reference["prefix"][expected]
        assert storage.store.state_dict() == ref_state
        assert store_buckets(storage.store) == ref_buckets
        assert storage.store.clusters() == ref_clusters
        assert storage.store.clusters() == batch_clusters[expected]
        assert storage.wal.last_lsn == expected

        # The recovered engine is live: finish the stream through it and
        # land exactly where the uninterrupted run did.
        for record in records[expected:]:
            storage.upsert(record)
        assert storage.store.state_dict() == reference["full_state"]
        assert store_buckets(storage.store) == reference["full_buckets"]
        assert storage.store.clusters() == reference["full_clusters"]
    finally:
        storage.close()


def test_clean_run_recovers_fully(tmp_path, reference):
    data_dir = tmp_path / "data"
    proc = run_child(data_dir)
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    storage = Storage.recover(data_dir, score_fn=child.score_fn,
                              config=child.storage_config())
    try:
        assert storage.store.state_dict() == reference["full_state"]
        assert store_buckets(storage.store) == reference["full_buckets"]
        assert storage.store.clusters() == reference["full_clusters"]
        report = storage.last_recovery
        # The snapshot did its job: the replayed tail is shorter than the log.
        assert report.snapshot_lsn > 0
        assert report.replayed_entries < report.records
    finally:
        storage.close()


def test_double_crash_then_recover(tmp_path, records, reference):
    """A second crash over an already-crashed directory still recovers."""
    data_dir = tmp_path / "data"
    proc = run_child(data_dir, point="after_wal_append", hits=5)
    assert proc.returncode == KILL_EXIT_CODE, proc.stderr
    # Recover and continue a little, then crash again mid-append.
    storage = Storage.recover(data_dir, score_fn=child.score_fn,
                              config=child.storage_config())
    for record in records[5:8]:
        storage.upsert(record)
    storage.close()
    ref = EntityStore(score_fn=child.score_fn, config=child.store_config())
    for record in records[:8]:
        ref.upsert(record)
    recovered = Storage.recover(data_dir, score_fn=child.score_fn,
                                config=child.storage_config())
    try:
        assert recovered.store.state_dict() == ref.state_dict()
        assert store_buckets(recovered.store) == store_buckets(ref)
    finally:
        recovered.close()
