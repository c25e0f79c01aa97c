"""Store states of format version 1, which also carried every index's buckets.

``fixtures/store_state_v1.json`` is the ``state_dict()`` a version-1 store
wrote after upserting the first 30 records of the crash-harness corpus
(``_crash_child.build_records()[:30]``, ``_crash_child.store_config()``:
caps of 2, so many buckets overflow).  Its ``"indexes"`` key is not read any
more, which makes it the oracle for the buckets a restore rebuilds from the
records.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import _crash_child as child
from repro.pipeline import MinHashLSHIndex
from repro.serve.store import STATE_FORMAT_VERSION, EntityStore

from pipeline.blocking_oracle import store_buckets

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "store_state_v1.json"


@pytest.fixture()
def v1_state():
    payload = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert payload["format_version"] == 1
    return payload


def test_a_v1_state_loads(v1_state):
    store = EntityStore.from_state_dict(v1_state)
    assert len(store) == 30
    assert store.config == child.store_config()
    state = store.state_dict()
    assert state["format_version"] == STATE_FORMAT_VERSION == 2
    assert "indexes" not in state
    assert state == {**{key: value for key, value in v1_state.items() if key != "indexes"},
                     "format_version": STATE_FORMAT_VERSION}


def test_v1_persisted_buckets_equal_the_rebuilt_ones(v1_state):
    store = EntityStore.from_state_dict(v1_state)
    persisted = []
    for index, state in zip(store._indexes, v1_state["indexes"]):
        # JSON has no tuples: version 1 wrote a MinHash (band, value) key as a list.
        decode = tuple if isinstance(index, MinHashLSHIndex) else str
        persisted.append((state["record_ids"], state["sources"],
                          [(decode(key), members) for key, members in state["buckets"]]))
    assert len(persisted) == 3
    assert all(any(len(members) > index.max_bucket_size for _, members in buckets)
               for index, (_, _, buckets) in zip(store._indexes, persisted))
    assert store_buckets(store) == persisted
