"""Hypothesis properties of the blocking-key path: the all-bands MinHash fold
equals the per-band loop, and one record's keys (``bucket_keys``, the path of
every upsert and query) equal the keys a batch ``add_records`` posts to the
index's bulk columns.

Example counts follow the Hypothesis profile: CI runs this module with
``--hypothesis-profile=ci`` (ten times the default).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data import Record
from repro.pipeline import InitialsKeyIndex, InvertedTokenIndex, MinHashLSHIndex

from band_keys_oracle import band_keys_by_loop
from blocking_oracle import bulk_postings

# Largest value a signature entry takes: minima of hashes mod 2**31 - 1.
MAX_SIGNATURE = (1 << 31) - 2

WORDS = ["neil", "diamond", "E.", "B.", "elliott", "bianchi", "live", "the",
         "moon", "ça", "déjà", "x", "42", "-", "tokyo"]


@st.composite
def _signatures(draw):
    bands, rows = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    records = draw(st.sampled_from([0, 1, draw(st.integers(2, 40))]))
    values = draw(arrays(np.uint64, (bands * rows, records),
                         elements=st.integers(0, MAX_SIGNATURE)))
    return bands, rows, values


@given(_signatures())
@settings(deadline=None)
def test_band_keys_equal_the_per_band_loop(case):
    bands, rows, signatures = case
    index = MinHashLSHIndex(num_perm=bands * rows, bands=bands)
    keys = index._band_keys(signatures)
    assert keys.dtype == np.uint64
    assert np.array_equal(keys, band_keys_by_loop(signatures, bands, rows))


_TEXT = st.one_of(
    st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join),
    st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs", "Po")),
            max_size=30))


@st.composite
def _records(draw):
    count = draw(st.integers(1, 8))
    records = []
    for i in range(count):
        attributes = draw(st.dictionaries(st.sampled_from(["name", "alias", "notes"]),
                                          _TEXT, max_size=3))
        records.append(Record(record_id=f"r{i}", source=f"s{i % 3}",
                              attributes=attributes))
    return records


INDEXES = {
    "inverted": lambda: InvertedTokenIndex(min_token_length=2, max_postings=1000),
    "minhash": lambda: MinHashLSHIndex(num_perm=12, bands=4, max_bucket_size=1000),
    "minhash_one_row": lambda: MinHashLSHIndex(num_perm=5, bands=5, max_bucket_size=1000),
    "initials": lambda: InitialsKeyIndex(max_prefix_tokens=3, max_bucket_size=1000),
}


@given(_records(), st.sampled_from(sorted(INDEXES)))
@settings(deadline=None)
def test_record_keys_equal_batch_keys(records, name):
    bulk = INDEXES[name]()
    bulk.add_records(records)
    batch_keys = [set() for _ in records]
    for key, position in bulk_postings(bulk):
        batch_keys[position].add(key)
    single = INDEXES[name]()
    for record, expected in zip(records, batch_keys):
        keys = single.bucket_keys(record)
        assert len(keys) == len(set(keys))
        assert set(keys) == expected
