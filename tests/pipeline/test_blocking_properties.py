"""Hypothesis properties of bulk blocking: chunked ``add_records`` posting
columns grouped by one sort equal the bucket-dict walk over the same records
streamed through ``ingest_one``, index by index and for the whole candidate
stage.

Records draw their texts from a few words, so buckets collide often and, with
caps of 2 to 4, overflow.  Example counts follow the Hypothesis profile: CI
runs this module with ``--hypothesis-profile=ci`` (ten times the default) and
under two ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Record
from repro.pipeline import (CandidateGenerationStage, InitialsKeyIndex,
                            InvertedTokenIndex, MinHashLSHIndex)

from blocking_oracle import dict_walk_pairs, set_and_sort_generate

WORDS = ["neil", "diamond", "E.", "B.", "elliott", "bianchi", "live", "moon"]

INDEXES = {
    "inverted": lambda cap: InvertedTokenIndex(min_token_length=2, max_postings=cap),
    "minhash": lambda cap: MinHashLSHIndex(num_perm=8, bands=4, max_bucket_size=cap),
    "initials": lambda cap: InitialsKeyIndex(max_prefix_tokens=3, max_bucket_size=cap),
}


@st.composite
def _records(draw, max_records=14, duplicate_ids=False):
    count = draw(st.integers(0, max_records))
    text = st.lists(st.sampled_from(WORDS), max_size=3).map(" ".join)
    records = []
    for i in range(count):
        attributes = draw(st.dictionaries(st.sampled_from(["name", "alias"]), text,
                                          max_size=2))
        record_id = f"r{draw(st.integers(0, 3))}" if duplicate_ids else f"r{i:02d}"
        records.append(Record(record_id=record_id, source=f"s{draw(st.integers(0, 2))}",
                              attributes=attributes,
                              entity_id=f"e{draw(st.integers(0, 3))}"))
    return records


def _add_in_chunks(target, records, chunk):
    for start in range(0, len(records), chunk):
        target.add_records(records[start:start + chunk])


def _streamed(make, records):
    index = make()
    for record in records:
        index.ingest_one(record)
    return index


@given(_records(), st.sampled_from(sorted(INDEXES)), st.integers(2, 4),
       st.integers(1, 6), st.booleans())
@settings(deadline=None)
def test_bulk_columns_equal_the_dict_walk(records, name, cap, chunk, cross_source_only):
    bulk = INDEXES[name](cap)
    _add_in_chunks(bulk, records, chunk)
    streamed = _streamed(lambda: INDEXES[name](cap), records)

    left, right = bulk.candidate_pairs(cross_source_only=cross_source_only)
    assert left.dtype == right.dtype == np.int64
    assert np.all(left < right)
    codes = left * max(len(records), 1) + right
    assert np.all(np.diff(codes) > 0)  # sorted by (left, right), unique
    assert set(zip(left.tolist(), right.tolist())) == dict_walk_pairs(
        streamed, cross_source_only)
    assert bulk.stats() == streamed.stats()
    # Bucket order too: first occurrence of each key, as the dict inserts it.
    assert list(bulk.bucket_sizes().items()) == list(streamed.bucket_sizes().items())
    assert bulk.record_ids == streamed.record_ids and bulk.sources == streamed.sources


@given(_records(duplicate_ids=True) | _records(), st.sampled_from([2, 3, 8]),
       st.integers(1, 6), st.booleans())
@settings(deadline=None)
def test_generate_equals_set_and_sort(records, cap, chunk, cross_source_only):
    makers = [partial(INDEXES[name], cap) for name in sorted(INDEXES)]
    stage = CandidateGenerationStage([make() for make in makers],
                                     cross_source_only=cross_source_only)
    _add_in_chunks(stage, records, chunk)
    result = stage.generate()

    streamed = [_streamed(make, records) for make in makers]
    pairs, stats = set_and_sort_generate(records, streamed, stage._index_labels(),
                                         cross_source_only)
    # The very records (by identity): duplicate ids must pick the same ones.
    assert [(id(pair.left), id(pair.right)) for pair in result.pairs] == [
        (id(pair.left), id(pair.right)) for pair in pairs]
    assert [pair.pair_id for pair in result.pairs] == [pair.pair_id for pair in pairs]
    assert list(result.stats.items()) == list(stats.items())
