"""Hypothesis properties of the process-wide text table at a tiny bound.

With room for 2 to 4 texts per generation, the table starts over every call
or two, so an interleaved stream of interning, encoding, bulk blocking and
store upserts/queries crosses many generations.  Whatever a generation turn
lands between, every id still names the text it was issued for, ``encode``
equals the stacked per-pair definition, bulk posting columns equal the
streamed bucket dict, and the whole stream's outputs equal those of the same
stream under a roomy bound.  Example counts follow the Hypothesis profile: CI
runs this module with ``--hypothesis-profile=ci`` and under two
``PYTHONHASHSEED`` values (ids are issued by first occurrence, never by hash).
"""

from __future__ import annotations

import contextlib
import copy
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import EntityPair, Record
from repro.data.schema import Schema
from repro.features import EncodingCache, PairEncoder
from repro.pipeline import InitialsKeyIndex, InvertedTokenIndex, MinHashLSHIndex
from repro.serve.store import EntityStore, StoreConfig
from repro.text import HashedEmbedder, Tokenizer
from repro.text.tokenizer import text_table

from features.encode_oracle import stacked_encode_pair
from pipeline.blocking_oracle import dict_walk_pairs, store_buckets

WORDS = ["neil", "diamond", "E.", "B.", "elliott", "bianchi", "live", "café"]
SCHEMA = Schema(("name", "alias"))

INDEXES = (
    lambda: InvertedTokenIndex(min_token_length=2, max_postings=3),
    lambda: MinHashLSHIndex(num_perm=8, bands=4, max_bucket_size=3),
    lambda: InitialsKeyIndex(max_prefix_tokens=3, max_bucket_size=3),
)

_text = st.lists(st.sampled_from(WORDS), max_size=3).map(" ".join)


@st.composite
def _records(draw, max_records=6):
    return [Record(record_id=f"r{draw(st.integers(0, 999)):03d}-{i}",
                   source=f"s{draw(st.integers(0, 2))}",
                   attributes=draw(st.dictionaries(st.sampled_from(SCHEMA.attributes),
                                                   _text, max_size=2)))
            for i in range(draw(st.integers(1, max_records)))]


_operations = st.lists(st.one_of(
    st.tuples(st.just("intern"), st.lists(_text, min_size=1, max_size=4)),
    st.tuples(st.just("encode"), _records()),
    st.tuples(st.just("block"), _records(), st.integers(1, 3)),
    st.tuples(st.just("upsert"), _records()),
    st.tuples(st.just("query"), _records(max_records=2)),
), min_size=1, max_size=6)


@contextlib.contextmanager
def _bound(texts: int):
    """The process-wide table, started over, at a bound of ``texts``."""
    table = text_table()
    saved = table.bound
    table.clear()
    table.bound = texts
    try:
        yield table
    finally:
        table.bound = saved
        table.clear()


def _encoder(cache: EncodingCache) -> PairEncoder:
    tokenizer = Tokenizer(crop_size=2)
    return PairEncoder(SCHEMA, embedder=HashedEmbedder(dim=4, seed=3, tokenizer=tokenizer),
                       tokenizer=tokenizer, cache=cache)


def _score_fn(encoder: PairEncoder):
    """A deterministic stand-in for a model: a squashed sum of the features."""
    def score(pairs):
        features = encoder.encode(pairs).features
        return 1.0 / (1.0 + np.exp(-features.sum(axis=(1, 2))))
    return score


def _run(operations, bound: int):
    """Run ``operations`` at ``bound``, checking the table's invariants on
    the way; returns every output the stream produced."""
    outputs = []
    issued = []  # (generation, id, text)
    with _bound(bound) as table:
        cache = EncodingCache()
        encoder = _encoder(cache)
        store = EntityStore(score_fn=_score_fn(encoder),
                            config=StoreConfig(num_perm=8, bands=4, min_token_length=2,
                                               score_threshold=0.6))
        upserted = set()
        for operation in operations:
            kind = operation[0]
            if kind == "intern":
                generation = table.generation()
                ids = generation.intern(operation[1])
                issued.extend(zip([generation] * len(ids), ids, operation[1]))
                outputs.append(("intern", [generation.tokens_of(i) for i in ids]))
            elif kind == "encode":
                records = operation[1]
                pairs = [EntityPair(left, right)
                         for left, right in zip(records, records[1:] + records[:1])]
                batch = encoder.encode(pairs)
                expected = stacked_encode_pair(encoder, pairs)
                assert np.array_equal(batch.features, expected.features)
                assert np.array_equal(batch.feature_mask, expected.feature_mask)
                outputs.append(("encode", batch.features.tobytes()))
            elif kind == "block":
                records, chunk = operation[1], operation[2]
                for make in INDEXES:
                    bulk, streamed = make(), make()
                    for start in range(0, len(records), chunk):
                        bulk.add_records(records[start:start + chunk])
                    for record in records:
                        streamed.ingest_one(record)  # keys per record: _record_keys
                    left, right = bulk.candidate_pairs()
                    assert set(zip(left.tolist(), right.tolist())) == dict_walk_pairs(streamed)
                    assert list(bulk.bucket_sizes().items()) == list(
                        streamed.bucket_sizes().items())
                    outputs.append(("block", list(bulk.bucket_sizes().items())))
            elif kind == "upsert":
                for record in operation[1]:
                    if record.record_id not in upserted:
                        upserted.add(record.record_id)
                        outputs.append(("upsert", store.upsert(record)))
            else:
                outputs.append(("query", [(match.entity_id, match.score)
                                          for record in operation[1]
                                          for match in store.query(record)]))
            for generation, text_id, text in issued:
                assert generation.texts[text_id] == text
        outputs.append(("state", store.state_dict(), store_buckets(store)))
    return outputs


@given(_operations, st.integers(2, 4))
@settings(deadline=None)
def test_a_tiny_bound_changes_no_output(operations, bound):
    # Copies: records keep what the table and the indexes computed for them.
    assert _run(copy.deepcopy(operations), bound) == _run(copy.deepcopy(operations), 1 << 16)


def test_the_arena_never_serves_an_older_generation():
    """Ids of two generations name different texts: a fetch keyed by an older
    generation than the arena's misses everything and stores nothing."""
    cache = EncodingCache()
    rows = lambda value: lambda positions: (np.full((len(positions), 1, 2), value),  # noqa: E731
                                            np.ones((len(positions), 1)))
    cache.fetch(("enc", 1), [7], rows(1.0))
    features, _ = cache.fetch(("enc", 2), [7], rows(2.0))  # a newer generation
    assert features[0, 0, 0] == 2.0 and cache.lookup_counts() == (0, 2)
    features, _ = cache.fetch(("enc", 1), [7], rows(1.0))  # an older one
    assert features[0, 0, 0] == 1.0 and cache.lookup_counts() == (0, 3)
    features, _ = cache.fetch(("enc", 2), [7], rows(3.0))
    assert features[0, 0, 0] == 2.0 and cache.lookup_counts() == (1, 3)


def test_threads_interning_overlapping_texts_get_one_id_per_text():
    texts = [f"text {i % 40}" for i in range(400)]
    with _bound(1 << 16) as table:
        generation = table.generation()
        results = [None] * 4
        start = threading.Barrier(4)

        def worker(index: int) -> None:
            start.wait(timeout=10)
            mine = texts[index * 10:] + texts[:index * 10]
            results[index] = dict(zip(mine, generation.intern(mine)))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert all(result == results[0] for result in results)
        assert sorted(results[0].values()) == list(range(1, 41))
        assert all(generation.texts[i] == text for text, i in results[0].items())
