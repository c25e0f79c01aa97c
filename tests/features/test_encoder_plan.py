"""The record-level plan behind ``PairEncoder.encode``: what it may not call,
what the memos it fills hold, and how they behave at their bounds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.records import EntityPair, Record
from repro.data.schema import Schema
from repro.features import EncodingCache, PairEncoder
from repro.features import relational
from repro.text import HashedEmbedder, Tokenizer

SCHEMA = Schema(("name", "title", "genre"))


def make_records(count: int, seed: int = 0):
    """Records whose values keep bringing new texts and new tokens."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(60)]

    def value() -> str:
        return " ".join(rng.choice(words, size=int(rng.integers(0, 5))))

    return [Record(f"r{i}", f"s{i % 2}", {a: value() for a in SCHEMA})
            for i in range(count)]


def make_pairs(records, count: int, seed: int = 1):
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(records), size=(count, 2))
    return [EntityPair(records[i], records[j], pair_id=f"p{n}")
            for n, (i, j) in enumerate(picks)]


def make_encoder(cache=None, values: int = 1 << 16, tokens: int = 100_000):
    """An encoder whose text memo holds ``values`` texts and whose vocabulary
    holds ``tokens`` tokens."""
    tokenizer = Tokenizer(crop_size=4, cache_size=values)
    embedder = HashedEmbedder(dim=8, seed=41, tokenizer=tokenizer, cache_size=tokens)
    return PairEncoder(SCHEMA, embedder=embedder, tokenizer=tokenizer, cache=cache,
                       use_cache=cache is not None)


def stacked_reference(encoder, pairs):
    encoded = [encoder.encode_pair(pair) for pair in pairs]
    return (np.stack([e.features for e in encoded]),
            np.stack([e.feature_mask for e in encoded]))


def test_encode_never_reaches_the_per_pair_extractor(monkeypatch):
    pairs = make_pairs(make_records(12), 30)
    encoder = make_encoder()
    expected = stacked_reference(encoder, pairs)

    def forbidden(*args, **kwargs):
        raise AssertionError("encode() called the per-pair extractor")

    monkeypatch.setattr(relational, "extract_relational_features", forbidden)
    with pytest.raises(AssertionError):
        encoder.encode_pair(pairs[0])  # the patch does bite the per-pair path
    batch = encoder.encode(pairs)
    assert np.array_equal(batch.features, expected[0])
    assert np.array_equal(batch.feature_mask, expected[1])


def test_clearing_memo_and_cache_forgets_the_corpus():
    pairs = make_pairs(make_records(10), 25)
    cache = EncodingCache()
    encoder = make_encoder(cache=cache)
    tokenizer = encoder.tokenizer
    tokenizer.clear_memo()
    table = encoder.embedder.vocabulary()
    first = encoder.encode(pairs)
    texts = {record.value(a) for pair in pairs for record in (pair.left, pair.right)
             for a in SCHEMA}
    value_pairs = {(pair.left.value(a), pair.right.value(a)) for pair in pairs for a in SCHEMA}
    assert len(tokenizer.ids_memo(table)) == len(texts)
    assert len(cache) == len(value_pairs)

    tokenizer.clear_memo()
    cache.clear()
    assert len(tokenizer.ids_memo(table)) == 0
    assert len(tokenizer._memo.tokens) == 0
    assert len(cache) == 0

    # Nothing was left to answer from: every text is resolved again.
    second = encoder.encode(pairs)
    assert cache.hits == 0
    assert len(tokenizer.ids_memo(table)) == len(texts)
    assert np.array_equal(first.features, second.features)


def test_encode_keeps_the_text_to_tokens_memo_empty():
    """The ids stand in for the tokens: one memo entry per text, not two."""
    encoder = make_encoder()
    encoder.tokenizer.clear_memo()
    encoder.encode(make_pairs(make_records(6), 10))
    assert len(encoder.tokenizer._memo.tokens) == 0


def test_bounded_memos_start_over_and_stay_exact():
    """8 values / 16 tokens: the memos reset again and again, admit every
    time, never exceed their bound between calls, and never change a value."""
    records = make_records(40, seed=7)
    encoder = make_encoder(values=8, tokens=16)
    encoder.tokenizer.clear_memo()
    encoder.embedder.clear_memo()
    tables = []
    for start in range(0, 120, 3):
        pairs = make_pairs(records, 3, seed=start)
        table = encoder.embedder.vocabulary()
        if not tables or tables[-1] is not table:
            tables.append(table)
        batch = encoder.encode(pairs)
        expected = stacked_reference(encoder, pairs)
        assert np.array_equal(batch.features, expected[0])
        assert np.array_equal(batch.feature_mask, expected[1])
        memo = encoder.tokenizer.ids_memo(table)
        assert 0 < len(memo) <= 8  # still admitting, still bounded
    assert len(tables) >= 4  # at least three vocabulary resets happened


def test_token_memo_admits_again_after_it_filled():
    tokenizer = Tokenizer(crop_size=3, cache_size=4)
    tokenizer.clear_memo()
    for i in range(10):
        tokenizer(f"text number {i}")
        assert 0 < len(tokenizer._memo.tokens) <= 4
    assert "text number 9" in tokenizer._memo.tokens
