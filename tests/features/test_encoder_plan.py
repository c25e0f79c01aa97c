"""The record-level plan behind ``PairEncoder.encode``: what it may not call,
what the text table it fills holds, and how it behaves at its bound."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.records import EntityPair, Record
from repro.data.schema import Schema
from repro.features import EncodingCache, PairEncoder
from repro.features import relational
from repro.text import HashedEmbedder, Tokenizer
from repro.text.tokenizer import text_table

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


def make_encoder(cache=None):
    tokenizer = Tokenizer(crop_size=4)
    embedder = HashedEmbedder(dim=8, seed=41, tokenizer=tokenizer)
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
    first = encoder.encode(pairs)
    texts = {record.value(a) for pair in pairs for record in (pair.left, pair.right)
             for a in SCHEMA}
    value_pairs = {(pair.left.value(a), pair.right.value(a)) for pair in pairs for a in SCHEMA}
    generation = text_table().generation()
    assert set(generation.texts) == texts | {""}
    assert len(cache) == len(value_pairs)

    tokenizer.clear_memo()
    cache.clear()
    assert text_table().generation() is not generation
    assert len(text_table().generation()) == 1  # only the missing value
    assert len(cache) == 0

    # Nothing was left to answer from: every text is interned again.
    second = encoder.encode(pairs)
    assert cache.hits == 0
    assert set(text_table().generation().texts) == texts | {""}
    assert np.array_equal(first.features, second.features)


def test_encode_tokenises_each_text_once(monkeypatch):
    """The table tokenises a text when it first interns it, never again."""
    import repro.text.tokenizer as tokenizer_module

    encoder = make_encoder()
    encoder.tokenizer.clear_memo()
    seen = []
    tokenise = tokenizer_module._tokenize
    monkeypatch.setattr(tokenizer_module, "_tokenize",
                        lambda text: seen.append(text) or tokenise(text))
    pairs = make_pairs(make_records(6), 10)
    encoder.encode(pairs)
    encoder.encode(pairs)
    assert len(seen) == len(set(seen)) == len(text_table().generation()) - 1


def test_bounded_memos_start_over_and_stay_exact(monkeypatch):
    """3 texts: the text table, and with it the token ids and embedding
    rows, start over again and again, and never change a value."""
    records = make_records(40, seed=7)
    encoder = make_encoder()
    encoder.tokenizer.clear_memo()
    monkeypatch.setattr(text_table(), "bound", 3)
    serials = set()
    for start in range(0, 120, 3):
        pairs = make_pairs(records, 3, seed=start)
        serials.add(text_table().generation().serial)
        batch = encoder.encode(pairs)
        expected = stacked_reference(encoder, pairs)
        assert np.array_equal(batch.features, expected[0])
        assert np.array_equal(batch.feature_mask, expected[1])
    assert len(serials) >= 20  # a start-over every call or two


def test_token_memo_admits_again_after_it_filled(monkeypatch):
    tokenizer = Tokenizer(crop_size=3)
    tokenizer.clear_memo()
    monkeypatch.setattr(text_table(), "bound", 4)
    for i in range(10):
        assert tokenizer(f"text number {i}") == ["text", "number", str(i)]
        assert 0 < len(text_table().generation()) < 4
    assert "text number 9" in text_table()._generation.texts
