"""Bit-exactness of the batched text-layer primitives."""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.text import HashedEmbedder, HashedVectorTable, Tokenizer
from repro.text.hashing import stable_hash, stable_hashes
from repro.text.tokenizer import text_table

TOKENS = ["neil", "diamond", "n.", "d.", "ebay.com", "a", "xy",
          "extraordinarily-long-token-value", "1989", "café",
          "supercalifragilistic" * 5]  # its whole-word key is over 64 bytes


def reference_vector(embedder: HashedEmbedder, token: str) -> np.ndarray:
    """The seed definition of a token's vector: the mean of its piece vectors."""
    return np.mean([embedder.table.vector(key) for key in embedder._piece_keys(token)],
                   axis=0)


class TestBatchEmbedding:
    def test_embed_token_and_batch_match_the_definition(self):
        expected = np.stack([reference_vector(HashedEmbedder(dim=24), token)
                             for token in TOKENS])
        single = HashedEmbedder(dim=24)
        single.clear_memo()
        assert np.array_equal(expected, np.stack([single.embed_token(token)
                                                  for token in TOKENS]))
        batch = HashedEmbedder(dim=24)
        batch.clear_memo()
        assert np.array_equal(expected, batch.embed_token_batch(TOKENS))

    def test_embed_token_batch_with_partial_cache(self):
        embedder = HashedEmbedder(dim=16)
        embedder.clear_memo()
        expected = np.stack([embedder.embed_token(token) for token in TOKENS[:4]])
        embedder.clear_memo()
        embedder.embed_token(TOKENS[1])  # warm one token only
        actual = embedder.embed_token_batch(TOKENS[:4])
        assert np.array_equal(expected, actual)

    def test_empty_batch(self):
        assert HashedEmbedder(dim=8).embed_token_batch([]).shape == (0, 8)

    def test_a_warm_token_reads_its_computed_row(self):
        embedder = HashedEmbedder(dim=12)
        embedder.clear_memo()
        cold = [embedder.embed_token(token).copy() for token in TOKENS]
        warm = [embedder.embed_token(token) for token in TOKENS]
        expected = [reference_vector(embedder, token) for token in TOKENS]
        assert all(np.array_equal(a, b) and np.array_equal(a, c)
                   for a, b, c in zip(expected, cold, warm))

    def test_shared_vocabulary_across_instances(self):
        a = HashedEmbedder(dim=16, seed=29)
        a.clear_memo()
        vec = a.embed_token("sharedtoken")
        b = HashedEmbedder(dim=16, seed=29)
        generation = text_table().generation()
        ids = np.array(generation.token_ids(["sharedtoken"]))
        assert b.rows(generation, ids) is a.rows(generation, ids)  # one row store
        assert np.array_equal(vec, b.embed_token("sharedtoken"))
        different_dim = HashedEmbedder(dim=8, seed=29)
        assert different_dim.rows(generation, ids) is not a.rows(generation, ids)


class TestTokenTable:
    def test_ids_are_stable_across_growth(self):
        embedder = HashedEmbedder(dim=8, seed=31)
        embedder.clear_memo()
        generation = text_table().generation()
        first = np.array(generation.token_ids(["alpha", "beta", "alpha"]))
        assert first.tolist() == [0, 1, 0]
        kept = embedder.rows(generation, first)[first].copy()
        fillers = np.array(generation.token_ids([f"filler{i}" for i in range(1000)]))
        grown = embedder.rows(generation, fillers)  # forces reallocation
        assert generation.token_ids(["beta", "alpha"]) == [1, 0]
        assert np.array_equal(grown[first], kept)
        assert len(generation.tokens) == 1002

    def test_full_vocabulary_starts_over_but_a_held_table_stays_valid(self, monkeypatch):
        embedder = HashedEmbedder(dim=8, seed=37)
        embedder.clear_memo()
        monkeypatch.setattr(text_table(), "bound", 4)
        held = text_table().generation()
        texts = held.intern(["a1", "b2", "c3", "d4", "e5"])  # grows past the bound
        assert len(held) == 6  # with the missing value
        ids = np.array([held.text_tokens[text][0] for text in texts])
        rows = embedder.rows(held, ids)
        fresh = text_table().generation()
        assert fresh is not held and len(fresh) == 1
        # The new generation admits, and the held one still resolves its
        # ids to the same rows.
        assert np.array_equal(embedder.embed_token("e5"), rows[ids[4]])
        assert "e5" in fresh.tokens


class TestVectorTableBatch:
    def test_vectors_match_per_key_lookup(self):
        table = HashedVectorTable(dim=12, seed=7)
        keys = [f"key-{i}" for i in range(20)]
        expected = np.stack([table.vector(key) for key in keys])
        fresh = HashedVectorTable(dim=12, seed=7)
        assert np.array_equal(expected, fresh.vectors(keys))

    def test_buckets_match_bucket(self):
        table = HashedVectorTable(dim=4, seed=3)
        keys = ["alpha", "beta", "gamma"]
        assert table.buckets(keys).tolist() == [table.bucket(key) for key in keys]

    def test_a_long_key_hashes_in_bounded_memory(self):
        """One 50 k-char key among 2 000 short ones: the padded matrix stays
        64 bytes wide instead of growing to 2 000 x 50 k bytes."""
        keys = [f"ngram::{i}" for i in range(2000)]
        keys[7] = "word::" + "é" * 25_000 + "x" * 25_000
        tracemalloc.start()
        try:
            hashes = stable_hashes(keys, salt=13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hashes.tolist() == [stable_hash(key, salt=13) for key in keys]
        assert peak < 5_000_000


class TestTokenizerMemo:
    def test_memo_returns_equal_fresh_lists(self):
        tokenizer = Tokenizer(crop_size=5)
        first = tokenizer("Neil Diamond & The Band play 9 songs tonight")
        second = tokenizer("Neil Diamond & The Band play 9 songs tonight")
        assert first == second
        assert first is not second  # callers may mutate their copy safely
        first.append("mutated")
        assert tokenizer("Neil Diamond & The Band play 9 songs tonight") == second

    def test_fingerprint_distinguishes_configs(self):
        assert Tokenizer(crop_size=5).fingerprint() != Tokenizer(crop_size=6).fingerprint()
        assert (Tokenizer(keep_punctuation=True).fingerprint()
                != Tokenizer(keep_punctuation=False).fingerprint())

    def test_identity_fingerprints_unique_across_lifetimes(self):
        """Regression: the default identity fingerprint must never repeat,
        even when a dead embedder's memory address is reused."""
        from repro.text.embeddings import TokenEmbedder

        class Opaque(TokenEmbedder):  # no fingerprint override
            dim = 4

        seen = set()
        for _ in range(50):
            fp = Opaque().fingerprint()  # object freed each iteration
            assert fp not in seen
            seen.add(fp)
