"""Bit-exactness of the batched text-layer primitives."""

from __future__ import annotations

import numpy as np

from repro.text import HashedEmbedder, HashedVectorTable, Tokenizer

TOKENS = ["neil", "diamond", "n.", "d.", "ebay.com", "a", "xy",
          "extraordinarily-long-token-value", "1989", "café"]


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

    def test_shared_vocabulary_across_instances(self):
        a = HashedEmbedder(dim=16, seed=29)
        a.clear_memo()
        vec = a.embed_token("sharedtoken")
        b = HashedEmbedder(dim=16, seed=29)
        assert "sharedtoken" in b.vocabulary()
        assert np.array_equal(vec, b.embed_token("sharedtoken"))
        different_dim = HashedEmbedder(dim=8, seed=29)
        assert different_dim.vocabulary() is not a.vocabulary()


class TestTokenTable:
    def test_ids_are_stable_across_growth(self):
        embedder = HashedEmbedder(dim=8, seed=31)
        embedder.clear_memo()
        table = embedder.vocabulary()
        first = table.ids(["alpha", "beta", "alpha"])
        assert first.tolist() == [0, 1, 0]
        kept = table.rows[first].copy()
        table.ids([f"filler{i}" for i in range(1000)])  # forces reallocation
        assert table.ids(["beta", "alpha"]).tolist() == [1, 0]
        assert np.array_equal(table.rows[first], kept)
        assert len(table) == 1002

    def test_full_vocabulary_starts_over_but_a_held_table_stays_valid(self):
        embedder = HashedEmbedder(dim=8, seed=37, cache_size=4)
        embedder.clear_memo()
        held = embedder.vocabulary()
        ids = held.ids(["a1", "b2", "c3", "d4", "e5"])  # grows past the bound
        assert len(held) == 5
        fresh = embedder.vocabulary()
        assert fresh is not held and len(fresh) == 0
        # The new generation admits (the old memo refused everything once
        # full) and the held one still resolves its ids to the same rows.
        assert np.array_equal(embedder.embed_token("e5"), held.rows[ids[4]])
        assert "e5" in fresh


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
