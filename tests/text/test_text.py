"""Tests for the text substrate: tokenisation, hashing, embeddings, similarity."""

import numpy as np
import pytest

from repro.text import (
    HashedEmbedder,
    HashedVectorTable,
    Tokenizer,
    char_ngrams,
    dice_similarity,
    exact_match,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    length_difference,
    levenshtein_distance,
    levenshtein_similarity,
    missing_value_vector,
    monge_elkan_similarity,
    normalize_text,
    overlap_coefficient,
    similarity_vector,
    stable_hash,
    token_cosine_similarity,
    tokenize,
)


class TestTokenizer:
    def test_lowercase_and_split(self):
        assert tokenize("Sweet Caroline") == ["sweet", "caroline"]

    def test_accent_stripping(self):
        assert tokenize("Björk") == ["bjork"]

    def test_empty_and_none(self):
        assert tokenize("") == []
        assert tokenize(None) == []

    def test_punctuation_separated(self):
        tokens = tokenize("rock & roll!")
        assert "rock" in tokens and "roll" in tokens

    def test_abbreviation_tokens(self):
        assert "n." in tokenize("N. D.")

    def test_normalize_collapses_whitespace(self):
        assert normalize_text("  a   b  ") == "a b"

    def test_tokenizer_callable_drops_punct(self):
        tok = Tokenizer(crop_size=10)
        assert all(any(c.isalnum() for c in t) for t in tok("hello, world!"))

    def test_crop_invalid(self):
        with pytest.raises(ValueError):
            Tokenizer(crop_size=0)

    def test_tokenizer_crop_applied(self):
        tok = Tokenizer(crop_size=2)
        assert len(tok("one two three four")) == 2


class TestHashing:
    def test_stable_hash_deterministic(self):
        assert stable_hash("adamel") == stable_hash("adamel")
        assert stable_hash("adamel", salt=1) != stable_hash("adamel", salt=2)

    def test_char_ngrams_boundaries(self):
        grams = char_ngrams("cat", min_n=3, max_n=3)
        assert "<ca" in grams and "at>" in grams

    def test_char_ngrams_invalid_range(self):
        with pytest.raises(ValueError):
            char_ngrams("cat", min_n=3, max_n=2)

    def test_vector_table_deterministic(self):
        table_a = HashedVectorTable(dim=8, seed=5)
        table_b = HashedVectorTable(dim=8, seed=5)
        assert np.allclose(table_a.vector("neil"), table_b.vector("neil"))

    def test_vector_table_seed_changes_vectors(self):
        assert not np.allclose(HashedVectorTable(dim=8, seed=1).vector("x"),
                               HashedVectorTable(dim=8, seed=2).vector("x"))

    def test_vectors_stacking(self):
        table = HashedVectorTable(dim=4)
        assert table.vectors(["a", "b", "c"]).shape == (3, 4)
        assert table.vectors([]).shape == (0, 4)


class TestEmbeddings:
    def test_embedding_dim(self):
        emb = HashedEmbedder(dim=12)
        assert emb.embed_token("diamond").shape == (12,)

    def test_determinism_across_instances(self):
        assert np.allclose(HashedEmbedder(dim=16).embed_token("neil"),
                           HashedEmbedder(dim=16).embed_token("neil"))

    def test_empty_tokens_use_missing_vector(self):
        emb = HashedEmbedder(dim=8)
        assert np.allclose(emb.embed_tokens([]), missing_value_vector(8))

    def test_missing_vector_is_unit_norm_nonzero(self):
        vec = missing_value_vector(10)
        assert np.isclose(np.linalg.norm(vec), 1.0)
        assert np.all(vec != 0)

    def test_subword_similarity_property(self):
        """Shared character n-grams make related surface forms more similar."""
        emb = HashedEmbedder(dim=64)
        similar = emb.similarity("diamond", "diamonds")
        unrelated = emb.similarity("diamond", "xylophone")
        assert similar > unrelated

    def test_token_matrix_padding(self):
        emb = HashedEmbedder(dim=8)
        matrix = emb.embed_token_matrix(["a", "b"], length=5)
        assert matrix.shape == (5, 8)
        assert np.allclose(matrix[2:], 0.0)

    def test_embed_text_uses_tokenizer(self):
        emb = HashedEmbedder(dim=8)
        assert emb.embed_text("Neil Diamond").shape == (8,)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            HashedEmbedder(dim=0)


class TestSimilarity:
    def test_jaccard(self):
        assert jaccard_similarity("a b c", "a b d") == pytest.approx(0.5)
        assert jaccard_similarity("", "") == 0.0

    def test_overlap_and_dice(self):
        assert overlap_coefficient("a b", "a b c d") == pytest.approx(1.0)
        assert dice_similarity("a b", "a b") == pytest.approx(1.0)

    def test_levenshtein(self):
        assert levenshtein_distance("kitten", "sitting") == 3
        assert levenshtein_distance("same", "same") == 0
        assert levenshtein_similarity("abc", "abc") == 1.0

    def test_jaro_winkler_prefix_boost(self):
        assert jaro_winkler_similarity("martha", "marhta") >= jaro_similarity("martha", "marhta")

    def test_jaro_edge_cases(self):
        assert jaro_similarity("", "") == 0.0
        assert jaro_similarity("abc", "abc") == 1.0

    def test_monge_elkan_handles_abbreviation(self):
        score = monge_elkan_similarity("Neil Diamond", "Neil D")
        assert score > 0.5

    def test_cosine_identical(self):
        assert token_cosine_similarity("hello world", "hello world") == pytest.approx(1.0)

    def test_exact_match_normalised(self):
        assert exact_match("Hello  World", "hello world") == 1.0
        assert exact_match("", "") == 0.0

    def test_length_difference(self):
        assert length_difference("a b c d", "a b") == pytest.approx(0.5)

    def test_similarity_vector_bounds(self):
        vec = similarity_vector("Sweet Caroline", "Sweet Caroline Neil")
        assert vec.shape[0] == 9
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)

    def test_similarity_vector_unknown_measure(self):
        with pytest.raises(KeyError):
            similarity_vector("a", "b", measures=["bogus"])
