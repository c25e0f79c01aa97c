"""Text substrate: tokenisation, fixed hashed embeddings, string similarity."""

from .embeddings import DEFAULT_EMBEDDING_DIM, HashedEmbedder, TokenEmbedder, missing_value_vector
from .hashing import HashedVectorTable, char_ngrams, stable_hash
from .similarity import (
    SIMILARITY_FUNCTIONS,
    dice_similarity,
    exact_match,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    length_difference,
    levenshtein_distance,
    levenshtein_similarity,
    monge_elkan_similarity,
    overlap_coefficient,
    similarity_vector,
    token_cosine_similarity,
)
from .tokenizer import (DEFAULT_CROP_SIZE, TextTable, Tokenizer, normalize_text, text_table,
                        tokenize)

__all__ = [
    "Tokenizer",
    "TextTable",
    "text_table",
    "tokenize",
    "normalize_text",
    "DEFAULT_CROP_SIZE",
    "HashedEmbedder",
    "TokenEmbedder",
    "missing_value_vector",
    "DEFAULT_EMBEDDING_DIM",
    "HashedVectorTable",
    "char_ngrams",
    "stable_hash",
    "SIMILARITY_FUNCTIONS",
    "similarity_vector",
    "jaccard_similarity",
    "overlap_coefficient",
    "dice_similarity",
    "levenshtein_distance",
    "levenshtein_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "monge_elkan_similarity",
    "token_cosine_similarity",
    "exact_match",
    "length_difference",
]
