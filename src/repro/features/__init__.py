"""Feature pipeline: contrastive relational features and pair encoding."""

from .cache import EncodingCache, get_default_cache
from .encoder import EncodedBatch, EncodedPair, PairEncoder
from .importance import FeatureImportance, ImportanceReport, aggregate_importance, top_attributes
from .relational import (
    RelationalFeature,
    RelationalFeatureExtractor,
    extract_relational_features,
    feature_names,
)

__all__ = [
    "RelationalFeature",
    "RelationalFeatureExtractor",
    "extract_relational_features",
    "feature_names",
    "PairEncoder",
    "EncodedPair",
    "EncodedBatch",
    "EncodingCache",
    "get_default_cache",
    "FeatureImportance",
    "ImportanceReport",
    "aggregate_importance",
    "top_attributes",
]
