"""TLER — non-deep transfer learning for entity resolution.

Thirumuruganathan et al. (2018) transfer entity-resolution models across
datasets by (i) mapping every pair into a *standard feature space* of classic
string similarities computed per attribute and (ii) reusing the labeled data
of the seen domain (optionally together with any labeled data from the new
domain) to train a shallow classifier.  This reproduction uses the similarity
measures in :mod:`repro.text.similarity` and a logistic-regression classifier
trained with gradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.domain import MELScenario
from ..data.records import EntityPair
from ..data.schema import Schema
from ..eval.evaluation import evaluate_pairs
from ..eval.metrics import ClassificationReport
from ..text.similarity import SIMILARITY_FUNCTIONS, similarity_vector
from ..utils.rng import spawn_rng

__all__ = ["TLERConfig", "TLER"]


@dataclass(frozen=True)
class TLERConfig:
    """Hyperparameters of the TLER baseline."""

    measures: Tuple[str, ...] = ("jaccard", "overlap", "dice", "levenshtein",
                                 "jaro_winkler", "monge_elkan", "cosine", "exact", "length_diff")
    learning_rate: float = 0.1
    epochs: int = 200
    l2_penalty: float = 1e-3
    use_support_set: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        # Accept any iterable of measure names; the tuple form is also what
        # the similarity memo uses as (part of) its hashable cache key.
        object.__setattr__(self, "measures", tuple(self.measures))
        unknown = [m for m in self.measures if m not in SIMILARITY_FUNCTIONS]
        if unknown:
            raise ValueError(f"unknown similarity measures: {unknown}")
        if self.learning_rate <= 0 or self.epochs <= 0:
            raise ValueError("learning_rate and epochs must be positive")


class TLER:
    """Feature-engineered transfer baseline (logistic regression on similarities)."""

    name = "tler"

    def __init__(self, config: Optional[TLERConfig] = None) -> None:
        self.config = config or TLERConfig()
        self.schema: Optional[Schema] = None
        self.weights: Optional[np.ndarray] = None
        self.bias: float = 0.0
        self._feature_mean: Optional[np.ndarray] = None
        self._feature_std: Optional[np.ndarray] = None

    # Similarity measures are pure functions of the two value strings, and
    # attribute values repeat heavily across pairs, models and scenario modes
    # (entity names recur; schema alignment yields many empty values), so the
    # per-value-pair vectors are memoized process-wide, keyed by the measure
    # tuple alongside both strings.  Bounded so a long-running process that
    # sweeps many generated corpora cannot grow it without limit.
    _sim_cache: Dict[Tuple[Tuple[str, ...], str, str], np.ndarray] = {}
    _SIM_CACHE_MAX = 200_000

    # ------------------------------------------------------------------ #
    def _featurize(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        """Standard feature space: per-attribute similarity vectors, concatenated."""
        assert self.schema is not None
        measures = self.config.measures
        cache = self._sim_cache
        features = np.zeros((len(pairs), len(self.schema) * len(measures)))
        for i, pair in enumerate(pairs):
            blocks: List[np.ndarray] = []
            for attribute in self.schema:
                left, right = pair.values(attribute)
                key = (measures, left, right)
                vector = cache.get(key)
                if vector is None:
                    vector = similarity_vector(left, right, measures)
                    if len(cache) < self._SIM_CACHE_MAX:
                        cache[key] = vector
                blocks.append(vector)
            features[i] = np.concatenate(blocks)
        return features

    def _normalize(self, features: np.ndarray, fit: bool = False) -> np.ndarray:
        if fit:
            self._feature_mean = features.mean(axis=0)
            self._feature_std = features.std(axis=0) + 1e-8
        return (features - self._feature_mean) / self._feature_std

    # ------------------------------------------------------------------ #
    def fit(self, scenario: MELScenario) -> List[float]:
        """Train on the source domain (plus the support set, TLER's reuse step)."""
        config = self.config
        scenario = scenario.align()
        self.schema = scenario.aligned_schema()
        pairs = list(scenario.source.pairs)
        if config.use_support_set and scenario.support is not None:
            pairs.extend(scenario.support.pairs)
        labels = np.array([pair.label for pair in pairs], dtype=np.float64)
        features = self._normalize(self._featurize(pairs), fit=True)

        rng = spawn_rng(config.seed)
        self.weights = rng.normal(0.0, 0.01, size=features.shape[1])
        self.bias = 0.0
        losses: List[float] = []
        n = len(pairs)
        for _ in range(config.epochs):
            logits = np.clip(features @ self.weights + self.bias, -30.0, 30.0)
            probabilities = 1.0 / (1.0 + np.exp(-logits))
            error = probabilities - labels
            grad_w = features.T @ error / n + config.l2_penalty * self.weights
            grad_b = float(error.mean())
            self.weights -= config.learning_rate * grad_w
            self.bias -= config.learning_rate * grad_b
            eps = 1e-9
            loss = float(-(labels * np.log(probabilities + eps)
                           + (1 - labels) * np.log(1 - probabilities + eps)).mean())
            losses.append(loss)
        return losses

    def predict_proba(self, pairs: Sequence[EntityPair]) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("TLER must be fitted before inference")
        if len(pairs) == 0:
            return np.zeros(0)
        features = self._normalize(self._featurize(pairs), fit=False)
        logits = np.clip(features @ self.weights + self.bias, -30.0, 30.0)
        return 1.0 / (1.0 + np.exp(-logits))

    def predict(self, pairs: Sequence[EntityPair], threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(pairs) >= threshold).astype(np.int64)

    def evaluate(self, pairs: Sequence[EntityPair], threshold: float = 0.5) -> ClassificationReport:
        return evaluate_pairs(self, pairs, threshold)

    def num_parameters(self) -> int:
        if self.weights is None:
            raise RuntimeError("TLER must be fitted first")
        return int(self.weights.size + 1)
