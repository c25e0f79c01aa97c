"""Model-agnostic evaluation harness.

Every model in this library — the AdaMEL variants and all baselines — exposes
``fit(scenario)`` and ``predict_proba(pairs)``.  :func:`evaluate_model` runs
that protocol on a :class:`~repro.data.domain.MELScenario` and returns the
metric bundle; :func:`compare_models` runs several models on the same scenario
which is the shape of the paper's Figure 6 / Tables 8-9.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..data.domain import MELScenario
from ..data.records import EntityPair
from .metrics import ClassificationReport, classification_report

__all__ = ["EvaluationResult", "evaluate_pairs", "evaluate_model", "compare_models"]


@dataclass
class EvaluationResult:
    """The outcome of fitting and scoring one model on one scenario."""

    model_name: str
    scenario_name: str
    report: ClassificationReport
    fit_seconds: float
    predict_seconds: float

    @property
    def pr_auc(self) -> float:
        return self.report.pr_auc

    @property
    def f1(self) -> float:
        return self.report.f1

    def as_dict(self) -> Dict[str, float]:
        payload = self.report.as_dict()
        payload.update({
            "model": self.model_name,
            "scenario": self.scenario_name,
            "fit_seconds": self.fit_seconds,
            "predict_seconds": self.predict_seconds,
        })
        return payload


def evaluate_pairs(model, pairs: Sequence[EntityPair],
                   threshold: float = 0.5) -> ClassificationReport:
    """Score the labeled ``pairs`` with a fitted ``model``; every model's
    ``evaluate`` method."""
    labeled = [pair for pair in pairs if pair.is_labeled]
    if not labeled:
        raise ValueError("evaluate() requires labeled pairs")
    scores = model.predict_proba(labeled)
    labels = np.array([pair.label for pair in labeled], dtype=np.int64)
    return classification_report(labels, scores, threshold=threshold)


def evaluate_model(model, scenario: MELScenario, model_name: Optional[str] = None,
                   threshold: float = 0.5) -> EvaluationResult:
    """Fit ``model`` on the scenario and score it on the scenario's test split."""
    name = model_name or getattr(model, "variant", None) or type(model).__name__
    start = time.perf_counter()
    model.fit(scenario)
    fit_seconds = time.perf_counter() - start

    labeled = [pair for pair in scenario.test if pair.is_labeled]
    if not labeled:
        raise ValueError("scenario test split has no labeled pairs")
    start = time.perf_counter()
    scores = np.asarray(model.predict_proba(labeled), dtype=np.float64)
    predict_seconds = time.perf_counter() - start
    labels = np.array([pair.label for pair in labeled], dtype=np.int64)
    report = classification_report(labels, scores, threshold=threshold)
    return EvaluationResult(model_name=name, scenario_name=scenario.name, report=report,
                            fit_seconds=fit_seconds, predict_seconds=predict_seconds)


def compare_models(model_factories: Mapping[str, Callable[[], object]], scenario: MELScenario,
                   threshold: float = 0.5) -> Dict[str, EvaluationResult]:
    """Evaluate several freshly constructed models on the same scenario.

    ``model_factories`` maps a display name to a zero-argument callable
    returning an unfitted model, so each method trains from scratch.
    """
    results: Dict[str, EvaluationResult] = {}
    for name, factory in model_factories.items():
        model = factory()
        results[name] = evaluate_model(model, scenario, model_name=name, threshold=threshold)
    return results
