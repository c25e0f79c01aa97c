"""Evaluation metrics: precision-recall curves, PRAUC, F1.

The paper evaluates multi-source entity linkage with PRAUC (area under the
precision-recall curve, computed as average precision), which is robust to the
heavy class imbalance of the Monitor dataset, and reports F1 for the
single-domain benchmark comparison (Table 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "precision_recall_curve",
    "average_precision",
    "pr_auc",
    "precision_recall_f1",
    "best_f1",
    "confusion_counts",
    "accuracy",
    "ClassificationReport",
    "classification_report",
]


def _validate(labels: np.ndarray, scores: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if labels.shape != scores.shape:
        raise ValueError(f"labels and scores must align, got {labels.shape} vs {scores.shape}")
    if labels.size == 0:
        raise ValueError("cannot compute metrics on empty inputs")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary (0/1)")
    return labels, scores


def precision_recall_curve(labels: Sequence[int], scores: Sequence[float]
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(precision, recall, thresholds)`` sorted by decreasing score.

    Matches scikit-learn's convention: one point per distinct threshold plus
    the final (precision=1, recall=0) anchor.
    """
    labels_arr, scores_arr = _validate(np.asarray(labels), np.asarray(scores))
    order = np.argsort(-scores_arr, kind="mergesort")
    sorted_scores = scores_arr[order]
    sorted_labels = labels_arr[order]

    # Indices where the threshold changes (last occurrence of each score).
    distinct = np.where(np.diff(sorted_scores))[0]
    threshold_idx = np.append(distinct, sorted_labels.size - 1)

    true_positives = np.cumsum(sorted_labels)[threshold_idx]
    false_positives = np.cumsum(1 - sorted_labels)[threshold_idx]
    total_positives = sorted_labels.sum()

    precision = np.where(true_positives + false_positives > 0,
                         true_positives / np.maximum(true_positives + false_positives, 1), 0.0)
    recall = true_positives / total_positives if total_positives > 0 else np.zeros_like(true_positives,
                                                                                        dtype=np.float64)
    thresholds = sorted_scores[threshold_idx]

    precision = np.concatenate(([1.0], precision))
    recall = np.concatenate(([0.0], recall))
    return precision, recall, thresholds


def average_precision(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Average precision = sum over thresholds of (ΔR · P) — the PRAUC the paper reports."""
    labels_arr, scores_arr = _validate(np.asarray(labels), np.asarray(scores))
    if labels_arr.sum() == 0:
        return 0.0
    precision, recall, _ = precision_recall_curve(labels_arr, scores_arr)
    return float(np.sum(np.diff(recall) * precision[1:]))


def pr_auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Alias of :func:`average_precision` (the metric called PRAUC in the paper)."""
    return average_precision(labels, scores)


def confusion_counts(labels: Sequence[int], predictions: Sequence[int]) -> Dict[str, int]:
    """Return true/false positive/negative counts."""
    labels_arr = np.asarray(labels, dtype=np.int64).reshape(-1)
    preds_arr = np.asarray(predictions, dtype=np.int64).reshape(-1)
    if labels_arr.shape != preds_arr.shape:
        raise ValueError("labels and predictions must have the same length")
    return {
        "tp": int(np.sum((labels_arr == 1) & (preds_arr == 1))),
        "fp": int(np.sum((labels_arr == 0) & (preds_arr == 1))),
        "tn": int(np.sum((labels_arr == 0) & (preds_arr == 0))),
        "fn": int(np.sum((labels_arr == 1) & (preds_arr == 0))),
    }


def precision_recall_f1(labels: Sequence[int], predictions: Sequence[int]
                        ) -> Tuple[float, float, float]:
    """Precision, recall and F1 of hard 0/1 predictions."""
    counts = confusion_counts(labels, predictions)
    tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def best_f1(labels: Sequence[int], scores: Sequence[float]) -> Tuple[float, float]:
    """Best F1 over all thresholds and the threshold achieving it.

    Deep EM papers (DeepMatcher, Ditto) tune the decision threshold on a
    validation set; ``best_f1`` provides the threshold-free upper bound used
    by the Table 7 comparison.
    """
    labels_arr, scores_arr = _validate(np.asarray(labels), np.asarray(scores))
    precision, recall, thresholds = precision_recall_curve(labels_arr, scores_arr)
    precision, recall = precision[1:], recall[1:]
    denom = precision + recall
    f1 = np.where(denom > 0, 2 * precision * recall / np.maximum(denom, 1e-12), 0.0)
    best_index = int(np.argmax(f1))
    return float(f1[best_index]), float(thresholds[best_index])


def accuracy(labels: Sequence[int], predictions: Sequence[int]) -> float:
    """Fraction of correct hard predictions."""
    labels_arr = np.asarray(labels, dtype=np.int64).reshape(-1)
    preds_arr = np.asarray(predictions, dtype=np.int64).reshape(-1)
    if labels_arr.size == 0:
        raise ValueError("cannot compute accuracy on empty inputs")
    return float(np.mean(labels_arr == preds_arr))


@dataclass(frozen=True)
class ClassificationReport:
    """Bundle of the metrics reported across the paper's experiments."""

    pr_auc: float
    f1: float
    best_f1: float
    best_threshold: float
    precision: float
    recall: float
    accuracy: float
    num_pairs: int
    positive_rate: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "pr_auc": self.pr_auc,
            "f1": self.f1,
            "best_f1": self.best_f1,
            "best_threshold": self.best_threshold,
            "precision": self.precision,
            "recall": self.recall,
            "accuracy": self.accuracy,
            "num_pairs": self.num_pairs,
            "positive_rate": self.positive_rate,
        }


def classification_report(labels: Sequence[int], scores: Sequence[float],
                          threshold: float = 0.5) -> ClassificationReport:
    """Compute the full metric bundle from scores."""
    labels_arr, scores_arr = _validate(np.asarray(labels), np.asarray(scores))
    predictions = (scores_arr >= threshold).astype(np.int64)
    precision, recall, f1 = precision_recall_f1(labels_arr, predictions)
    best, best_threshold = best_f1(labels_arr, scores_arr)
    return ClassificationReport(
        pr_auc=average_precision(labels_arr, scores_arr),
        f1=f1,
        best_f1=best,
        best_threshold=best_threshold,
        precision=precision,
        recall=recall,
        accuracy=accuracy(labels_arr, predictions),
        num_pairs=int(labels_arr.size),
        positive_rate=float(labels_arr.mean()),
    )
