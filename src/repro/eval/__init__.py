"""Evaluation: metrics, model comparison harness, projections, reporting."""

from .evaluation import EvaluationResult, compare_models, evaluate_model, evaluate_pairs
from .metrics import (
    ClassificationReport,
    accuracy,
    average_precision,
    best_f1,
    classification_report,
    confusion_counts,
    pr_auc,
    precision_recall_curve,
    precision_recall_f1,
)
from .projection import domain_alignment_score, pca_project, tsne_project
from .reporting import format_results_table, format_series, format_table

__all__ = [
    "pr_auc",
    "average_precision",
    "precision_recall_curve",
    "precision_recall_f1",
    "best_f1",
    "accuracy",
    "confusion_counts",
    "ClassificationReport",
    "classification_report",
    "EvaluationResult",
    "evaluate_model",
    "evaluate_pairs",
    "compare_models",
    "pca_project",
    "tsne_project",
    "domain_alignment_score",
    "format_table",
    "format_results_table",
    "format_series",
]
