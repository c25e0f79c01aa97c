"""Registry mapping paper table/figure identifiers to experiment runners.

Each entry points at the ``run_*`` function that regenerates the corresponding
table or figure and at the ``benchmarks/test_bench_*`` test that runs it,
prints ``result.format()`` and asserts the paper's claim about it
(``pytest benchmarks -m bench`` — the one reproduction path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from .figure6 import run_figure6
from .figure7 import run_figure7
from .figure8 import run_figure8
from .figure9 import run_figure9
from .figure10 import run_figure10
from .figure11 import run_figure11
from .figure12 import run_figure12
from .table4 import run_table4
from .table5 import run_table5
from .table6 import run_table6
from .table7 import run_table7

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment", "list_experiments"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment tied to a paper table or figure."""

    identifier: str
    description: str
    runner: Callable
    benchmark: str


EXPERIMENTS: Dict[str, Experiment] = {
    "figure6-music3k": Experiment(
        "figure6-music3k", "MEL PRAUC on Music-3K (Fig. 6a / Table 9)", run_figure6,
        "benchmarks/test_bench_figure6_music3k.py"),
    "figure6-music1m": Experiment(
        "figure6-music1m", "MEL PRAUC on weakly-labeled Music-1M (Fig. 6b / Table 9)", run_figure6,
        "benchmarks/test_bench_figure6_music1m.py"),
    "figure6-monitor": Experiment(
        "figure6-monitor", "MEL PRAUC on Monitor (Fig. 6c / Table 8)", run_figure6,
        "benchmarks/test_bench_figure6_monitor.py"),
    "figure7": Experiment(
        "figure7", "Attention-space alignment of source/target domains", run_figure7,
        "benchmarks/test_bench_figure7_alignment.py"),
    "figure8": Experiment(
        "figure8", "PRAUC vs adaptation weight λ", run_figure8,
        "benchmarks/test_bench_figure8_lambda.py"),
    "figure9": Experiment(
        "figure9", "Stability vs incrementally added sources + runtime", run_figure9,
        "benchmarks/test_bench_figure9_sources.py"),
    "figure10": Experiment(
        "figure10", "PRAUC vs support-set size", run_figure10,
        "benchmarks/test_bench_figure10_support.py"),
    "figure11": Experiment(
        "figure11", "Monitor missing-value / new-attribute analysis", run_figure11,
        "benchmarks/test_bench_figure11_missingness.py"),
    "figure12": Experiment(
        "figure12", "Monitor prod_type token distribution shift", run_figure12,
        "benchmarks/test_bench_figure12_tokendist.py"),
    "table4": Experiment(
        "table4", "Top-5 learned feature importances", run_table4,
        "benchmarks/test_bench_table4_importance.py"),
    "table5": Experiment(
        "table5", "Top vs other vs all attributes", run_table5,
        "benchmarks/test_bench_table5_topfeatures.py"),
    "table6": Experiment(
        "table6", "Contrastive-feature ablation", run_table6,
        "benchmarks/test_bench_table6_ablation.py"),
    "table7": Experiment(
        "table7", "Single-domain benchmark F1", run_table7,
        "benchmarks/test_bench_table7_single_domain.py"),
}


def get_experiment(identifier: str) -> Experiment:
    """Look up an experiment by identifier (raises ``KeyError`` when unknown)."""
    if identifier not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {identifier!r}; available: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[identifier]


def list_experiments() -> List[str]:
    """All registered experiment identifiers."""
    return sorted(EXPERIMENTS)
