"""Table 6: ablation of the contrastive relational features.

AdaMEL-base and AdaMEL-hyb are trained with only the ``shared`` features, only
the ``unique`` features, or both (the default).  The paper finds that both
kinds carry complementary signal and that using both performs best.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import AdaMELBase, AdaMELHybrid
from ..eval.reporting import format_table
from .scenarios import ExperimentScale, build_scenario

__all__ = ["Table6Result", "run_table6"]

FEATURE_MODES: Dict[str, Tuple[str, ...]] = {
    "shared": ("shared",),
    "unique": ("unique",),
    "shared+unique": ("shared", "unique"),
}


@dataclass
class Table6Result:
    """``results[dataset][method][feature_mode] = PRAUC``."""

    results: Dict[str, Dict[str, Dict[str, float]]]

    def as_dict(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        return self.results

    def format(self) -> str:
        blocks: List[str] = []
        for dataset, methods in self.results.items():
            rows = [[method] + [scores.get(mode, float("nan")) for mode in FEATURE_MODES]
                    for method, scores in methods.items()]
            blocks.append(format_table(["method"] + list(FEATURE_MODES), rows,
                                       title=f"[Table 6] contrastive-feature ablation — {dataset}"))
        return "\n\n".join(blocks)


def run_table6(datasets: Optional[Sequence[Tuple[str, str]]] = None,
               scale: Optional[ExperimentScale] = None, seed: int = 0) -> Table6Result:
    """Run the ablation.  ``datasets`` is a list of (dataset, entity_type)."""
    scale = scale or ExperimentScale()
    if datasets is None:
        datasets = (("music3k", "artist"), ("music3k", "album"))
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for dataset, entity_type in datasets:
        key = f"{dataset}-{entity_type}"
        scenario = build_scenario(dataset, entity_type=entity_type, mode="overlapping",
                                  scale=scale, seed=seed)
        results[key] = {"adamel-base": {}, "adamel-hyb": {}}
        for mode_name, kinds in FEATURE_MODES.items():
            config = scale.adamel_config(feature_kinds=kinds)
            for method_name, cls in (("adamel-base", AdaMELBase), ("adamel-hyb", AdaMELHybrid)):
                model = cls(config)
                model.fit(scenario)
                results[key][method_name][mode_name] = model.evaluate(scenario.test.pairs).pr_auc
    return Table6Result(results=results)
