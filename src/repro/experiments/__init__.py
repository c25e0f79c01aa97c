"""Experiment harness: one module per paper table / figure."""

from .attributes import restrict_pairs_to_attributes, restrict_scenario_to_attributes
from .figure6 import Figure6Result, run_figure6
from .figure7 import Figure7Result, run_figure7
from .figure8 import Figure8Result, run_figure8
from .figure9 import Figure9Result, run_figure9
from .figure10 import Figure10Result, run_figure10
from .figure11 import Figure11Result, run_figure11
from .figure12 import Figure12Result, run_figure12
from .registry import EXPERIMENTS, Experiment, get_experiment, list_experiments
from .scenarios import (
    DATASETS,
    MODES,
    SCALE_NAMES,
    ExperimentScale,
    adamel_factories,
    build_corpus,
    build_scenario,
    model_factories,
    select_scale,
    select_seed,
)
from .table4 import Table4Result, run_table4
from .table5 import Table5Result, run_table5
from .table6 import Table6Result, run_table6
from .table7 import Table7Result, run_table7

__all__ = [
    "ExperimentScale",
    "SCALE_NAMES",
    "select_scale",
    "select_seed",
    "build_corpus",
    "build_scenario",
    "model_factories",
    "adamel_factories",
    "DATASETS",
    "MODES",
    "restrict_pairs_to_attributes",
    "restrict_scenario_to_attributes",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_figure9",
    "run_figure10",
    "run_figure11",
    "run_figure12",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "Figure6Result",
    "Figure7Result",
    "Figure8Result",
    "Figure9Result",
    "Figure10Result",
    "Figure11Result",
    "Figure12Result",
    "Table4Result",
    "Table5Result",
    "Table6Result",
    "Table7Result",
    "EXPERIMENTS",
    "Experiment",
    "get_experiment",
    "list_experiments",
]
