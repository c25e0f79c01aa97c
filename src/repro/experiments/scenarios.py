"""Scenario and model factories shared by the experiment harness.

``build_scenario`` reproduces the experimental protocol of Section 5.2:

* **Music-3K / Music-1M** — train on 3 of the 7 websites, adapt/test on all 7
  (overlapping) or only the remaining 4 (disjoint), 100-pair support set;
* **Monitor** — train on the 5 sources listed in the paper, adapt/test on all
  24 (overlapping) or the other 19 (disjoint).

``model_factories`` returns fresh-model constructors for the methods compared
in Figure 6 / Tables 8-9, with CPU-friendly default sizes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..baselines import TLER, BaselineConfig, CorDelAttention, DeepMatcher, Ditto, EntityMatcher
from ..core import AdaMELBase, AdaMELConfig, AdaMELFew, AdaMELHybrid, AdaMELZero
from ..data.domain import MELScenario
from ..data.generators import (
    MONITOR_SEEN_SOURCES,
    MUSIC_SEEN_SOURCES,
    MonitorCorpusGenerator,
    MonitorGeneratorConfig,
    MultiSourceCorpus,
    MusicCorpusGenerator,
    MusicGeneratorConfig,
)

__all__ = ["ExperimentScale", "SCALE_NAMES", "select_scale", "select_seed", "build_corpus",
           "build_scenario", "model_factories", "adamel_factories", "DATASETS", "MODES"]

DATASETS = ("music3k", "music1m", "monitor")
MODES = ("overlapping", "disjoint")
SCALE_NAMES = ("smoke", "bench", "paper")


@dataclass(frozen=True)
class ExperimentScale:
    """Workload size used by the experiment harness.

    The defaults are deliberately small so that every table/figure regenerates
    in seconds on CPU; pass a larger scale for closer-to-paper workloads.
    """

    music_entities: int = 60
    monitor_entities: int = 90
    support_size: int = 60
    test_size: int = 200
    adamel_epochs: int = 25
    baseline_epochs: int = 15
    embedding_dim: int = 32
    hidden_dim: int = 24
    attention_dim: int = 48
    classifier_hidden_dim: int = 48
    tokens_per_attribute: int = 6
    seed: int = 0

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """Very small scale for unit tests and CI."""
        return cls(music_entities=30, monitor_entities=40, support_size=20, test_size=80,
                   adamel_epochs=6, baseline_epochs=4, embedding_dim=24, hidden_dim=16,
                   attention_dim=24, classifier_hidden_dim=24, tokens_per_attribute=4)

    @classmethod
    def bench(cls) -> "ExperimentScale":
        """Small enough for CI, large enough for the paper's claims to show."""
        return cls(music_entities=50, monitor_entities=70, support_size=40, test_size=150,
                   adamel_epochs=15, baseline_epochs=8, embedding_dim=32, hidden_dim=24,
                   attention_dim=48, classifier_hidden_dim=48, tokens_per_attribute=5)

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """Closer to the paper's sizes (minutes instead of seconds)."""
        return cls(music_entities=250, monitor_entities=300, support_size=100, test_size=500,
                   adamel_epochs=100, baseline_epochs=40, embedding_dim=128, hidden_dim=64,
                   attention_dim=128, classifier_hidden_dim=128, tokens_per_attribute=10)

    def adamel_config(self, **overrides: object) -> AdaMELConfig:
        base = dict(embedding_dim=self.embedding_dim, hidden_dim=self.hidden_dim,
                    attention_dim=self.attention_dim,
                    classifier_hidden_dim=self.classifier_hidden_dim,
                    epochs=self.adamel_epochs, crop_size=max(self.tokens_per_attribute, 4) * 3,
                    seed=self.seed)
        base.update(overrides)
        return AdaMELConfig(**base)

    def baseline_config(self, **overrides: object) -> BaselineConfig:
        base = dict(embedding_dim=self.embedding_dim, hidden_dim=self.hidden_dim,
                    classifier_hidden_dim=self.classifier_hidden_dim,
                    epochs=self.baseline_epochs, tokens_per_attribute=self.tokens_per_attribute,
                    seed=self.seed)
        base.update(overrides)
        return BaselineConfig(**base)


def select_scale(name: Optional[str] = None) -> Tuple[str, ExperimentScale]:
    """Resolve a scale name (default: ``$REPRO_BENCH_SCALE`` or ``bench``)."""
    # An empty env var (e.g. an unset CI template variable) means "default".
    mode = (name or os.environ.get("REPRO_BENCH_SCALE") or "bench").lower()
    if mode not in SCALE_NAMES:
        raise ValueError(f"unknown benchmark scale {mode!r}; expected one of {SCALE_NAMES}")
    return mode, getattr(ExperimentScale, mode)()


def select_seed(seed: Optional[int] = None) -> int:
    """Resolve the benchmark seed (default: ``$REPRO_BENCH_SEED`` or 0)."""
    if seed is not None:
        return int(seed)
    return int(os.environ.get("REPRO_BENCH_SEED") or "0")


def build_corpus(dataset: str, entity_type: str = "artist",
                 scale: Optional[ExperimentScale] = None, seed: int = 0,
                 num_monitor_sources: int = 24) -> MultiSourceCorpus:
    """Generate the synthetic corpus standing in for ``dataset``."""
    scale = scale or ExperimentScale()
    dataset = dataset.lower()
    if dataset == "music3k":
        config = MusicGeneratorConfig(num_entities=scale.music_entities, weakly_labeled=False)
        return MusicCorpusGenerator(entity_type, config, seed=seed).generate()
    if dataset == "music1m":
        config = MusicGeneratorConfig(num_entities=int(scale.music_entities * 1.5),
                                      weakly_labeled=True)
        return MusicCorpusGenerator(entity_type, config, seed=seed).generate()
    if dataset == "monitor":
        config = MonitorGeneratorConfig(num_entities=scale.monitor_entities)
        return MonitorCorpusGenerator(config, num_sources=num_monitor_sources, seed=seed).generate()
    raise ValueError(f"unknown dataset {dataset!r}; expected one of {DATASETS}")


def seen_sources_for(dataset: str) -> Sequence[str]:
    """The paper's seen source set for each dataset."""
    return MONITOR_SEEN_SOURCES if dataset.lower() == "monitor" else MUSIC_SEEN_SOURCES


def build_scenario(dataset: str, entity_type: str = "artist", mode: str = "overlapping",
                   scale: Optional[ExperimentScale] = None, seed: int = 0,
                   support_size: Optional[int] = None) -> MELScenario:
    """Build the MEL scenario for one (dataset, entity type, mode) cell."""
    scale = scale or ExperimentScale()
    corpus = build_corpus(dataset, entity_type=entity_type, scale=scale, seed=seed)
    return corpus.build_scenario(
        seen_sources=seen_sources_for(dataset),
        mode=mode,
        support_size=scale.support_size if support_size is None else support_size,
        test_size=scale.test_size,
        seed=seed,
        name=f"{dataset}-{entity_type}-{mode}",
    )


def adamel_factories(scale: Optional[ExperimentScale] = None,
                     config_overrides: Optional[Mapping[str, object]] = None
                     ) -> Dict[str, Callable[[], object]]:
    """Factories for the four AdaMEL variants."""
    scale = scale or ExperimentScale()
    overrides = dict(config_overrides or {})
    config = scale.adamel_config(**overrides)
    return {
        "adamel-base": lambda: AdaMELBase(config),
        "adamel-zero": lambda: AdaMELZero(config),
        "adamel-few": lambda: AdaMELFew(config),
        "adamel-hyb": lambda: AdaMELHybrid(config),
    }


def model_factories(scale: Optional[ExperimentScale] = None,
                    include_baselines: bool = True, include_adamel: bool = True,
                    methods: Optional[Sequence[str]] = None) -> Dict[str, Callable[[], object]]:
    """Factories for every method compared in Figure 6 / Tables 8-9.

    ``methods`` optionally restricts the returned factories by name.
    """
    scale = scale or ExperimentScale()
    baseline_config = scale.baseline_config()
    factories: Dict[str, Callable[[], object]] = {}
    if include_baselines:
        factories.update({
            "tler": lambda: TLER(),
            "deepmatcher": lambda: DeepMatcher(baseline_config),
            "entitymatcher": lambda: EntityMatcher(baseline_config),
            "ditto": lambda: Ditto(baseline_config),
            "cordel-attention": lambda: CorDelAttention(baseline_config),
        })
    if include_adamel:
        factories.update(adamel_factories(scale))
    if methods is not None:
        unknown = [m for m in methods if m not in factories]
        if unknown:
            raise KeyError(f"unknown methods {unknown}; available: {sorted(factories)}")
        factories = {name: factories[name] for name in methods}
    return factories
