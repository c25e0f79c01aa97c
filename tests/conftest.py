"""Shared fixtures: tiny corpora, scenarios and configs so tests stay fast."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import AdaMELConfig
from repro.data.generators import (
    MonitorCorpusGenerator,
    MonitorGeneratorConfig,
    MusicCorpusGenerator,
    MusicGeneratorConfig,
)
from repro.experiments import ExperimentScale
from repro.text import HashedEmbedder, Tokenizer

# `pytest --hypothesis-profile=ci`: ten times the examples of the default
# profile, for properties that take their count from the profile.
settings.register_profile("ci", max_examples=10 * settings.default.max_examples)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(123)


@pytest.fixture(scope="session")
def tiny_music_corpus():
    """A small music corpus shared across tests (generation is deterministic)."""
    config = MusicGeneratorConfig(num_entities=30)
    return MusicCorpusGenerator("artist", config, seed=11).generate()


@pytest.fixture(scope="session")
def tiny_track_corpus():
    config = MusicGeneratorConfig(num_entities=25)
    return MusicCorpusGenerator("track", config, seed=13).generate()


@pytest.fixture(scope="session")
def tiny_monitor_corpus():
    config = MonitorGeneratorConfig(num_entities=35)
    return MonitorCorpusGenerator(config, num_sources=10, seed=17).generate()


@pytest.fixture(scope="session")
def music_scenario(tiny_music_corpus):
    """Overlapping MEL scenario built from the tiny music corpus."""
    return tiny_music_corpus.build_scenario(
        seen_sources=["website_1", "website_2", "website_3"],
        mode="overlapping", support_size=20, test_size=80, seed=5)


@pytest.fixture(scope="session")
def monitor_scenario(tiny_monitor_corpus):
    return tiny_monitor_corpus.build_scenario(
        seen_sources=["ebay.com", "catalog.com", "best-deal-items.com",
                      "cleverboxes.com", "ca.pcpartpicker.com"],
        mode="overlapping", support_size=20, test_size=80, seed=5)


@pytest.fixture(scope="session")
def fast_config() -> AdaMELConfig:
    """AdaMEL config small enough for unit tests."""
    return AdaMELConfig(embedding_dim=16, hidden_dim=8, attention_dim=12,
                        classifier_hidden_dim=12, epochs=3, batch_size=8, seed=0)


@pytest.fixture(scope="session")
def smoke_scale() -> ExperimentScale:
    return ExperimentScale.smoke()


@pytest.fixture(scope="session")
def small_embedder() -> HashedEmbedder:
    return HashedEmbedder(dim=16, tokenizer=Tokenizer(crop_size=6))
