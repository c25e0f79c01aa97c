"""Tests for the baseline matchers (TLER + the four deep baselines)."""

import numpy as np
import pytest

import repro.nn.graph
from repro.baselines import (
    TLER,
    BaselineConfig,
    CorDelAttention,
    DeepMatcher,
    Ditto,
    EntityMatcher,
    TLERConfig,
)
from repro.nn.tensor import Tensor

FAST_BASELINE_CONFIG = BaselineConfig(embedding_dim=16, hidden_dim=8, classifier_hidden_dim=12,
                                      tokens_per_attribute=4, epochs=2, batch_size=8, seed=0)

DEEP_BASELINES = [
    ("deepmatcher", lambda: DeepMatcher(FAST_BASELINE_CONFIG)),
    ("entitymatcher", lambda: EntityMatcher(FAST_BASELINE_CONFIG)),
    ("ditto", lambda: Ditto(FAST_BASELINE_CONFIG)),
    ("cordel-attention", lambda: CorDelAttention(FAST_BASELINE_CONFIG)),
]


class TestBaselineConfig:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            BaselineConfig(embedding_dim=0)
        with pytest.raises(ValueError):
            BaselineConfig(learning_rate=-1)


class TestTLER:
    def test_fit_predict_evaluate(self, music_scenario):
        model = TLER()
        losses = model.fit(music_scenario)
        assert losses[-1] <= losses[0]
        scores = model.predict_proba(music_scenario.test.pairs[:10])
        assert scores.shape == (10,)
        assert np.all((scores >= 0) & (scores <= 1))
        report = model.evaluate(music_scenario.test.pairs)
        assert 0.0 <= report.pr_auc <= 1.0

    def test_predict_before_fit(self, music_scenario):
        with pytest.raises(RuntimeError):
            TLER().predict_proba(music_scenario.test.pairs[:2])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TLERConfig(measures=("bogus",))
        with pytest.raises(ValueError):
            TLERConfig(epochs=0)

    def test_num_parameters(self, music_scenario):
        model = TLER()
        model.fit(music_scenario)
        expected = len(music_scenario.aligned_schema()) * len(TLERConfig().measures) + 1
        assert model.num_parameters() == expected

    def test_support_set_reuse_option(self, music_scenario):
        with_support = TLER(TLERConfig(use_support_set=True, epochs=50))
        without_support = TLER(TLERConfig(use_support_set=False, epochs=50))
        with_support.fit(music_scenario)
        without_support.fit(music_scenario)
        pairs = music_scenario.test.pairs[:20]
        assert not np.allclose(with_support.predict_proba(pairs),
                               without_support.predict_proba(pairs))


class TestDeepBaselines:
    @pytest.mark.parametrize("name,factory", DEEP_BASELINES)
    def test_fit_and_predict(self, name, factory, music_scenario):
        model = factory()
        losses = model.fit(music_scenario)
        assert len(losses) == FAST_BASELINE_CONFIG.epochs
        assert np.isfinite(losses[-1])
        scores = model.predict_proba(music_scenario.test.pairs[:8])
        assert scores.shape == (8,)
        assert np.all((scores >= 0) & (scores <= 1))

    @pytest.mark.parametrize("name,factory", DEEP_BASELINES)
    def test_predict_before_fit_raises(self, name, factory, music_scenario):
        with pytest.raises(RuntimeError):
            factory().predict_proba(music_scenario.test.pairs[:2])

    @pytest.mark.parametrize("name,factory", DEEP_BASELINES)
    def test_num_parameters(self, name, factory, music_scenario):
        model = factory()
        model.fit(music_scenario)
        assert model.num_parameters() > 0

    def test_deepmatcher_can_learn_separable_task(self, music_scenario):
        """Training for several epochs lowers the loss on the training data."""
        config = BaselineConfig(embedding_dim=16, hidden_dim=8, classifier_hidden_dim=12,
                                tokens_per_attribute=4, epochs=8, batch_size=8, seed=0)
        model = DeepMatcher(config)
        losses = model.fit(music_scenario)
        assert losses[-1] < losses[0]

    def test_ditto_serialisation_length(self, music_scenario):
        model = Ditto(FAST_BASELINE_CONFIG, tokens_per_value=3)
        model.fit(music_scenario)
        encoded = model._encode_pairs(music_scenario.test.pairs[:2])
        num_attrs = len(music_scenario.aligned_schema())
        assert encoded.shape[1] == 2 * num_attrs * (3 + 3) + 1

    def test_ditto_augmentation_adds_pairs(self, music_scenario):
        model = Ditto(FAST_BASELINE_CONFIG, augmentation_rate=1.0)
        model.fit(music_scenario)
        rng = np.random.default_rng(0)
        augmented = model._augment(music_scenario.source.pairs, rng)
        assert len(augmented) > len(music_scenario.source.pairs)

    def test_ditto_invalid_args(self):
        with pytest.raises(ValueError):
            Ditto(tokens_per_value=0)
        with pytest.raises(ValueError):
            Ditto(augmentation_rate=2.0)

    def test_cordel_contrast_encoding_separates_shared_and_diff(self, music_scenario):
        model = CorDelAttention(FAST_BASELINE_CONFIG)
        model.fit(music_scenario)
        positives = [pair for pair in music_scenario.test.pairs if pair.label == 1][:4]
        encoded = model._encode_pairs(positives)
        assert encoded.shape[2] == 2  # shared / difference groups

    def test_use_support_set_flag(self, music_scenario):
        config = BaselineConfig(embedding_dim=16, hidden_dim=8, classifier_hidden_dim=12,
                                tokens_per_attribute=4, epochs=1, batch_size=8,
                                use_support_set=True)
        model = DeepMatcher(config)
        pairs = model._training_pairs(music_scenario.align())
        assert len(pairs) == len(music_scenario.source) + len(music_scenario.support)


class TestBaselineReplayEngine:
    """Graph-replay fast path in the shared baseline training loop."""

    @pytest.mark.parametrize("cls", [DeepMatcher, EntityMatcher, CorDelAttention])
    def test_replay_is_bit_exact_with_eager(self, cls, music_scenario, monkeypatch):
        created = Tensor._created
        eager = cls(FAST_BASELINE_CONFIG)
        with monkeypatch.context() as patch:
            # The eager reference: no graph is ever recorded.
            patch.setattr(repro.nn.graph, "MAX_STEP_GRAPHS", 0)
            eager_history = eager.fit(music_scenario)
        eager_tensors, created = Tensor._created - created, Tensor._created
        replay = cls(FAST_BASELINE_CONFIG)
        replay_history = replay.fit(music_scenario)
        # Replayed steps build no tensors: the replay run really replayed.
        assert Tensor._created - created < eager_tensors / 2
        assert eager_history == replay_history
        for p_eager, p_replay in zip(eager.network.parameters(),
                                     replay.network.parameters()):
            assert np.array_equal(p_eager.data, p_replay.data)

    def test_ditto_stays_eager(self, music_scenario):
        """Ditto's embedding lookups are not capture-safe; it must not opt in."""
        model = Ditto(FAST_BASELINE_CONFIG)
        model.fit(music_scenario)
        assert not getattr(model.network, "replay_safe", False)

    def test_invalid_execution_rejected(self):
        # There is no execution switch any more: the field is gone.
        for execution in ("replay", "eager"):
            with pytest.raises(TypeError):
                BaselineConfig(execution=execution)
