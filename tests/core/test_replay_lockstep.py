"""Lockstep and policy tests for the trainer's graph-replay fast path.

The headline guarantee: with the default float64 dtype, training with
recorded-and-replayed steps is **bit-exact** with building every step eagerly
— identical loss histories and identical parameters after every epoch —
including the extra graph of the final partial mini-batch.  The eager
reference is the same trainer with ``repro.nn.graph.MAX_STEP_GRAPHS = 0``.
"""

import numpy as np
import pytest

import repro.nn.graph
from repro.core import (AdaMELBase, AdaMELConfig, AdaMELFew, AdaMELHybrid,
                        AdaMELZero)
from repro.experiments.scenarios import ExperimentScale, build_scenario
from repro.nn.tensor import Tensor


@pytest.fixture(scope="module")
def smoke_scale():
    return ExperimentScale.smoke()


@pytest.fixture(scope="module")
def music_scenario(smoke_scale):
    return build_scenario("music3k", "artist", mode="overlapping",
                          scale=smoke_scale, seed=0).align()


def _fit_eager(model, scenario, monkeypatch):
    """Fit with no graph recorded: every step is built eagerly."""
    with monkeypatch.context() as patch:
        patch.setattr(repro.nn.graph, "MAX_STEP_GRAPHS", 0)
        history = model.fit(scenario)
    assert model.replay_stats() is None
    return history


def _fit_pair(cls, config, scenario, monkeypatch):
    eager = cls(config)
    eager_history = _fit_eager(eager, scenario, monkeypatch)
    replay = cls(config)
    replay_history = replay.fit(scenario)
    return eager, eager_history, replay, replay_history


class TestLockstep:
    def test_hybrid_three_epochs_bit_exact(self, smoke_scale, music_scenario, monkeypatch):
        """Acceptance: 3 epochs of music3k — identical losses and parameters."""
        config = smoke_scale.adamel_config(epochs=3)
        eager, eh, replay, rh = _fit_pair(AdaMELHybrid, config, music_scenario,
                                          monkeypatch)
        assert eh.total_loss == rh.total_loss
        assert eh.base_loss == rh.base_loss
        assert eh.target_loss == rh.target_loss
        assert eh.support_loss == rh.support_loss
        for p_eager, p_replay in zip(eager.network.parameters(),
                                     replay.network.parameters()):
            assert np.array_equal(p_eager.data, p_replay.data)

    @pytest.mark.parametrize("cls", [AdaMELBase, AdaMELZero, AdaMELFew])
    def test_all_variants_bit_exact(self, cls, smoke_scale, music_scenario, monkeypatch):
        config = smoke_scale.adamel_config(epochs=2)
        eager, eh, replay, rh = _fit_pair(cls, config, music_scenario, monkeypatch)
        assert eh.total_loss == rh.total_loss
        for p_eager, p_replay in zip(eager.network.parameters(),
                                     replay.network.parameters()):
            assert np.array_equal(p_eager.data, p_replay.data)

    def test_partial_batches_compile_second_graph(self, smoke_scale, music_scenario,
                                                  monkeypatch):
        """A batch size that never divides the pool exercises the second graph."""
        config = smoke_scale.adamel_config(epochs=2, batch_size=13)
        eager, eh, replay, rh = _fit_pair(AdaMELHybrid, config, music_scenario,
                                          monkeypatch)
        assert eh.total_loss == rh.total_loss
        # One graph per recurring size: the full batch and the remainder.
        assert len(replay._steps._graphs) == 2

    def test_auto_mode_is_replay(self, smoke_scale, music_scenario):
        config = smoke_scale.adamel_config(epochs=1)
        model = AdaMELHybrid(config)
        model.fit(music_scenario)
        assert model.replay_stats() is not None
        stats = model.replay_stats()
        assert stats["forward_ops"] > 0 and stats["backward_ops"] > 0

    def test_predictions_identical_across_engines(self, smoke_scale, music_scenario,
                                                  monkeypatch):
        config = smoke_scale.adamel_config(epochs=2)
        eager, _, replay, _ = _fit_pair(AdaMELZero, config, music_scenario, monkeypatch)
        pairs = music_scenario.test.pairs[:20]
        assert np.array_equal(eager.predict_proba(pairs), replay.predict_proba(pairs))


class TestTapeBudget:
    def test_step_tape_and_allocations_stay_within_budget(self, smoke_scale, music_scenario,
                                                          monkeypatch):
        """Count guard for the training tape: no clock, so no noise.

        The compiled AdaMEL-hyb step is 19 forward ops / 20 backward ops /
        34 nodes (six stage kernels per branch, the KL, the support weights
        and the five-op loss combination), and a replayed step allocates ~2
        tensors (the capture steps, spread over the fit) where an eager step
        allocates ~29.
        """
        config = smoke_scale.adamel_config(profile_steps=True)

        def fit(eager):
            model = AdaMELHybrid(config)
            created = Tensor._created
            if eager:
                history = _fit_eager(model, music_scenario, monkeypatch)
            else:
                history = model.fit(music_scenario)
            return model, (Tensor._created - created) / len(history.step_seconds)

        replay, replay_tensors = fit(eager=False)
        _, eager_tensors = fit(eager=True)
        stats = replay.replay_stats()
        assert stats["forward_ops"] <= 20
        assert stats["backward_ops"] <= 22
        assert stats["nodes"] <= 40
        assert replay_tensors <= 5
        assert replay_tensors < eager_tensors / 3


class TestDtypePolicy:
    def test_float32_networks_stay_float32(self, smoke_scale, music_scenario):
        config = smoke_scale.adamel_config(epochs=2, dtype="float32")
        model = AdaMELHybrid(config)
        model.fit(music_scenario)
        for param in model.network.parameters():
            assert param.data.dtype == np.float32
        probs = model.predict_proba(music_scenario.test.pairs[:8])
        assert probs.dtype == np.float32
        assert np.all((probs >= 0) & (probs <= 1))

    def test_float32_f1_close_to_float64(self, smoke_scale, music_scenario):
        """Acceptance: float32 trains music3k to within 0.01 F1 of float64."""
        config = smoke_scale.adamel_config()
        full = AdaMELHybrid(config)
        full.fit(music_scenario)
        half = AdaMELHybrid(config.with_updates(dtype="float32"))
        half.fit(music_scenario)
        f64 = full.evaluate(music_scenario.test.pairs).f1
        f32 = half.evaluate(music_scenario.test.pairs).f1
        assert abs(f64 - f32) <= 0.01

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            AdaMELConfig(dtype="float16")
        # There is no execution switch any more: the field is gone.
        for execution in ("replay", "eager"):
            with pytest.raises(TypeError):
                AdaMELConfig(execution=execution)


class TestHistoryExtras:
    def test_cache_hit_rate_recorded(self, smoke_scale, music_scenario):
        config = smoke_scale.adamel_config(epochs=1)
        model = AdaMELZero(config)
        history = model.fit(music_scenario)
        assert history.encoder_cache_hit_rate is not None
        assert 0.0 <= history.encoder_cache_hit_rate <= 1.0
        payload = history.as_dict()
        assert payload["encoder_cache_hit_rate"] == history.encoder_cache_hit_rate
        # Refitting re-encodes the same pairs: the cache should now serve them.
        rerun = AdaMELZero(config).fit(music_scenario)
        assert rerun.encoder_cache_hit_rate > 0.9

    def test_step_seconds_only_when_profiling(self, smoke_scale, music_scenario):
        config = smoke_scale.adamel_config(epochs=1)
        plain = AdaMELBase(config).fit(music_scenario)
        assert plain.step_seconds is None
        assert "step_seconds" not in plain.as_dict()
        profiled = AdaMELBase(config.with_updates(profile_steps=True)).fit(music_scenario)
        assert profiled.step_seconds
        assert all(s >= 0 for s in profiled.step_seconds)
