"""Tests for the shared utilities (rng, timer, serialization, validation)."""

import time

import numpy as np
import pytest

from repro.utils import (
    RandomState,
    Timer,
    load_json,
    load_npz,
    require_fraction,
    require_positive,
    save_json,
    save_npz,
    spawn_rng,
)


class TestRandomState:
    def test_fork_is_deterministic(self):
        state_a = RandomState(seed=7)
        state_b = RandomState(seed=7)
        assert state_a.fork("child").random() == state_b.fork("child").random()

    def test_fork_names_independent(self):
        state = RandomState(seed=7)
        assert state.fork("a").random() != state.fork("b").random()

    def test_spawn_rng_accepts_many_inputs(self):
        assert isinstance(spawn_rng(3), np.random.Generator)
        generator = np.random.default_rng(0)
        assert spawn_rng(generator) is generator
        assert isinstance(spawn_rng(RandomState(1)), np.random.Generator)
        assert isinstance(spawn_rng(None), np.random.Generator)

    def test_integers_range(self):
        value = RandomState(0).integers(5, 10)
        assert 5 <= value < 10


class TestTimer:
    def test_measure_records_duration(self):
        timer = Timer()
        with timer.measure("sleep"):
            time.sleep(0.01)
        assert timer.total("sleep") >= 0.01
        assert timer.count("sleep") == 1
        assert timer.mean("sleep") == pytest.approx(timer.total("sleep"))

    def test_unknown_name_is_zero(self):
        assert Timer().total("nothing") == 0.0

    def test_summary(self):
        timer = Timer()
        with timer.measure("a"):
            pass
        assert "a" in timer.summary()


class TestSerialization:
    def test_json_roundtrip_with_numpy(self, tmp_path):
        payload = {"value": np.float64(0.5), "array": np.arange(3), "n": np.int64(4)}
        path = save_json(payload, tmp_path / "out.json")
        loaded = load_json(path)
        assert loaded["value"] == 0.5
        assert loaded["array"] == [0, 1, 2]
        assert loaded["n"] == 4

    def test_npz_roundtrip(self, tmp_path):
        arrays = {"weights": np.random.rand(3, 2), "bias": np.zeros(2)}
        path = save_npz(arrays, tmp_path / "model.npz")
        loaded = load_npz(path)
        assert np.allclose(loaded["weights"], arrays["weights"])
        assert set(loaded) == {"weights", "bias"}

    def test_model_state_dict_roundtrip(self, tmp_path, fast_config):
        from repro.core import AdaMELNetwork
        network = AdaMELNetwork(4, fast_config.embedding_dim, config=fast_config,
                                rng=np.random.default_rng(0))
        path = save_npz(network.state_dict(), tmp_path / "adamel.npz")
        restored = AdaMELNetwork(4, fast_config.embedding_dim, config=fast_config,
                                 rng=np.random.default_rng(99))
        restored.load_state_dict(load_npz(path))
        features = np.random.rand(2, 4, fast_config.embedding_dim)
        assert np.allclose(network.predict_proba(features), restored.predict_proba(features))


class TestValidation:
    def test_require_positive(self):
        assert require_positive(3, "x") == 3
        with pytest.raises(ValueError):
            require_positive(0, "x")

    def test_require_fraction(self):
        assert require_fraction(0.5, "x") == 0.5
        assert require_fraction(1.0, "x") == 1.0
        with pytest.raises(ValueError):
            require_fraction(1.5, "x")
        with pytest.raises(ValueError):
            require_fraction(1.0, "x", inclusive=False)
