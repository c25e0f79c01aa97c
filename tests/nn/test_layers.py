"""Tests for layers, modules, optimisers, activations and recurrent cells."""

import numpy as np
import pytest

from repro.nn import (
    GRU,
    GRUCell,
    MLP,
    Adam,
    Dropout,
    Linear,
    Module,
    Parameter,
    ScaledDotProductAttention,
    SelfAttentionEncoder,
    Sequential,
    Tensor,
    binary_cross_entropy,
    clip_grad_norm,
)
from repro.nn import functional as F


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestLinearAndMLP:
    def test_linear_shape(self, rng):
        layer = Linear(5, 3, rng=rng)
        assert layer(Tensor(np.zeros((4, 5)))).shape == (4, 3)

    def test_linear_no_bias(self, rng):
        layer = Linear(5, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_linear_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_mlp_output_shape(self, rng):
        mlp = MLP(4, [8, 8], 2, rng=rng)
        assert mlp(Tensor(np.zeros((3, 4)))).shape == (3, 2)

    def test_sequential_indexing(self, rng):
        seq = Sequential(Linear(2, 3, rng=rng), Linear(3, 1, rng=rng))
        assert len(seq) == 2
        assert isinstance(seq[0], Linear)


class TestModuleMechanics:
    def test_parameter_discovery_recursive(self, rng):
        mlp = MLP(4, [8], 2, rng=rng)
        names = [name for name, _ in mlp.named_parameters()]
        assert any("weight" in name for name in names)
        assert mlp.num_parameters() == sum(p.size for p in mlp.parameters())

    def test_state_dict_roundtrip(self, rng):
        mlp = MLP(4, [8], 2, rng=rng)
        state = mlp.state_dict()
        mlp2 = MLP(4, [8], 2, rng=np.random.default_rng(99))
        mlp2.load_state_dict(state)
        x = np.random.rand(3, 4)
        assert np.allclose(mlp(Tensor(x)).data, mlp2(Tensor(x)).data)

    def test_load_state_dict_mismatch(self, rng):
        mlp = MLP(4, [8], 2, rng=rng)
        with pytest.raises(KeyError):
            mlp.load_state_dict({"bogus": np.zeros(2)})

    def test_train_eval_propagates(self, rng):
        seq = Sequential(Linear(2, 2, rng=rng), Dropout(0.5, rng=rng))
        seq.eval()
        assert all(not module.training for module in seq.modules())

    def test_zero_grad(self, rng):
        layer = Linear(2, 2, rng=rng)
        (layer(Tensor(np.ones((1, 2)))) ** 2).sum().backward()
        layer.zero_grad()
        assert all(p.grad is None for p in layer.parameters())


class TestDropoutAndEmbedding:
    def test_dropout_eval_is_identity(self, rng):
        dropout = Dropout(0.5, rng=rng)
        dropout.eval()
        x = Tensor(np.ones((4, 4)))
        assert np.allclose(dropout(x).data, x.data)

    def test_dropout_training_zeroes_entries(self, rng):
        dropout = Dropout(0.7, rng=rng)
        out = dropout(Tensor(np.ones((100,))))
        assert np.sum(out.data == 0) > 0

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)



class TestLosses:
    def test_bce_perfect_prediction_near_zero(self):
        loss = binary_cross_entropy(Tensor([1.0, 0.0]), Tensor([1.0, 0.0]))
        assert float(loss.data) < 1e-6

    def test_bce_wrong_prediction_large(self):
        loss = binary_cross_entropy(Tensor([0.0, 1.0]), Tensor([1.0, 0.0]))
        assert float(loss.data) > 5.0

    def test_bce_matches_closed_form(self):
        p, y = 0.7, 1.0
        loss = binary_cross_entropy(Tensor([p]), Tensor([y]))
        assert np.isclose(float(loss.data), -np.log(p))



class TestOptimizers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0])
        param = Parameter(np.zeros(2))

        def loss():
            diff = param - Tensor(target)
            return (diff * diff).sum()

        return param, target, loss

    def test_adam_converges(self):
        param, target, loss = self._quadratic_problem()
        optimizer = Adam([param], lr=0.2)
        for _ in range(300):
            optimizer.zero_grad()
            loss().backward()
            optimizer.step()
        assert np.allclose(param.data, target, atol=1e-2)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_adam_rejects_mixed_dtypes(self):
        params = [Parameter(np.zeros(2)), Parameter(np.zeros(2, dtype=np.float32))]
        with pytest.raises(ValueError, match="one dtype"):
            Adam(params, lr=0.1)

    def test_clip_grad_norm(self):
        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 10.0)
        norm = clip_grad_norm([param], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.isclose(np.linalg.norm(param.grad), 1.0)


class TestAttentionModules:
    def test_additive_attention_normalised(self, rng):
        from repro.nn import AdditiveAttention
        attention = AdditiveAttention(4, 6, rng=rng)
        scores = attention(Tensor(np.random.rand(3, 5, 4)))
        assert scores.shape == (3, 5)
        assert np.allclose(scores.data.sum(axis=1), 1.0)

    def test_scaled_dot_product_attention(self, rng):
        attention = ScaledDotProductAttention()
        q = Tensor(np.random.rand(2, 3, 4))
        k = Tensor(np.random.rand(2, 5, 4))
        v = Tensor(np.random.rand(2, 5, 6))
        context, weights = attention(q, k, v)
        assert context.shape == (2, 3, 6)
        assert np.allclose(weights.data.sum(axis=-1), 1.0)

    def test_attention_mask_zeroes_positions(self, rng):
        attention = ScaledDotProductAttention()
        q = Tensor(np.random.rand(1, 2, 4))
        k = Tensor(np.random.rand(1, 3, 4))
        v = Tensor(np.random.rand(1, 3, 4))
        mask = np.array([[[1, 1, 0], [1, 1, 0]]])
        _, weights = attention(q, k, v, mask=mask)
        assert np.allclose(weights.data[..., 2], 0.0, atol=1e-6)

    def test_self_attention_encoder_shape(self, rng):
        encoder = SelfAttentionEncoder(8, rng=rng)
        out = encoder(Tensor(np.random.rand(2, 5, 8)))
        assert out.shape == (2, 5, 8)


class TestRecurrent:
    def test_gru_cell_gate_behaviour(self, rng):
        cell = GRUCell(4, 6, rng=rng)
        hidden = Tensor(np.random.rand(2, 6))
        out = cell(Tensor(np.zeros((2, 4))), hidden)
        assert out.shape == (2, 6)

    def test_gru_unidirectional(self, rng):
        gru = GRU(4, 5, rng=rng)
        outputs, final = gru(Tensor(np.random.rand(3, 7, 4)))
        assert outputs.shape == (3, 7, 5)
        assert final.shape == (3, 5)

    def test_gru_bidirectional_doubles_dim(self, rng):
        gru = GRU(4, 5, bidirectional=True, rng=rng)
        outputs, final = gru(Tensor(np.random.rand(2, 6, 4)))
        assert outputs.shape == (2, 6, 10)
        assert final.shape == (2, 10)

    def test_gru_rejects_2d_input(self, rng):
        gru = GRU(4, 5, rng=rng)
        with pytest.raises(ValueError):
            gru(Tensor(np.random.rand(6, 4)))

    def test_gru_is_trainable(self, rng):
        gru = GRU(3, 4, rng=rng)
        x = Tensor(np.random.rand(2, 5, 3))
        out, _ = gru(x)
        loss = (out ** 2).sum()
        loss.backward()
        assert any(p.grad is not None for p in gru.parameters())


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        out = F.softmax(Tensor(np.random.rand(4, 7)), axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_softmax_stability_large_values(self):
        out = F.softmax(Tensor([[1000.0, 1000.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_normalize_unit_norm(self):
        out = F.normalize(Tensor(np.random.rand(4, 6)))
        assert np.allclose(np.linalg.norm(out.data, axis=-1), 1.0, atol=1e-5)

    def test_dropout_requires_valid_p(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), p=1.5, rng=np.random.default_rng(0))
