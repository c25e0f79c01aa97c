"""Unit tests for the autograd Tensor engine."""

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, check_gradient, concatenate, no_grad, stack
from repro.nn.fused import fused_feature_affine_relu, fused_linear
from repro.nn.tensor import _unbroadcast


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        assert np.allclose(out.data, [4.0, 6.0])

    def test_add_scalar_broadcast(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) + 1.0
        assert np.allclose(out.data, [[2.0, 3.0], [4.0, 5.0]])

    def test_sub_and_neg(self):
        out = Tensor([5.0]) - Tensor([2.0])
        assert np.allclose(out.data, [3.0])
        assert np.allclose((-Tensor([2.0])).data, [-2.0])

    def test_mul_div(self):
        a, b = Tensor([2.0, 3.0]), Tensor([4.0, 6.0])
        assert np.allclose((a * b).data, [8.0, 18.0])
        assert np.allclose((b / a).data, [2.0, 2.0])

    def test_pow(self):
        assert np.allclose((Tensor([2.0, 3.0]) ** 2).data, [4.0, 9.0])

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])  # type: ignore[operator]

    def test_matmul_2d(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.allclose((a @ b).data, np.array([[19, 22], [43, 50]], dtype=float))


class TestGradients:
    def test_add_grad_broadcast(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))
        assert np.allclose(b.grad, [2.0, 2.0, 2.0])

    def test_mul_grad(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [4.0, 5.0])
        assert np.allclose(b.grad, [2.0, 3.0])

    def test_matmul_grad_shapes(self):
        a = Tensor(np.random.rand(4, 3), requires_grad=True)
        b = Tensor(np.random.rand(3, 2), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (4, 3)
        assert b.grad.shape == (3, 2)

    def test_batched_matmul_broadcast_grad(self):
        a = Tensor(np.random.rand(5, 4, 1, 3), requires_grad=True)
        b = Tensor(np.random.rand(4, 3, 2), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (5, 4, 1, 3)
        assert b.grad.shape == (4, 3, 2)

    @pytest.mark.parametrize("shapes", [((4, 3), (3, 2)), ((5, 4, 1, 3), (4, 3, 2)),
                                        ((3,), (3, 2)), ((4, 3), (3,)), ((3,), (3,))])
    @pytest.mark.parametrize("wanted", ["both", "left", "right"])
    def test_matmul_gradcheck_for_every_grad_requirement(self, shapes, wanted):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=shapes[0]), requires_grad=wanted != "right")
        b = Tensor(rng.normal(size=shapes[1]), requires_grad=wanted != "left")
        check_gradient(lambda: ((a @ b) ** 2).sum(), [t for t in (a, b) if t.requires_grad])
        assert (a.grad is None) == (wanted == "right")
        assert (b.grad is None) == (wanted == "left")

    @pytest.mark.parametrize("op", ["matmul", "fused_linear", "fused_feature_affine_relu"])
    def test_backward_runs_no_gemm_for_a_constant_operand(self, op, monkeypatch):
        """Counted through a wrapped ``np.matmul``: one product per operand
        that requires grad, none for a constant input batch."""
        rng = np.random.default_rng(0)

        def products_in_backward(input_requires_grad: bool) -> int:
            weight = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
            if op == "matmul":
                out = Tensor(rng.normal(size=(4, 3)), requires_grad=input_requires_grad) @ weight
            elif op == "fused_linear":
                out = fused_linear(Tensor(rng.normal(size=(4, 2)),
                                          requires_grad=input_requires_grad), weight)
            else:
                out = fused_feature_affine_relu(
                    Tensor(rng.normal(size=(4, 5, 3)), requires_grad=input_requires_grad),
                    Tensor(rng.normal(size=(5, 3, 2)), requires_grad=True),
                    Tensor(np.ones((5, 2)), requires_grad=True))
            loss = out.sum()
            calls = []
            matmul = np.matmul
            monkeypatch.setattr(np, "matmul", lambda *a, **k: calls.append(1) or matmul(*a, **k))
            loss.backward()
            monkeypatch.setattr(np, "matmul", matmul)
            return len(calls)

        assert products_in_backward(input_requires_grad=True) == 2
        assert products_in_backward(input_requires_grad=False) == 1

    def test_grad_accumulates_over_uses(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a + a).sum().backward()
        assert np.allclose(a.grad, [2.0, 2.0])

    def test_backward_requires_scalar_without_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_division_grad(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        assert np.allclose(a.grad, [0.5])
        assert np.allclose(b.grad, [-1.0])

    def test_getitem_grad(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        a[0].sum().backward()
        expected = np.zeros((2, 3))
        expected[0] = 1.0
        assert np.allclose(a.grad, expected)


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert a.sum(axis=0).shape == (3,)
        assert a.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_matches_numpy(self):
        values = np.random.rand(3, 4)
        assert np.allclose(Tensor(values).mean(axis=1).data, values.mean(axis=1))

    def test_sum_grad_with_axis(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.sum(axis=1).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_reshape_roundtrip_grad(self):
        a = Tensor(np.random.rand(2, 6), requires_grad=True)
        a.reshape(3, 4).sum().backward()
        assert a.grad.shape == (2, 6)

    def test_transpose(self):
        a = Tensor(np.random.rand(2, 3, 4))
        assert a.transpose(1, 0, 2).shape == (3, 2, 4)
        assert a.T.shape == (4, 3, 2)

    def test_squeeze_unsqueeze(self):
        a = Tensor(np.random.rand(2, 1, 3))
        assert a.squeeze(1).shape == (2, 3)
        assert a.unsqueeze(0).shape == (1, 2, 1, 3)

    def test_clip(self):
        a = Tensor([-1.0, 0.5, 2.0])
        assert np.allclose(a.clip(0.0, 1.0).data, [0.0, 0.5, 1.0])


class TestNonlinearities:
    def test_relu(self):
        assert np.allclose(Tensor([-1.0, 2.0]).relu().data, [0.0, 2.0])

    def test_sigmoid_range(self):
        out = Tensor(np.linspace(-10, 10, 7)).sigmoid().data
        assert np.all(out > 0) and np.all(out < 1)

    def test_tanh_matches_numpy(self):
        values = np.linspace(-2, 2, 5)
        assert np.allclose(Tensor(values).tanh().data, np.tanh(values))

    def test_exp_log_inverse(self):
        values = np.array([0.5, 1.0, 2.0])
        assert np.allclose(Tensor(values).log().exp().data, values)

    def test_abs_grad_sign(self):
        a = Tensor([-2.0, 3.0], requires_grad=True)
        a.abs().sum().backward()
        assert np.allclose(a.grad, [-1.0, 1.0])


class TestGraphUtilities:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_as_tensor_passthrough(self):
        a = Tensor([1.0])
        assert as_tensor(a) is a

    def test_concatenate_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        concatenate([a, b], axis=0).sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (3, 2)

    def test_stack_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        assert np.allclose(a.grad, np.ones(3))

    def test_unbroadcast_sums_extra_dims(self):
        grad = np.ones((4, 3, 2))
        assert _unbroadcast(grad, (3, 2)).shape == (3, 2)
        assert np.allclose(_unbroadcast(grad, (3, 2)), 4 * np.ones((3, 2)))

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
