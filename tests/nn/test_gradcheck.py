"""Finite-difference validation of analytic gradients for composite ops."""

import numpy as np
import pytest

from repro.nn import (
    AdditiveAttention,
    Linear,
    MLP,
    Tensor,
    binary_cross_entropy,
    check_gradient,
    kl_divergence,
)
from repro.nn import functional as F
from repro.nn.gradcheck import numerical_gradient


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_linear_gradcheck(rng):
    layer = Linear(4, 3, rng=rng)
    x = Tensor(rng.standard_normal((5, 4)))

    def loss():
        return (layer(x) ** 2).sum()

    assert check_gradient(loss, layer.parameters())


def test_mlp_gradcheck(rng):
    mlp = MLP(3, [4], 1, rng=rng)
    x = Tensor(rng.standard_normal((6, 3)))

    def loss():
        return (mlp(x) ** 2).mean()

    assert check_gradient(loss, mlp.parameters())


def test_softmax_gradcheck(rng):
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    target = rng.standard_normal((4, 5))

    def loss():
        return ((F.softmax(x, axis=-1) - Tensor(target)) ** 2).sum()

    assert check_gradient(loss, [x])


def test_bce_gradcheck(rng):
    logits = Tensor(rng.standard_normal(8), requires_grad=True)
    labels = Tensor((rng.random(8) > 0.5).astype(float))

    def loss():
        return binary_cross_entropy(logits.sigmoid(), labels)

    assert check_gradient(loss, [logits])


def test_kl_divergence_gradcheck(rng):
    scores = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    reference = np.abs(rng.standard_normal(6)) + 0.1
    reference = reference / reference.sum()

    def loss():
        return kl_divergence(Tensor(reference), F.softmax(scores, axis=-1))

    assert check_gradient(loss, [scores])


def test_additive_attention_gradcheck(rng):
    attention = AdditiveAttention(4, 5, rng=rng)
    x = Tensor(rng.standard_normal((3, 6, 4)))
    target = rng.standard_normal((3, 6))

    def loss():
        return ((attention(x) - Tensor(target)) ** 2).sum()

    assert check_gradient(loss, [attention.W, attention.a])


def test_batched_affine_gradcheck(rng):
    """The per-feature affine used by AdaMEL (broadcast batched matmul)."""
    V = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
    h = Tensor(rng.standard_normal((5, 3, 4)))

    def loss():
        projected = (h.unsqueeze(2) @ V).squeeze(2)
        return (projected.tanh() ** 2).sum()

    assert check_gradient(loss, [V])


def test_numerical_gradient_of_a_transposed_leaf():
    """A strided leaf is perturbed in place, not through a flattened copy."""
    x = Tensor(np.arange(12.0).reshape(4, 3).T / 4.0, requires_grad=True)
    assert not x.data.flags.c_contiguous

    def loss():
        return (x * x).sum()

    assert np.allclose(numerical_gradient(loss, x), 2.0 * x.data)
    assert check_gradient(loss, [x])
