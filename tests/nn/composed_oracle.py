"""What every fused kernel replaces: the composition of elementary ``Tensor`` ops.

``ORACLES`` maps each name in ``repro.nn.fused.__all__`` to one or more
:class:`Oracle` variants (an argument that selects behaviour gets one each).
A variant pairs the kernel with its composition and says how to draw operands
for it; ``tests/nn/test_fused.py`` walks the table.

The *stage* kernels replay their composition's ufunc/GEMM sequence, so they
are compared with ``np.array_equal``; the three analytic-jacobian kernels
(``exact_gradients=False``) share the forward sequence but round their
gradients in another order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn import fused
from repro.nn.tensor import Tensor

EPS = 1e-9
Arrays = Dict[str, np.ndarray]


@dataclass(frozen=True)
class Oracle:
    """One kernel variant against its composition.

    ``operands(rng, n, edge)`` draws float64 arrays by argument name for a
    leading (batch) size ``n``; with ``edge`` it may put values on a kink of
    the function (a clip boundary), which finite differences cannot cross.
    Names in ``differentiable`` become tensors that require grad, integer
    arrays are passed as they are, the rest become constant tensors.
    """

    label: str
    fused: Callable[..., Tensor]
    composed: Callable[..., Tensor]
    operands: Callable[[np.random.Generator, int, bool], Arrays]
    differentiable: Tuple[str, ...]
    exact_gradients: bool = True


# ---------------------------------------------------------------------- #
# Compositions
# ---------------------------------------------------------------------- #
def feature_affine_relu(h: Tensor, V: Tensor, b: Tensor) -> Tensor:
    return F.relu((h.transpose(1, 0, 2) @ V).transpose(1, 0, 2) + b)


def linear(activation: Callable[[Tensor], Tensor]) -> Callable[..., Tensor]:
    def composed(x: Tensor, weight: Tensor, bias: Tensor = None) -> Tensor:
        out = x @ weight.T            # ``Linear.forward``
        if bias is not None:
            out = out + bias
        return activation(out)
    return composed


def scale_relu_flatten(attention: Tensor, x: Tensor) -> Tensor:
    scaled = F.relu(attention.unsqueeze(-1) * x)
    return scaled.reshape(scaled.shape[:-2] + (-1,))


def binary_cross_entropy(predictions: Tensor, targets: Tensor,
                         weights: Tensor = None) -> Tensor:
    clipped = predictions.clip(EPS, 1.0 - EPS)
    per_sample = -(targets * clipped.log() + (1.0 - targets) * (1.0 - clipped).log())
    if weights is not None:
        per_sample = per_sample * weights
    return per_sample.mean()


def attention_softmax(x: Tensor, W: Tensor, a: Tensor) -> Tensor:
    energies = ((x.reshape(-1, x.shape[-1]) @ W.T).tanh() @ a).reshape(x.shape[:-1])
    return F.softmax(energies, axis=-1)


def kl_divergence(p: Tensor, q: Tensor) -> Tensor:
    p_safe, q_safe = p.clip(EPS, 1.0), q.clip(EPS, 1.0)
    return (p_safe * (p_safe.log() - q_safe.log())).sum(axis=-1).mean()


# ---------------------------------------------------------------------- #
# Operands
# ---------------------------------------------------------------------- #
def _dims(rng: np.random.Generator, count: int, n: int) -> Tuple[int, ...]:
    """Other extents for batch size ``n``: tiny ones (1 included) for tiny
    batches, model-sized ones — where BLAS blocks its products — otherwise."""
    return tuple(int(d) for d in rng.integers(1, 7 if n < 7 else 40, size=count))


def _affine_operands(hidden: int = None):
    def operands(rng, n, edge) -> Arrays:
        f, d, h = _dims(rng, 3, n)
        h = hidden or h
        return {"h": rng.normal(size=(n, f, d)), "V": rng.normal(size=(f, d, h)) * 0.5,
                "b": rng.normal(size=(f, h)) * 0.5}
    return operands


def _linear_operands(bias: bool, lead: Tuple[int, ...] = ()):
    def operands(rng, n, edge) -> Arrays:
        inner, outer = _dims(rng, 2, n)
        arrays = {"x": rng.normal(size=lead + (n, inner)),
                  "weight": rng.normal(size=(outer, inner)) * 0.5}
        if bias:
            arrays["bias"] = rng.normal(size=outer) * 0.5
        return arrays
    return operands


def _scale_operands(rng, n, edge) -> Arrays:
    f, h = _dims(rng, 2, n)
    return {"attention": rng.dirichlet(np.ones(f), size=n), "x": rng.normal(size=(n, f, h))}


def _bce_operands(weighted: bool):
    def operands(rng, n, edge) -> Arrays:
        predictions = rng.uniform(0.05, 0.95, size=n)
        if edge:   # clipped on both sides: the gradient there is masked to zero
            predictions[::3] = 0.0
            predictions[1::3] = 1.0
        arrays = {"predictions": predictions,
                  "targets": (rng.random(n) > 0.5).astype(np.float64)}
        if weighted:
            arrays["weights"] = rng.uniform(0.2, 2.0, size=n)
        return arrays
    return operands


def _attention_operands(batched: bool):
    def operands(rng, n, edge) -> Arrays:
        f, hidden, inner = _dims(rng, 3, n)
        return {"x": rng.normal(size=(n, f, hidden) if batched else (n, hidden)),
                "W": rng.normal(size=(inner, hidden)) * 0.5,
                "a": rng.normal(size=inner) * 0.5}
    return operands


def _kl_operands(rng, n, edge) -> Arrays:
    f = int(rng.integers(2, 7))
    q = rng.dirichlet(np.ones(f), size=n)
    if edge:       # below the clip floor
        q[0, 0] = 0.0
    return {"p": rng.dirichlet(np.ones(f)), "q": q}


ORACLES: Dict[str, Tuple[Oracle, ...]] = {
    "fused_feature_affine_relu": (
        Oracle("affine", fused.fused_feature_affine_relu, feature_affine_relu,
               _affine_operands(), ("h", "V", "b")),
        # H = 1 turns the per-feature products into matrix-vector ones, which
        # round differently for a strided gradient operand.
        Oracle("one-hidden-unit", fused.fused_feature_affine_relu, feature_affine_relu,
               _affine_operands(hidden=1), ("h", "V", "b")),),
    "fused_linear": (
        Oracle("relu", lambda **kw: fused.fused_linear(activation="relu", **kw),
               linear(F.relu), _linear_operands(bias=True), ("x", "weight", "bias")),
        Oracle("sigmoid", lambda **kw: fused.fused_linear(activation="sigmoid", **kw),
               linear(F.sigmoid), _linear_operands(bias=True), ("x", "weight", "bias")),
        Oracle("sigmoid-no-bias", fused.fused_linear, linear(F.sigmoid),
               _linear_operands(bias=False), ("x", "weight")),
        Oracle("relu-batched", lambda **kw: fused.fused_linear(activation="relu", **kw),
               linear(F.relu), _linear_operands(bias=True, lead=(3,)),
               ("x", "weight", "bias")),),
    "fused_scale_relu_flatten": (
        Oracle("scale", fused.fused_scale_relu_flatten, scale_relu_flatten,
               _scale_operands, ("attention", "x")),),
    "fused_binary_cross_entropy": (
        Oracle("mean", fused.fused_binary_cross_entropy, binary_cross_entropy,
               _bce_operands(weighted=False), ("predictions",)),
        Oracle("weighted", fused.fused_binary_cross_entropy, binary_cross_entropy,
               _bce_operands(weighted=True), ("predictions",)),),
    "fused_attention_softmax": (
        Oracle("features", fused.fused_attention_softmax, attention_softmax,
               _attention_operands(batched=True), ("x", "W", "a"), exact_gradients=False),
        Oracle("two-dimensional", fused.fused_attention_softmax, attention_softmax,
               _attention_operands(batched=False), ("x", "W", "a"), exact_gradients=False),),
    "fused_kl_divergence": (
        Oracle("target-mean", fused.fused_kl_divergence, kl_divergence,
               _kl_operands, ("p", "q"), exact_gradients=False),),
}
