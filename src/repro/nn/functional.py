"""Stateless tensor functions built from :class:`repro.nn.tensor.Tensor` ops.

These mirror ``torch.nn.functional`` for the subset of operations used by the
AdaMEL model (Equations 5-7 of the paper) and the deep baselines.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor, as_tensor, concatenate, recomputed_leaf, stack

__all__ = [
    "relu",
    "tanh",
    "sigmoid",
    "softmax",
    "dropout",
    "concatenate",
    "stack",
    "normalize",
]

_EPS = 1e-12


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit applied elementwise."""
    return as_tensor(x).relu()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent applied elementwise."""
    return as_tensor(x).tanh()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid applied elementwise."""
    return as_tensor(x).sigmoid()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    The paper's attention embedding function (Eq. 5) normalises feature energy
    scores with a softmax so that scores are comparable across features and
    sum to one.
    """
    x = as_tensor(x)
    # The detached max-shift is a data-dependent constant: ``recomputed_leaf``
    # re-evaluates it per graph replay instead of freezing it at record time.
    shifted = x - recomputed_leaf(lambda: x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: zero entries with probability ``p`` during training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    shape = x.shape
    dtype = x.data.dtype
    # A recomputed leaf draws a fresh mask per graph replay, consuming the
    # generator exactly as an eager step of the same shape would.  The mask
    # follows the input dtype so float32-policy training stays float32.
    mask = recomputed_leaf(
        lambda: (rng.random(shape) >= p).astype(dtype) / (1.0 - p))
    return x * mask


def normalize(x: Tensor, axis: int = -1, eps: float = _EPS) -> Tensor:
    """L2-normalise ``x`` along ``axis``."""
    x = as_tensor(x)
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps) ** 0.5
    return x / norm
