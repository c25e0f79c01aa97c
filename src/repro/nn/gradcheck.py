"""Finite-difference gradient checking utilities.

These are used by the test suite to validate the autograd engine and the
AdaMEL loss implementations against numerical gradients.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["numerical_gradient", "check_gradient"]


def numerical_gradient(func: Callable[[], Tensor], tensor: Tensor,
                       epsilon: float = 1e-6) -> np.ndarray:
    """Estimate d func / d tensor with central finite differences.

    ``func`` must be a zero-argument callable returning a scalar
    :class:`Tensor` and must read ``tensor.data`` on every call.
    """
    data = tensor.data
    grad = np.zeros_like(data)
    # In place: flattening a strided array would perturb a copy.
    for index in np.ndindex(data.shape):
        original = data[index]
        data[index] = original + epsilon
        plus = float(func().data)
        data[index] = original - epsilon
        minus = float(func().data)
        data[index] = original
        grad[index] = (plus - minus) / (2.0 * epsilon)
    return grad


def check_gradient(func: Callable[[], Tensor], tensors: Sequence[Tensor],
                   epsilon: float = 1e-6, atol: float = 1e-4, rtol: float = 1e-3) -> bool:
    """Compare analytic and numerical gradients for every tensor in ``tensors``.

    Returns ``True`` when all gradients agree within tolerance; raises
    ``AssertionError`` with a diagnostic message otherwise.
    """
    for tensor in tensors:
        tensor.zero_grad()
    loss = func()
    loss.backward()
    for index, tensor in enumerate(tensors):
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numerical = numerical_gradient(func, tensor, epsilon=epsilon)
        if not np.allclose(analytic, numerical, atol=atol, rtol=rtol):
            max_err = float(np.max(np.abs(analytic - numerical)))
            raise AssertionError(
                f"gradient mismatch for tensor #{index}: max abs error {max_err:.3e}"
            )
    return True
