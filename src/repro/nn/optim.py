"""Gradient-based optimiser (Adam) and gradient-norm clipping.

The paper trains AdaMEL with Adam (Kingma & Ba, 2014), learning rate 1e-4.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .module import Parameter

__all__ = ["Adam", "clip_grad_norm"]


class Adam:
    """Adam optimiser with bias-corrected first and second moment estimates.

    Every parameter (and its gradient) is packed into one contiguous buffer,
    so a step is ~10 ufunc calls total instead of ~10 per parameter — a large
    constant saving when parameters are small and numerous, as in the
    trainers' hot loops.  ``param.data`` is rebound to a view of the flat
    buffer, so construct the optimiser *before* capturing replay graphs.  A
    parameter whose gradient is ``None`` at ``step()`` counts as having a zero
    gradient.  All parameters must share one dtype.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        dtypes = {p.data.dtype for p in self.parameters}
        if len(dtypes) != 1:
            raise ValueError(f"Adam needs parameters of one dtype, got "
                             f"{sorted(str(dtype) for dtype in dtypes)}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step_count = 0
        dtype = dtypes.pop()
        total = sum(p.data.size for p in self.parameters)
        self._flat_data = np.empty(total, dtype=dtype)
        self._flat_grad = np.zeros(total, dtype=dtype)
        self._grad_views: List[np.ndarray] = []
        offset = 0
        for param in self.parameters:
            size = param.data.size
            segment = self._flat_data[offset:offset + size]
            np.copyto(segment, param.data.ravel())
            param.data = segment.reshape(param.data.shape)
            self._grad_views.append(
                self._flat_grad[offset:offset + size].reshape(param.data.shape))
            offset += size
        self._m = np.zeros(total, dtype=dtype)
        self._v = np.zeros(total, dtype=dtype)
        # Scratch buffers so step() allocates nothing on the hot path.
        self._m_hat = np.zeros(total, dtype=dtype)
        self._v_hat = np.zeros(total, dtype=dtype)

    def zero_grad(self) -> None:
        """Zero the flat gradient buffer and (re)bind every parameter's grad
        to its view, so backward accumulation lands directly in the buffer."""
        self._flat_grad.fill(0.0)
        for param, view in zip(self.parameters, self._grad_views):
            param.grad = view

    def _sync_flat_grads(self) -> None:
        """Copy back gradients that were rebound outside the flat views."""
        for param, view in zip(self.parameters, self._grad_views):
            if param.grad is view:
                continue
            if param.grad is None:
                view.fill(0.0)
            else:
                np.copyto(view, param.grad)
            param.grad = view

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        self._sync_flat_grads()
        grad, m, v = self._flat_grad, self._m, self._v
        m_hat, v_hat = self._m_hat, self._v_hat
        # Scratch via m_hat/v_hat: no temporaries on the hot path.  The ufunc
        # order matches the plain expressions bit for bit.
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=m_hat)
        m += m_hat
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=v_hat)
        v_hat *= grad
        v += v_hat
        np.divide(m, bias1, out=m_hat)
        np.divide(v, bias2, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        np.multiply(m_hat, self.lr, out=m_hat)
        np.divide(m_hat, v_hat, out=m_hat)
        self._flat_data -= m_hat


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Clip gradients in-place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm, which is useful for training diagnostics.
    """
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    # np.dot on the ravelled buffer: no squared temporary per parameter.
    total = float(np.sqrt(sum(float(np.dot(p.grad.ravel(), p.grad.ravel()))
                              for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            np.multiply(p.grad, scale, out=p.grad)
    return total
