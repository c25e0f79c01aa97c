"""Gradient-based optimiser (Adam) and gradient-norm clipping.

The paper trains AdaMEL with Adam (Kingma & Ba, 2014), learning rate 1e-4.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "Adam", "clip_grad_norm"]


class Optimizer:
    """Base optimiser holding a list of parameters to update."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimiser with bias-corrected first and second moment estimates.

    Parameters
    ----------
    flatten:
        Pack every parameter (and its gradient) into one contiguous buffer
        so a step is ~10 ufunc calls total instead of ~10 per parameter —
        a large constant saving when parameters are small and numerous, as
        in the AdaMEL trainer's hot loop.  ``param.data`` is rebound to a
        view of the flat buffer, so enable this *before* capturing replay
        graphs, and note that (unlike the default mode) parameters whose
        gradient is ``None`` are treated as having a zero gradient rather
        than being skipped.  Element-wise results are bit-identical to the
        unflattened mode.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0, flatten: bool = False) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._flat_data: Optional[np.ndarray] = None
        self._flat_grad: Optional[np.ndarray] = None
        self._grad_views: List[np.ndarray] = []
        if flatten and len({p.data.dtype for p in self.parameters}) == 1:
            dtype = self.parameters[0].data.dtype
            total = sum(p.data.size for p in self.parameters)
            self._flat_data = np.empty(total, dtype=dtype)
            self._flat_grad = np.zeros(total, dtype=dtype)
            offset = 0
            for param in self.parameters:
                size = param.data.size
                segment = self._flat_data[offset:offset + size]
                np.copyto(segment, param.data.ravel())
                param.data = segment.reshape(param.data.shape)
                self._grad_views.append(
                    self._flat_grad[offset:offset + size].reshape(param.data.shape))
                offset += size
            shape = (total,)
        else:
            shape = None
        if shape is not None:
            self._m = [np.zeros(shape, dtype=self._flat_data.dtype)]
            self._v = [np.zeros(shape, dtype=self._flat_data.dtype)]
            self._m_hat = [np.zeros(shape, dtype=self._flat_data.dtype)]
            self._v_hat = [np.zeros(shape, dtype=self._flat_data.dtype)]
        else:
            self._m = [np.zeros_like(p.data) for p in self.parameters]
            self._v = [np.zeros_like(p.data) for p in self.parameters]
            # Scratch buffers so step() allocates nothing on the hot path.
            self._m_hat = [np.zeros_like(p.data) for p in self.parameters]
            self._v_hat = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        if self._flat_grad is not None:
            # Zero the flat buffer and (re)bind every parameter's grad to its
            # view, so backward accumulation lands directly in the buffer.
            self._flat_grad.fill(0.0)
            for param, view in zip(self.parameters, self._grad_views):
                param.grad = view
            return
        super().zero_grad()

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
        if self._flat_data is not None:
            self._sync_flat_grads()
            updates = [(self._flat_data, self._flat_grad, self._m[0], self._v[0],
                        self._m_hat[0], self._v_hat[0])]
        else:
            updates = [(p.data, p.grad, m, v, m_hat, v_hat)
                       for p, m, v, m_hat, v_hat in zip(self.parameters, self._m,
                                                        self._v, self._m_hat, self._v_hat)
                       if p.grad is not None]
        for data, grad, m, v, m_hat, v_hat in updates:
            if self.weight_decay:
                grad = grad + self.weight_decay * data
            # Scratch via m_hat/v_hat: no temporaries on the hot path.  The
            # ufunc order matches the plain expressions bit for bit.
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
            data -= m_hat


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
