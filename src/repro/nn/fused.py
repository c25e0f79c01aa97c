"""Fused kernels for the autograd hot paths profiled in the AdaMEL trainer.

Each kernel collapses a chain of eager ops into a *single* graph node with an
analytic backward — fewer python closures and ``Tensor`` allocations per step
in eager mode, and a shorter forward program when captured on a
:class:`~repro.nn.graph.Tape`.  Like every op, a kernel states its forward
once and builds its node through :func:`repro.nn.tensor._node`; its default
``out`` is the output buffer it allocates up front.  Buffers are C-contiguous
whatever the operands' layout (never ``empty_like`` of an operand): reshapes
inside the closures must stay views, and BLAS rounds into a transposed ``out``
differently.

Stage kernels — each issues the ufunc/GEMM sequence of the composition it
replaces, operand layouts included (BLAS rounds a product differently for a
transposed or strided operand), so float64 values and gradients are
``np.array_equal`` to it:

* :func:`fused_feature_affine_relu` — ``relu(h_j V_j + b_j)`` for every
  feature ``j`` (Eq. 4);
* :func:`fused_linear` — ``act(x @ W.T + b)`` with ``act`` sigmoid (the
  classifier head Θ's output layer, Eq. 7) or ReLU (its hidden layers);
* :func:`fused_scale_relu_flatten` — ``relu(f(x)_j · x_j)`` flattened to the
  classifier input (Eq. 7);
* :func:`fused_binary_cross_entropy` — mean, optionally weighted, clipped BCE
  (``L_base`` Eq. 8, ``L_support`` Eq. 12).

Analytic-jacobian kernels — forward equal to the composition, gradients equal
up to rounding order:

* :func:`fused_attention_softmax` — ``softmax_j(a^T tanh(W x_j))`` (the whole
  attention embedding function ``f``, Eq. 5/6);
* :func:`fused_kl_divergence` — ``KL(p ‖ q)`` with clip-to-``[eps, 1]``
  semantics (the ``L_target`` adaptation loss, Eq. 10).

``tests/nn/test_fused.py`` checks every name in ``__all__`` against its
composition in ``tests/nn/composed_oracle.py`` and by finite differences.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor, _node, _unbroadcast, as_tensor

__all__ = ["fused_feature_affine_relu", "fused_linear", "fused_scale_relu_flatten",
           "fused_binary_cross_entropy", "fused_attention_softmax",
           "fused_kl_divergence"]

_EPS = 1e-9


def _empty(shape: Tuple[int, ...], *operands: Tensor) -> np.ndarray:
    return np.empty(shape, dtype=np.result_type(*(t.data for t in operands)))


def _relu(y: np.ndarray, mask: np.ndarray) -> None:
    """``Tensor.relu`` in place: ``y * (y > 0)``, keeping the mask."""
    np.greater(y, 0, out=mask)
    np.multiply(y, mask, out=y)


def fused_feature_affine_relu(h: Tensor, V: Tensor, b: Tensor) -> Tensor:
    """``relu((h.transpose(1, 0, 2) @ V).transpose(1, 0, 2) + b)`` as one op.

    ``h`` is ``(N, F, D)``, ``V`` ``(F, D, H)``, ``b`` ``(F, H)``: one GEMM per
    feature, written straight into a contiguous ``(N, F, H)`` result.
    """
    h, V, b = as_tensor(h), as_tensor(V), as_tensor(b)
    if h.ndim != 3 or V.ndim != 3 or h.shape[1:] != V.shape[:2] or b.shape != (
            V.shape[0], V.shape[2]):
        raise ValueError(f"expected h (N, F, D), V (F, D, H), b (F, H); got "
                         f"{h.shape}, {V.shape}, {b.shape}")
    n, f, hidden = h.shape[0], V.shape[0], V.shape[2]
    y = _empty((n, f, hidden), h, V, b)
    mask = np.empty_like(y)
    scratch: list = []

    def forward(out: np.ndarray = y) -> np.ndarray:
        np.matmul(h.data.transpose(1, 0, 2), V.data, out=out.transpose(1, 0, 2))
        np.add(out, b.data, out=out)
        _relu(out, mask)
        return out

    def backward(grad: np.ndarray) -> None:
        if not scratch:
            scratch.extend([np.empty_like(y), np.empty((f, n, hidden), dtype=y.dtype),
                            np.empty(b.shape, dtype=y.dtype), np.empty(V.shape, dtype=y.dtype),
                            np.empty((f, n, h.shape[2]), dtype=y.dtype)
                            if h.requires_grad else None])
        gz, by_feature, gb, gv, gh = scratch
        np.multiply(grad, mask, out=gz)
        b._accumulate(np.sum(gz, axis=0, out=gb))
        # The GEMMs read the gradient feature-major and contiguous, as the
        # composed matmul node's grad buffer is.
        np.copyto(by_feature, gz.transpose(1, 0, 2))
        if V.requires_grad:
            V._accumulate(np.matmul(h.data.transpose(1, 2, 0), by_feature, out=gv))
        if h.requires_grad:
            np.matmul(by_feature, V.data.transpose(0, 2, 1), out=gh)
            h._accumulate(gh.transpose(1, 0, 2))

    return _node(forward, (h, V, b), backward)


def fused_linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
                 activation: str = "sigmoid") -> Tensor:
    """``sigmoid(x @ weight.T + bias)`` or ``relu(...)`` as one op.

    ``x`` is ``(..., in_features)`` with at least one leading axis; ``weight``
    is ``(out_features, in_features)`` and ``bias`` ``(out_features,)``.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    bias_t = as_tensor(bias) if bias is not None else None
    if activation not in ("sigmoid", "relu"):
        raise ValueError(f"activation must be 'sigmoid' or 'relu', got {activation!r}")
    if x.ndim < 2:
        raise ValueError("fused_linear expects input of shape (..., N, in_features)")
    relu = activation == "relu"
    y = _empty(x.shape[:-1] + weight.shape[:1], x, weight)
    mask = np.empty_like(y) if relu else None
    lead_axes = tuple(range(y.ndim - 1))
    scratch: list = []

    def forward(out: np.ndarray = y) -> np.ndarray:
        np.matmul(x.data, weight.data.T, out=out)
        if bias_t is not None:
            np.add(out, bias_t.data, out=out)
        if relu:
            _relu(out, mask)
        else:
            np.negative(out, out=out)
            np.exp(out, out=out)
            np.add(out, 1.0, out=out)
            np.divide(1.0, out, out=out)
        return out

    def backward(grad: np.ndarray) -> None:
        if not scratch:
            scratch.extend([np.empty_like(y), np.empty_like(y), np.empty(x.shape, dtype=y.dtype),
                            np.empty(x.shape[:-2] + weight.shape[::-1], dtype=y.dtype),
                            None if bias_t is None else np.empty(bias_t.shape, dtype=y.dtype)])
        gz, one_minus, gx, gw, gb = scratch
        if relu:
            np.multiply(grad, mask, out=gz)
        else:
            np.multiply(grad, y, out=gz)
            np.subtract(1.0, y, out=one_minus)
            np.multiply(gz, one_minus, out=gz)
        if bias_t is not None:
            bias_t._accumulate(np.sum(gz, axis=lead_axes, out=gb))
        if x.requires_grad:
            x._accumulate(np.matmul(gz, weight.data, out=gx))
        if weight.requires_grad:
            # (in, out) like the composed ``x @ weight.T`` produces, then
            # accumulated through the transposed view.
            np.matmul(np.swapaxes(x.data, -1, -2), gz, out=gw)
            weight._accumulate(_unbroadcast(gw, gw.shape[-2:]).T)

    parents = (x, weight) if bias_t is None else (x, weight, bias_t)
    return _node(forward, parents, backward)


def fused_scale_relu_flatten(attention: Tensor, x: Tensor) -> Tensor:
    """``relu(attention.unsqueeze(-1) * x)`` with the last two axes flattened.

    ``attention`` is ``(..., F)``, ``x`` ``(..., F, H)``; the result is
    ``(..., F*H)`` — the classifier input of Eq. 7.
    """
    attention, x = as_tensor(attention), as_tensor(x)
    if x.ndim < 2 or attention.shape != x.shape[:-1]:
        raise ValueError(f"expected attention (..., F) and x (..., F, H); got "
                         f"{attention.shape}, {x.shape}")
    y = _empty(x.shape, attention, x)
    mask = np.empty_like(y)
    scratch: list = []

    def forward(out: np.ndarray = y.reshape(x.shape[:-2] + (-1,))) -> np.ndarray:
        scaled = out.reshape(x.shape)
        np.multiply(attention.data[..., None], x.data, out=scaled)
        _relu(scaled, mask)
        return out

    def backward(grad: np.ndarray) -> None:
        if not scratch:
            scratch.extend([np.empty_like(y), np.empty_like(y),
                            np.empty(attention.shape, dtype=y.dtype)])
        gz, product, ga = scratch
        np.multiply(grad.reshape(y.shape), mask, out=gz)
        if attention.requires_grad:
            np.multiply(gz, x.data, out=product)
            attention._accumulate(np.sum(product, axis=-1, out=ga))
        if x.requires_grad:
            x._accumulate(np.multiply(gz, attention.data[..., None], out=product))

    return _node(forward, (attention, x), backward)


def fused_binary_cross_entropy(predictions: Tensor, targets: Tensor,
                               weights: Optional[Tensor] = None,
                               eps: float = _EPS) -> Tensor:
    """Mean of ``-(t log p + (1-t) log(1-p)) [* w]`` with ``p`` clipped to
    ``[eps, 1-eps]``, as one op.

    ``targets`` and ``weights`` have the shape of ``predictions`` and are
    constants: re-read on every replay, never differentiated.  The gradient
    is masked where ``predictions`` was clipped, as ``Tensor.clip`` does.
    """
    p, t = as_tensor(predictions), as_tensor(targets)
    w = as_tensor(weights) if weights is not None else None
    if t.shape != p.shape or (w is not None and w.shape != p.shape):
        raise ValueError("targets and weights must have the shape of predictions")
    high = 1.0 - eps
    count = float(p.size)
    clipped, one_minus_t, one_minus_p, per_sample, other = (
        _empty(p.shape, p, t) for _ in range(5))
    loss = np.empty((), dtype=per_sample.dtype)
    scratch: list = []

    def forward(out: np.ndarray = loss) -> np.ndarray:
        np.clip(p.data, eps, high, out=clipped)
        np.log(clipped, out=per_sample)
        np.multiply(t.data, per_sample, out=per_sample)
        np.subtract(1.0, t.data, out=one_minus_t)
        np.subtract(1.0, clipped, out=one_minus_p)
        np.log(one_minus_p, out=other)
        np.multiply(one_minus_t, other, out=other)
        np.add(per_sample, other, out=per_sample)
        np.negative(per_sample, out=per_sample)
        if w is not None:
            np.multiply(per_sample, w.data, out=per_sample)
        np.sum(per_sample, out=out)
        return np.divide(out, count, out=out)

    def backward(grad: np.ndarray) -> None:
        if not scratch:
            scratch.extend([np.empty_like(per_sample), np.empty(p.shape, dtype=bool),
                            np.empty(p.shape, dtype=bool)])
        g, inside, below = scratch
        np.divide(grad, count, out=g)
        if w is not None:
            np.multiply(g, w.data, out=g)
        np.negative(g, out=g)
        np.multiply(g, one_minus_t, out=other)
        np.divide(other, one_minus_p, out=other)
        np.negative(other, out=other)
        np.multiply(g, t.data, out=g)
        np.divide(g, clipped, out=g)
        np.add(g, other, out=g)
        np.greater_equal(p.data, eps, out=inside)
        np.less_equal(p.data, high, out=below)
        inside &= below
        g *= inside
        p._accumulate(g)

    return _node(forward, (p,), backward)


def fused_attention_softmax(x: Tensor, W: Tensor, a: Tensor) -> Tensor:
    """``softmax_j(a^T tanh(W x_j))`` over the trailing-but-one axis.

    ``x`` is ``(..., F, H)``; the result is ``(..., F)`` with rows summing to
    one.  ``F.softmax`` of the energies ``e_j = a^T tanh(W x_j)`` collapsed
    into one node: the projection runs as a single GEMM over the
    flattened leading axes, and the softmax jacobian is applied analytically.
    """
    x = as_tensor(x)
    W = as_tensor(W)
    a = as_tensor(a)
    if x.ndim < 2:
        raise ValueError("fused_attention_softmax expects input of shape (..., F, H)")
    lead = x.data.shape[:-1]
    hidden = x.data.shape[-1]
    t = _empty((int(np.prod(lead)), W.shape[0]), x, W)         # (M, H')
    y = np.empty(lead, dtype=t.dtype)                           # (..., F)
    row = np.empty(lead[:-1] + (1,), dtype=t.dtype)
    scratch: list = []

    def forward(out: np.ndarray = y) -> np.ndarray:
        np.matmul(x.data.reshape(-1, hidden), W.data.T, out=t)
        np.tanh(t, out=t)
        np.matmul(t, a.data, out=out.reshape(-1))
        np.amax(out, axis=-1, keepdims=True, out=row)
        np.subtract(out, row, out=out)
        np.exp(out, out=out)
        np.sum(out, axis=-1, keepdims=True, out=row)
        return np.divide(out, row, out=out)

    def backward(grad: np.ndarray) -> None:
        if not scratch:
            scratch.extend([np.empty_like(y), np.empty_like(row),
                            np.empty(a.shape, dtype=t.dtype), np.empty_like(t),
                            np.empty_like(t), np.empty(W.shape, dtype=t.dtype),
                            np.empty(x.shape, dtype=t.dtype)])
        gy, dot, ga, gz, tt, gw, gx = scratch
        # Softmax jacobian: g_e = y * (g - <g, y>).
        np.multiply(grad, y, out=gy)
        np.sum(gy, axis=-1, keepdims=True, out=dot)
        np.subtract(grad, dot, out=gy)
        np.multiply(y, gy, out=gy)
        ge = gy.reshape(-1)                                # (M,)
        a._accumulate(np.matmul(t.T, ge, out=ga))
        np.multiply(ge[:, None], a.data, out=gz)
        np.power(t, 2, out=tt)
        np.subtract(1.0, tt, out=tt)
        np.multiply(gz, tt, out=gz)                        # (M, H')
        W._accumulate(np.matmul(gz.T, x.data.reshape(-1, hidden), out=gw))
        np.matmul(gz, W.data, out=gx.reshape(-1, hidden))
        x._accumulate(gx)

    return _node(forward, (x, W, a), backward)


def fused_kl_divergence(p: Tensor, q: Tensor, axis: int = -1,
                        eps: float = _EPS) -> Tensor:
    """``KL(p ‖ q)`` summed over ``axis``, averaged over the rest, as one op.

    Both operands are clipped to ``[eps, 1]`` and the gradient is masked where
    an operand was clipped, exactly as an eager ``clip`` backward would.  Both
    operands may broadcast (the ``L_target`` use has ``p`` of shape ``(F,)``
    against ``q`` of shape ``(N, F)``); gradients are summed back to each
    operand's shape.
    """
    p = as_tensor(p)
    q = as_tensor(q)
    shape = np.broadcast_shapes(p.shape, q.shape)
    ps, log_ps = _empty(p.shape, p), _empty(p.shape, p)
    qs, log_qs = _empty(q.shape, q), _empty(q.shape, q)
    log_ratio, prod = _empty(shape, p, q), _empty(shape, p, q)
    count = max(prod.size // max(prod.shape[axis], 1), 1)
    loss = np.empty((), dtype=prod.dtype)
    scratch: list = []

    def forward(out: np.ndarray = loss) -> np.ndarray:
        np.clip(p.data, eps, 1.0, out=ps)
        np.clip(q.data, eps, 1.0, out=qs)
        np.log(ps, out=log_ps)
        np.log(qs, out=log_qs)
        np.subtract(log_ps, log_qs, out=log_ratio)
        np.multiply(ps, log_ratio, out=prod)
        out[...] = prod.sum(axis=axis).mean()
        return out

    def backward(grad: np.ndarray) -> None:
        scale = np.asarray(grad) / float(count)
        if q.requires_grad:
            if not scratch:
                scratch.extend([np.empty(prod.shape, dtype=q.data.dtype),
                                np.empty(q.data.shape, dtype=bool)])
            gq, mq = scratch
            # -(ps/qs) masked where q was clipped, scaled by the mean factor.
            np.divide(ps, qs, out=gq)
            np.negative(gq, out=gq)
            np.greater_equal(q.data, eps, out=mq)
            mq &= q.data <= 1.0
            gq *= mq
            gq *= scale
            q._accumulate(_unbroadcast(gq, q.data.shape))
        if p.requires_grad:
            mask_p = (p.data >= eps) & (p.data <= 1.0)
            gp = np.where(mask_p, log_ratio + 1.0, 0.0) * scale
            p._accumulate(_unbroadcast(np.broadcast_to(gp, prod.shape).astype(p.data.dtype),
                                       p.data.shape))

    return _node(forward, (p, q), backward)
