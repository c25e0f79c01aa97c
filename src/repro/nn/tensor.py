"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  The paper's
reference implementation uses PyTorch; this reproduction provides a compact
pure-numpy equivalent so the whole repository runs offline on CPU.  The public
surface intentionally mirrors the small subset of the PyTorch tensor API that
the AdaMEL model and its baselines need: elementwise arithmetic with
broadcasting, matrix multiplication, reductions, common nonlinearities,
shape manipulation, and a ``backward()`` that accumulates gradients into
leaf tensors.

Two execution modes share these ops:

* **eager** (the default): every op allocates an output tensor and, when
  gradients are required, a backward closure; ``backward()`` walks the freshly
  built graph.
* **graph replay** (:mod:`repro.nn.graph`): while a :class:`~repro.nn.graph.Tape`
  is capturing, every op additionally records a *forward-recompute* closure
  that re-evaluates the op **in place** into the buffers allocated at record
  time.  A captured graph can then be replayed for new input values with zero
  per-step tensor/closure allocation — the training fast path.

Gradient correctness is validated by finite-difference checks in
``tests/nn/test_gradcheck.py``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dtypes import get_default_dtype

ArrayLike = Union[np.ndarray, float, int, Sequence[float], "Tensor"]

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled", "recomputed_leaf"]

# numpy interns builtin dtype objects, so identity checks are valid — and
# measurably cheaper than ``in``-membership on the Tensor construction path.
_F64 = np.dtype(np.float64)
_F32 = np.dtype(np.float32)
_FLOAT_DTYPES = (_F32, _F64)


class _GradMode:
    """Process-wide switch used by ``no_grad`` to disable graph building."""

    enabled = True


class _Capture:
    """Process-wide handle to the tape currently capturing ops (or ``None``).

    Set by :class:`repro.nn.graph.Tape`; kept here so the op implementations
    below can record themselves without importing the graph module.
    """

    tape = None


class no_grad:
    """Context manager that disables gradient tracking.

    Used during inference so that forward passes do not build autograd graphs.

    Example
    -------
    >>> with no_grad():
    ...     y = model(x)
    """

    def __enter__(self) -> "no_grad":
        self._previous = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        _GradMode.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether autograd graph construction is currently enabled."""
    return _GradMode.enabled


def _is_basic_index(index: object) -> bool:
    """True when ``index`` uses only basic (non-fancy) numpy indexing."""
    items = index if isinstance(index, tuple) else (index,)
    return all(item is None or item is Ellipsis or isinstance(item, slice)
               or (isinstance(item, int) and not isinstance(item, bool))
               for item in items)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, reversing numpy broadcasting.

    When an operand of shape ``shape`` was broadcast to the shape of ``grad``
    during the forward pass, the gradient flowing back must be summed over the
    broadcast dimensions so that it matches the operand's original shape.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over dimensions that were size 1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _topological_order(root: "Tensor") -> List["Tensor"]:
    """Topological order over the graph reachable from ``root``.

    Factored out of :meth:`Tensor.backward` so the graph-replay executor can
    record the *same* traversal once and reuse it every step — gradient
    accumulation order (and therefore floating-point rounding) then matches
    the eager engine bit for bit.
    """
    topo: List[Tensor] = []
    visited: set = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return topo


class Tensor:
    """A numpy-backed array node in a dynamically built autograd graph.

    Parameters
    ----------
    data:
        Array-like payload.  ``float32``/``float64`` numpy arrays keep their
        dtype; everything else (lists, scalars, integer arrays) is converted
        to the process-wide compute dtype from :mod:`repro.nn.dtypes`
        (``float64`` unless a policy overrides it).
    requires_grad:
        Whether gradients should be accumulated into this tensor during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_forward",
                 "_parents", "name")

    # Ensure expressions like ``ndarray @ tensor`` dispatch to the Tensor's
    # reflected operators instead of numpy's elementwise broadcasting.
    __array_priority__ = 1000

    # Process-wide count of Tensor objects ever constructed.  Diffed across a
    # fit by tests/core/test_replay_lockstep.py, which bounds the tensors a
    # training step allocates: graph-construction overhead as a deterministic
    # counter, free of wall-clock noise.
    _created = 0

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if type(data) is np.ndarray:
            # Existing float arrays keep their dtype (a float32 network keeps
            # computing in float32 even outside the policy context); integer
            # and other arrays are converted to the policy dtype.
            array = data
            dtype = array.dtype
            if dtype is not _F64 and dtype is not _F32 and dtype not in _FLOAT_DTYPES:
                array = array.astype(get_default_dtype())
        else:
            # Lists, python/numpy scalars: adopt the policy dtype directly, so
            # scalar constants do not upcast float32 graphs to float64.
            array = np.asarray(data, dtype=get_default_dtype())
        self.data: np.ndarray = array
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._forward: Optional[Callable[[], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name
        Tensor._created += 1

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    def _make_child(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an output tensor, wiring the backward closure when needed."""
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        tape = _Capture.tape
        if tape is not None:
            tape.nodes.append(out)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate an incoming gradient into this tensor."""
        if not self.requires_grad:
            return
        existing = self.grad
        if (existing is not None and type(grad) is np.ndarray
                and grad.shape == existing.shape and grad.dtype == existing.dtype):
            # Fast path (the common case on the training hot loop): matching
            # buffer, nothing to unbroadcast or cast — add in place.
            existing += grad
            return
        if type(grad) is not np.ndarray or grad.dtype != self.data.dtype:
            grad = np.asarray(grad, dtype=self.data.dtype)
        grad = _unbroadcast(grad, self.data.shape)
        if existing is None:
            # Copy: the incoming buffer may be shared with sibling operands.
            self.grad = grad.copy()
        else:
            # In-place add is safe — ``self.grad`` is our private copy.
            self.grad += grad

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other_t._accumulate(grad)

        out = self._make_child(data, (self, other_t), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                np.add(self.data, other_t.data, out=out.data)
            out._forward = forward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            # Scratch buffers are allocated lazily on first use and reused on
            # every later call.  An eager closure runs once, so behaviour is
            # unchanged; a *captured* closure persists across graph replays
            # and becomes allocation-free from the second step on.  All
            # buffered expressions evaluate the identical ufunc sequence, so
            # values stay bit-equal to the unbuffered forms.
            if not scratch:
                scratch.append(np.empty_like(grad))
            self._accumulate(np.negative(grad, out=scratch[0]))

        out = self._make_child(data, (self,), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                np.negative(self.data, out=out.data)
            out._forward = forward
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        data = self.data - other_t.data
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            if other_t.requires_grad:
                if not scratch:
                    scratch.append(np.empty_like(grad))
                other_t._accumulate(np.negative(grad, out=scratch[0]))

        out = self._make_child(data, (self, other_t), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                np.subtract(self.data, other_t.data, out=out.data)
            out._forward = forward
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        data = self.data * other_t.data
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            buf = scratch[0]
            # Sequential reuse is safe: _accumulate never retains the buffer.
            self._accumulate(np.multiply(grad, other_t.data, out=buf))
            if other_t.requires_grad:
                other_t._accumulate(np.multiply(grad, self.data, out=buf))

        out = self._make_child(data, (self, other_t), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                np.multiply(self.data, other_t.data, out=out.data)
            out._forward = forward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        data = self.data / other_t.data
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            buf = scratch[0]
            self._accumulate(np.divide(grad, other_t.data, out=buf))
            if other_t.requires_grad:
                # d(a/b)/db = -a/b² = -out/b: reusing the forward output saves
                # the ``other**2`` power and one temporary per step.
                np.multiply(grad, data, out=buf)
                np.negative(buf, out=buf)
                other_t._accumulate(np.divide(buf, other_t.data, out=buf))

        out = self._make_child(data, (self, other_t), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                np.divide(self.data, other_t.data, out=out.data)
            out._forward = forward
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        data = self.data ** exponent
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
                scratch.append(np.empty_like(self.data))
            buf, pow_buf = scratch
            np.multiply(grad, exponent, out=buf)
            np.power(self.data, exponent - 1, out=pow_buf)
            self._accumulate(np.multiply(buf, pow_buf, out=buf))

        out = self._make_child(data, (self,), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                np.power(self.data, exponent, out=out.data)
            out._forward = forward
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        data = self.data @ other_t.data
        scratch: list = [None, None]

        def product(slot: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
            # Allocated by the first call, refilled in place on graph replays.
            if scratch[slot] is None:
                scratch[slot] = np.matmul(left, right)
            else:
                np.matmul(left, right, out=scratch[slot])
            return scratch[slot]

        def backward(grad: np.ndarray) -> None:
            # Each side's product is computed only for an operand that wants it
            # (a constant input batch would otherwise cost a GEMM per step).
            a, b = self.data, other_t.data
            grad = np.asarray(grad)
            need_a, need_b = self.requires_grad, other_t.requires_grad
            if a.ndim == 1 and b.ndim == 1:
                # dot product: out is scalar
                if need_a:
                    self._accumulate(grad * b)
                if need_b:
                    other_t._accumulate(grad * a)
            elif a.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                if need_a:
                    grad_a = (np.expand_dims(grad, -2) @ np.swapaxes(b, -1, -2)).reshape(b.shape[:-2] + (a.shape[0],))
                    self._accumulate(_unbroadcast(grad_a, a.shape))
                if need_b:
                    grad_b = np.expand_dims(a, -1) @ np.expand_dims(grad, -2)
                    other_t._accumulate(_unbroadcast(grad_b, b.shape))
            elif b.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                if need_a:
                    grad_a = np.expand_dims(grad, -1) @ np.expand_dims(b, 0)
                    self._accumulate(_unbroadcast(grad_a, a.shape))
                if need_b:
                    grad_b = (np.swapaxes(a, -1, -2) @ np.expand_dims(grad, -1)).reshape(a.shape[:-2] + (b.shape[0],))
                    other_t._accumulate(_unbroadcast(grad_b.reshape(-1, b.shape[0]).sum(axis=0)
                                                     if grad_b.ndim > 1 else grad_b, b.shape))
            else:
                if need_a:
                    self._accumulate(_unbroadcast(
                        product(0, grad, np.swapaxes(b, -1, -2)), a.shape))
                if need_b:
                    other_t._accumulate(_unbroadcast(
                        product(1, np.swapaxes(a, -1, -2), grad), b.shape))

        out = self._make_child(data, (self, other_t), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                a, b = self.data, other_t.data
                if a.ndim >= 2 and b.ndim >= 2:
                    np.matmul(a, b, out=out.data)
                else:
                    out.data[...] = a @ b
            out._forward = forward
        return out

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) @ self

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad_full = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    grad_full = np.expand_dims(grad_full, ax)
            self._accumulate(np.broadcast_to(grad_full, self.data.shape))

        out = self._make_child(np.asarray(data), (self,), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                np.sum(self.data, axis=axis, keepdims=keepdims, out=out.data)
            out._forward = forward
        return out

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad_full = np.asarray(grad)
            expanded = self.data.max(axis=axis, keepdims=True) if axis is not None else self.data.max()
            mask = (self.data == expanded).astype(self.data.dtype)
            mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum(), 1.0)
            if axis is not None and not keepdims:
                grad_full = np.expand_dims(grad_full, axis)
            self._accumulate(mask * grad_full)

        out = self._make_child(np.asarray(data), (self,), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                np.amax(self.data, axis=axis, keepdims=keepdims, out=out.data)
            out._forward = forward
        return out

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            self._accumulate(np.multiply(grad, data, out=scratch[0]))

        out = self._make_child(data, (self,), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                np.exp(self.data, out=data)
            out._forward = forward
        return out

    def log(self) -> "Tensor":
        data = np.log(self.data)
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            self._accumulate(np.divide(grad, self.data, out=scratch[0]))

        out = self._make_child(data, (self,), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                np.log(self.data, out=data)
            out._forward = forward
        return out

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(data))
            buf = scratch[0]
            # grad * (1 - data**2), evaluated with the same ufunc sequence.
            np.power(data, 2, out=buf)
            np.subtract(1.0, buf, out=buf)
            self._accumulate(np.multiply(grad, buf, out=buf))

        out = self._make_child(data, (self,), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                np.tanh(self.data, out=data)
            out._forward = forward
        return out

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(data))
                scratch.append(np.empty_like(data))
            buf, one_minus = scratch
            np.multiply(grad, data, out=buf)
            np.subtract(1.0, data, out=one_minus)
            self._accumulate(np.multiply(buf, one_minus, out=buf))

        out = self._make_child(data, (self,), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                # Same expression as the eager path, evaluated in place.
                np.negative(self.data, out=data)
                np.exp(data, out=data)
                np.add(data, 1.0, out=data)
                np.divide(1.0, data, out=data)
            out._forward = forward
        return out

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(self.data.dtype)
        data = self.data * mask
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            self._accumulate(np.multiply(grad, mask, out=scratch[0]))

        out = self._make_child(data, (self,), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                mask[...] = self.data > 0
                np.multiply(self.data, mask, out=data)
            out._forward = forward
        return out

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        data = np.abs(self.data)
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            self._accumulate(np.multiply(grad, sign, out=scratch[0]))

        out = self._make_child(data, (self,), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                np.sign(self.data, out=sign)
                np.absolute(self.data, out=data)
            out._forward = forward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            self._accumulate(np.multiply(grad, mask, out=scratch[0]))

        out = self._make_child(data, (self,), backward)
        if _Capture.tape is not None:
            def forward() -> None:
                np.clip(self.data, low, high, out=data)
                mask[...] = (self.data >= low) & (self.data <= high)
            out._forward = forward
        return out

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def _attach_view_forward(self, out: "Tensor",
                             recompute: Callable[[], np.ndarray]) -> "Tensor":
        """Wire the replay-forward hook for a shape op.

        When the result is a *view* of this tensor's buffer no recompute is
        needed on replay — in-place updates to the parent are visible through
        the view.  When numpy had to copy (non-contiguous reshape, fancy
        index, scalar extraction) the closure re-materialises the copy.
        """
        if _Capture.tape is None:
            return out
        if np.shares_memory(out.data, self.data):
            return out

        def forward() -> None:
            out.data[...] = recompute()
        out._forward = forward
        return out

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).reshape(self.data.shape))

        out = self._make_child(data, (self,), backward)
        return self._attach_view_forward(out, lambda: self.data.reshape(shape))

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes_t)
        inverse = np.argsort(axes_t)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).transpose(inverse))

        out = self._make_child(data, (self,), backward)
        return self._attach_view_forward(out, lambda: self.data.transpose(axes_t))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        data = self.data.squeeze(axis=axis) if axis is not None else self.data.squeeze()

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).reshape(self.data.shape))

        out = self._make_child(data, (self,), backward)
        return self._attach_view_forward(
            out, lambda: self.data.squeeze(axis=axis) if axis is not None
            else self.data.squeeze())

    def unsqueeze(self, axis: int) -> "Tensor":
        data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).reshape(self.data.shape))

        out = self._make_child(data, (self,), backward)
        return self._attach_view_forward(out, lambda: np.expand_dims(self.data, axis))

    def __getitem__(self, index: object) -> "Tensor":
        data = self.data[index]
        basic = _is_basic_index(index)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            # Scatter straight into the parent's grad buffer: allocating a
            # full zeros_like(parent) per slice — the old behaviour — made
            # sliced time loops (e.g. the GRU) quadratic in sequence length.
            target = self.grad
            if target is None:
                target = np.zeros_like(self.data)
                self.grad = target
            if basic:
                # Basic indexing never selects an element twice, so a plain
                # in-place add is correct and much faster than ``np.add.at``
                # (an unbuffered ufunc loop).
                target[index] += grad
            else:
                np.add.at(target, index, grad)

        out = self._make_child(np.asarray(data), (self,), backward)
        return self._attach_view_forward(out, lambda: self.data[index])

    # ------------------------------------------------------------------ #
    # Backpropagation
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to 1 for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo = _topological_order(self)
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Comparisons (detached; return plain numpy bool arrays)
    # ------------------------------------------------------------------ #
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > as_tensor(other).data

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < as_tensor(other).data

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= as_tensor(other).data

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= as_tensor(other).data


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no-op for existing tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def recomputed_leaf(compute: Callable[[], np.ndarray], name: Optional[str] = None) -> Tensor:
    """A constant leaf whose value is re-evaluated on every graph replay.

    Eagerly this is just ``Tensor(compute())``.  Under capture, the zero-arg
    ``compute`` callable is recorded on the tape so that data-dependent
    constants — a softmax's detached max-shift, a fresh dropout mask, the
    support-loss weights — are refreshed from the *current* buffer contents
    instead of being frozen at record time.  ``compute`` must return an array
    of fixed shape and must read its inputs through references that stay
    valid across replays (e.g. ``x.data`` of a captured tensor).
    """
    out = Tensor(compute(), name=name)
    tape = _Capture.tape
    if tape is not None:
        def forward() -> None:
            out.data[...] = compute()
        out._forward = forward
        tape.nodes.append(out)
    return out


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensor_list = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensor_list], axis=axis)
    sizes = [t.data.shape[axis] for t in tensor_list]

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        offset = 0
        for tensor, size in zip(tensor_list, sizes):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(offset, offset + size)
            tensor._accumulate(grad[tuple(slicer)])
            offset += size

    requires = is_grad_enabled() and any(t.requires_grad for t in tensor_list)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = tuple(tensor_list)
        out._backward = backward
    tape = _Capture.tape
    if tape is not None:
        def forward() -> None:
            offset = 0
            for tensor, size in zip(tensor_list, sizes):
                slicer = [slice(None)] * out.data.ndim
                slicer[axis] = slice(offset, offset + size)
                out.data[tuple(slicer)] = tensor.data
                offset += size
        out._forward = forward
        tape.nodes.append(out)
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensor_list = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensor_list], axis=axis)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        for i, tensor in enumerate(tensor_list):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = i
            tensor._accumulate(grad[tuple(slicer)])

    requires = is_grad_enabled() and any(t.requires_grad for t in tensor_list)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = tuple(tensor_list)
        out._backward = backward
    tape = _Capture.tape
    if tape is not None:
        def forward() -> None:
            for i, tensor in enumerate(tensor_list):
                slicer = [slice(None)] * out.data.ndim
                slicer[axis] = i
                out.data[tuple(slicer)] = tensor.data
        out._forward = forward
        tape.nodes.append(out)
    return out
