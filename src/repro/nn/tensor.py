"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  The paper's
reference implementation uses PyTorch; this reproduction provides a compact
pure-numpy equivalent so the whole repository runs offline on CPU.  The public
surface intentionally mirrors the small subset of the PyTorch tensor API that
the AdaMEL model and its baselines need: elementwise arithmetic with
broadcasting, matrix multiplication, reductions, common nonlinearities,
shape manipulation, and a ``backward()`` that accumulates gradients into
leaf tensors.

Every op — each ``Tensor`` op, :func:`concatenate`, :func:`stack`,
:func:`recomputed_leaf` and the :mod:`repro.nn.fused` kernels — states its
forward once and builds its node through :func:`_node`.  Eagerly that forward
allocates the output; while a :class:`~repro.nn.graph.Tape` captures, the node
also records it bound to the output buffer, so a replayed graph (the training
fast path, :mod:`repro.nn.graph`) re-evaluates every op in place with no
per-step allocation.  ``tests/nn/test_primitives.py`` has a row per op.
"""

from __future__ import annotations

import functools
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

    Set by :class:`repro.nn.graph.Tape`; kept here so :func:`_node` can record
    every op without importing the graph module.
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
    # asarray: summed down to ``()`` it is a numpy scalar, which a replay
    # could not zero in place.
    return np.asarray(grad).reshape(shape)


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


def _node(forward: Callable[..., np.ndarray], parents: Tuple["Tensor", ...],
          backward: Optional[Callable[[np.ndarray], None]]) -> "Tensor":
    """The node constructor every op builds through.

    ``forward(out)`` writes the op's value into ``out`` and returns it; called
    without ``out`` it allocates (a fused kernel's default ``out`` is its
    preallocated buffer).  It runs once here; ``parents`` and ``backward`` are
    wired when a parent requires grad.  Under a tape the replay is ``forward``
    bound to the output buffer, skipped when the output is a view of the first
    operand.  Backward scratch is allocated on first use and reused on every
    replay, with the same ufunc sequence.  A backward that reads the output
    binds ``node.data`` after this returns, so an eager graph has no cycle.
    """
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    out = Tensor(forward(), requires_grad=requires)
    if requires:
        out._parents = parents
        out._backward = backward
    tape = _Capture.tape
    if tape is not None:
        if not (parents and np.shares_memory(out.data, parents[0].data)):
            out._forward = functools.partial(forward, out.data)
        tape.nodes.append(out)
    return out


def _into(out: Optional[np.ndarray], value: np.ndarray) -> np.ndarray:
    """Forward of an op numpy evaluates to a new object (a view or a copy)."""
    if out is None:
        return value
    out[...] = value
    return out


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

    # Ensure expressions like ``ndarray * tensor`` dispatch to the Tensor's
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
        self._forward: Optional[Callable[[], np.ndarray]] = None
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

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

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

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other_t._accumulate(grad)

        return _node(lambda out=None: np.add(self.data, other_t.data, out=out),
                     (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            self._accumulate(np.negative(grad, out=scratch[0]))

        return _node(lambda out=None: np.negative(self.data, out=out), (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            if other_t.requires_grad:
                if not scratch:
                    scratch.append(np.empty_like(grad))
                other_t._accumulate(np.negative(grad, out=scratch[0]))

        return _node(lambda out=None: np.subtract(self.data, other_t.data, out=out),
                     (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            buf = scratch[0]
            # Sequential reuse is safe: _accumulate never retains the buffer.
            self._accumulate(np.multiply(grad, other_t.data, out=buf))
            if other_t.requires_grad:
                other_t._accumulate(np.multiply(grad, self.data, out=buf))

        return _node(lambda out=None: np.multiply(self.data, other_t.data, out=out),
                     (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            buf = scratch[0]
            self._accumulate(np.divide(grad, other_t.data, out=buf))
            if other_t.requires_grad:
                # d(a/b)/db = -a/b² = -out/b: reusing the forward output saves
                # the ``other**2`` power and one temporary per step.
                np.multiply(grad, value, out=buf)
                np.negative(buf, out=buf)
                other_t._accumulate(np.divide(buf, other_t.data, out=buf))

        node = _node(lambda out=None: np.divide(self.data, other_t.data, out=out),
                     (self, other_t), backward)
        value = node.data
        return node

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
                scratch.append(np.empty_like(self.data))
            buf, pow_buf = scratch
            np.multiply(grad, exponent, out=buf)
            np.power(self.data, exponent - 1, out=pow_buf)
            self._accumulate(np.multiply(buf, pow_buf, out=buf))

        return _node(lambda out=None: np.power(self.data, exponent, out=out),
                     (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other)
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

        # asarray: ``Tensor`` would cast a dot product's numpy scalar.
        return _node(lambda out=None: np.asarray(
            np.matmul(self.data, other_t.data, out=out)), (self, other_t), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            grad_full = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    grad_full = np.expand_dims(grad_full, ax)
            self._accumulate(np.broadcast_to(grad_full, self.data.shape))

        # asarray: ``Tensor`` would cast a full reduction's numpy scalar.
        return _node(lambda out=None: np.asarray(
            np.sum(self.data, axis=axis, keepdims=keepdims, out=out)), (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            self._accumulate(np.multiply(grad, value, out=scratch[0]))

        node = _node(lambda out=None: np.exp(self.data, out=out), (self,), backward)
        value = node.data
        return node

    def log(self) -> "Tensor":
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            self._accumulate(np.divide(grad, self.data, out=scratch[0]))

        return _node(lambda out=None: np.log(self.data, out=out), (self,), backward)

    def tanh(self) -> "Tensor":
        scratch: list = []

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(value))
            buf = scratch[0]
            # grad * (1 - value**2), evaluated with the same ufunc sequence.
            np.power(value, 2, out=buf)
            np.subtract(1.0, buf, out=buf)
            self._accumulate(np.multiply(grad, buf, out=buf))

        node = _node(lambda out=None: np.tanh(self.data, out=out), (self,), backward)
        value = node.data
        return node

    def sigmoid(self) -> "Tensor":
        scratch: list = []

        def forward(out: Optional[np.ndarray] = None) -> np.ndarray:
            # 1 / (1 + exp(-x)), evaluated in one buffer.
            out = np.negative(self.data, out=out)
            np.exp(out, out=out)
            np.add(out, 1.0, out=out)
            return np.divide(1.0, out, out=out)

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(value))
                scratch.append(np.empty_like(value))
            buf, one_minus = scratch
            np.multiply(grad, value, out=buf)
            np.subtract(1.0, value, out=one_minus)
            self._accumulate(np.multiply(buf, one_minus, out=buf))

        node = _node(forward, (self,), backward)
        value = node.data
        return node

    def relu(self) -> "Tensor":
        mask = np.empty_like(self.data)
        scratch: list = []

        def forward(out: Optional[np.ndarray] = None) -> np.ndarray:
            np.greater(self.data, 0, out=mask)
            return np.multiply(self.data, mask, out=out)

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            self._accumulate(np.multiply(grad, mask, out=scratch[0]))

        return _node(forward, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.empty_like(self.data)
        scratch: list = []

        def forward(out: Optional[np.ndarray] = None) -> np.ndarray:
            np.sign(self.data, out=sign)
            return np.absolute(self.data, out=out)

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            self._accumulate(np.multiply(grad, sign, out=scratch[0]))

        return _node(forward, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = np.empty_like(self.data)
        scratch: list = []

        def forward(out: Optional[np.ndarray] = None) -> np.ndarray:
            mask[...] = (self.data >= low) & (self.data <= high)
            return np.clip(self.data, low, high, out=out)

        def backward(grad: np.ndarray) -> None:
            if not scratch:
                scratch.append(np.empty_like(grad))
            self._accumulate(np.multiply(grad, mask, out=scratch[0]))

        return _node(forward, (self,), backward)

    # ------------------------------------------------------------------ #
    # Shape manipulation: a view of the operand when numpy can make one
    # ------------------------------------------------------------------ #
    def _accumulate_reshaped(self, grad: np.ndarray) -> None:
        """The backward of every op that only reshapes this tensor."""
        self._accumulate(np.asarray(grad).reshape(self.data.shape))

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _node(lambda out=None: _into(out, self.data.reshape(shape)), (self,),
                     self._accumulate_reshaped)

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes_t)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).transpose(inverse))

        return _node(lambda out=None: _into(out, self.data.transpose(axes_t)), (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        return _node(lambda out=None: _into(out, self.data.squeeze(axis=axis)), (self,),
                     self._accumulate_reshaped)

    def unsqueeze(self, axis: int) -> "Tensor":
        return _node(lambda out=None: _into(out, np.expand_dims(self.data, axis)), (self,),
                     self._accumulate_reshaped)

    def __getitem__(self, index: object) -> "Tensor":
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

        # asarray: an integer index for every axis selects a numpy scalar.
        return _node(lambda out=None: _into(out, np.asarray(self.data[index])),
                     (self,), backward)

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
    out = _node(lambda out=None: _into(out, compute()), (), None)
    out.name = name
    return out


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensor_list = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensor_list]

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        offset = 0
        for tensor, size in zip(tensor_list, sizes):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(offset, offset + size)
            tensor._accumulate(grad[tuple(slicer)])
            offset += size

    return _node(lambda out=None: np.concatenate([t.data for t in tensor_list], axis=axis,
                                                 out=out), tuple(tensor_list), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensor_list = [as_tensor(t) for t in tensors]

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        for i, tensor in enumerate(tensor_list):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = i
            tensor._accumulate(grad[tuple(slicer)])

    return _node(lambda out=None: np.stack([t.data for t in tensor_list], axis=axis, out=out),
                 tuple(tensor_list), backward)
