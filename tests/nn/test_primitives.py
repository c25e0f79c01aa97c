"""One row per node-building op of ``repro.nn``: replay ≡ eager, and its gradients.

Every ``Tensor`` op, ``concatenate``, ``stack``, ``recomputed_leaf`` and each
kernel in ``repro.nn.fused.__all__`` builds its graph node through
``repro.nn.tensor._node``.  ``PRIMITIVES`` has a row for each (one per variant
of a fused kernel, taken from ``composed_oracle.ORACLES``), and
``test_every_node_building_op_has_a_row`` fails for a builder without one.

Hypothesis draws each row's shapes — batch sizes from 1, broadcast operands,
integer and fancy indices — and which operands are strided (not
C-contiguous).  Operand values come from a seeded generator, inside each
op's domain and away from its kinks.
"""

from __future__ import annotations

import gc
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composed_oracle import ORACLES
from repro.nn import fused
from repro.nn import tensor as tensor_module
from repro.nn.dtypes import using_dtype
from repro.nn.gradcheck import check_gradient
from repro.nn.graph import CompiledGraph, Tape
from repro.nn.tensor import Tensor, concatenate, recomputed_leaf, stack

Arrays = Dict[str, np.ndarray]
Draw = Callable[[st.SearchStrategy], object]

REPLAYS = 2
MAX_N = 6


@dataclass(frozen=True)
class Primitive:
    """One row: the op it covers, how to call it, how to draw its operands.

    ``operands(draw, rng, n)`` returns float64 arrays by argument name for a
    batch size ``n``; names in ``differentiable`` become tensors that require
    grad, integer arrays are passed as they are, the rest become constant
    tensors.  ``arguments(draw, arrays)`` draws the op's other arguments,
    passed to ``build`` positionally ahead of the operands.
    """

    op: str
    label: str
    build: Callable[..., Tensor]
    operands: Callable[[Draw, np.random.Generator, int], Arrays]
    differentiable: Tuple[str, ...]
    arguments: Callable[[Draw, Arrays], tuple]


# ---------------------------------------------------------------------- #
# Operands
# ---------------------------------------------------------------------- #
def _values(rng: np.random.Generator, shape, positive: bool = False) -> np.ndarray:
    return rng.uniform(0.5, 2.0, size=shape) if positive else rng.normal(size=shape)


def _extent(draw: Draw) -> int:
    return draw(st.integers(1, 4))


def _tensor_of(rank: Optional[int] = None, positive: bool = False, middle: Optional[int] = None):
    """One operand ``x`` of shape ``(n, ...)``; ``middle`` fixes axis 1."""
    def operands(draw, rng, n) -> Arrays:
        shape = [n] + [_extent(draw) for _ in range((rank or draw(st.integers(1, 3))) - 1)]
        if middle is not None:
            shape[1] = middle
        return {"x": _values(rng, tuple(shape), positive)}
    return operands


def _broadcast(positive_right: bool = False):
    """``a`` and ``b`` of shapes that broadcast against each other."""
    def operands(draw, rng, n) -> Arrays:
        k = _extent(draw)
        left = draw(st.sampled_from([(n, k), (k,), (n, 1)]))
        right = draw(st.sampled_from([(n, k), (k,), (1, k), (n, 1), ()]))
        return {"a": _values(rng, left), "b": _values(rng, right, positive_right)}
    return operands


def _matmul_operands(draw, rng, n) -> Arrays:
    k, m = _extent(draw), _extent(draw)
    left, right = draw(st.sampled_from([
        ((n, k), (k, m)), ((n, 1, 1, k), (2, k, m)), ((2, n, k), (k, m)),
        ((k,), (n, k, m)), ((n, k), (k,)), ((k,), (k,))]))
    return {"a": _values(rng, left), "b": _values(rng, right)}


def _parts(same_shape: bool):
    """Two or three operands: one shape for ``stack``; extents that differ
    along axis 0 for ``concatenate``."""
    def operands(draw, rng, n) -> Arrays:
        k, count = _extent(draw), draw(st.integers(2, 3))
        return {f"x{i}": _values(rng, (n if same_shape else draw(st.integers(1, n)), k))
                for i in range(count)}
    return operands


def _joined(join: Callable[..., Tensor], axis: int) -> Callable[..., Tensor]:
    return lambda **parts: join([parts[name] for name in sorted(parts)], axis=axis)


def _choice(*options) -> Callable[[Draw, Arrays], tuple]:
    return lambda draw, arrays: draw(st.sampled_from(options))


# ---------------------------------------------------------------------- #
# The table
# ---------------------------------------------------------------------- #
def _row(op, build, operands, differentiable=("x",), arguments=_choice(()),
         label=None) -> Primitive:
    return Primitive(op, label or op, build, operands, differentiable, arguments)


def _binary(op, build, positive_right=False) -> Primitive:
    return _row(op, build, _broadcast(positive_right), ("a", "b"))


def _method(name, *args) -> Callable[..., Tensor]:
    return lambda *drawn, x: getattr(x, name)(*args, *drawn)


_PLAIN = [
    _binary("__add__", lambda a, b: a + b),
    _binary("__sub__", lambda a, b: a - b),
    _binary("__mul__", lambda a, b: a * b),
    _binary("__truediv__", lambda a, b: a / b, positive_right=True),
    _row("__matmul__", lambda a, b: a @ b, _matmul_operands, ("a", "b")),
    _row("__neg__", lambda x: -x, _tensor_of()),
    _row("__pow__", lambda exponent, x: x ** exponent, _tensor_of(positive=True),
         arguments=_choice((2,), (3,), (0.5,), (-1.0,))),
    _row("sum", _method("sum"), _tensor_of(),
         arguments=lambda draw, arrays: (
             draw(st.sampled_from([None, 0, -1, tuple(range(arrays["x"].ndim))])),
             draw(st.booleans()))),
    _row("exp", _method("exp"), _tensor_of()),
    _row("log", _method("log"), _tensor_of(positive=True)),
    _row("tanh", _method("tanh"), _tensor_of()),
    _row("sigmoid", _method("sigmoid"), _tensor_of()),
    _row("relu", _method("relu"), _tensor_of()),
    _row("abs", _method("abs"), _tensor_of()),
    _row("clip", _method("clip", -0.5, 0.5), _tensor_of()),
    _row("reshape", _method("reshape"), _tensor_of(rank=3),
         arguments=lambda draw, arrays: draw(st.sampled_from(
             [(-1,), (1, -1), (-1, 1), (arrays["x"].shape[0], -1)]))),
    _row("transpose", _method("transpose"), _tensor_of(rank=3),
         arguments=_choice((), (1, 0, 2), (2, 0, 1))),
    _row("squeeze", _method("squeeze"), _tensor_of(rank=3, middle=1),
         arguments=_choice((1,), ())),
    _row("unsqueeze", _method("unsqueeze"), _tensor_of(rank=2),
         arguments=_choice((0,), (1,), (2,), (-1,))),
    _row("__getitem__", lambda index, x: x[index], _tensor_of(rank=2),
         arguments=_choice((0,), (-1,), (slice(None, None, 2),), ((slice(None), 0),),
                           ((0, 0),), ((Ellipsis, None),), (np.array([0, 0, -1]),),
                           ((np.array([0, -1]), slice(None)),))),
    _row("concatenate", _joined(concatenate, 0), _parts(same_shape=False), ("x0", "x1", "x2")),
    _row("stack", _joined(stack, -1), _parts(same_shape=True), ("x0", "x1", "x2")),
    # A data-dependent constant: refreshed from ``c`` on every replay.
    _row("recomputed_leaf", lambda x, c: x * recomputed_leaf(lambda: np.tanh(c.data)),
         lambda draw, rng, n: {"x": _values(rng, (n, 3)), "c": _values(rng, (n, 3))}),
]

_FUSED = [_row(name, oracle.fused,
               lambda draw, rng, n, oracle=oracle: oracle.operands(rng, n, False),
               oracle.differentiable, label=f"{name}[{oracle.label}]")
          for name in fused.__all__ for oracle in ORACLES[name]]

PRIMITIVES = {row.label: row for row in _PLAIN + _FUSED}


def _node_builders() -> set:
    """Names of the functions in ``repro.nn.tensor`` / ``repro.nn.fused``
    (``Tensor`` methods included) whose body calls ``_node``."""
    names = set()
    for owner in (tensor_module.Tensor, tensor_module, fused):
        for member in vars(owner).values():
            if (inspect.isfunction(member) and member.__name__ != "_node"
                    and "_node(" in inspect.getsource(member)):
                names.add(member.__name__)
    return names


def test_every_node_building_op_has_a_row():
    builders = _node_builders()
    assert {"__add__", "__getitem__", "recomputed_leaf", "fused_linear"} <= builders
    missing = builders - {row.op for row in PRIMITIVES.values()}
    assert not missing, f"node-building ops without a row in PRIMITIVES: {sorted(missing)}"


# ---------------------------------------------------------------------- #
# Running a row
# ---------------------------------------------------------------------- #
@dataclass
class Case:
    """One drawn example of a row; ``arrays`` take fresh values per replay."""

    row: Primitive
    arrays: Arrays
    arguments: tuple
    strided: frozenset
    rng: np.random.Generator

    def tensors(self, dtype=np.float64, frozen=None) -> Dict[str, object]:
        tensors = {}
        for name, value in self.arrays.items():
            if value.dtype.kind == "i":
                tensors[name] = value
                continue
            value = value.astype(dtype)
            tensors[name] = Tensor(_strided(value) if name in self.strided else value,
                                   requires_grad=name in self.row.differentiable
                                   and name != frozen)
        return tensors

    def build(self, tensors) -> Tensor:
        return self.row.build(*self.arguments, **tensors)


def _draw_case(data, row: Primitive) -> Case:
    n = data.draw(st.integers(1, MAX_N), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    arrays = row.operands(data.draw, rng, n)
    arguments = row.arguments(data.draw, arrays)
    strided = frozenset(name for name in sorted(arrays)
                        if data.draw(st.booleans(), label=f"{name} strided"))
    return Case(row, arrays, arguments, strided, rng)


def _strided(value: np.ndarray) -> np.ndarray:
    """Same shape and values, not C-contiguous."""
    if value.ndim >= 2:
        return np.ascontiguousarray(value.T).T
    return np.repeat(value, 2)[::2] if value.ndim else value


def _objective(out: Tensor) -> Tensor:
    """A scalar whose gradient reaches every output element differently."""
    if out.ndim == 0:
        return out
    projection = np.random.default_rng(out.size).normal(size=out.shape)
    return (out * Tensor(projection.astype(out.dtype))).sum()


def _gradients(tensors) -> Dict[str, np.ndarray]:
    return {name: t.grad.copy() for name, t in tensors.items()
            if isinstance(t, Tensor) and t.requires_grad}


def _eager(case: Case, **how):
    tensors = case.tensors(**how)
    out = case.build(tensors)
    loss = _objective(out)
    if loss.requires_grad:
        loss.backward()
    return out.data.copy(), float(loss.data), _gradients(tensors)


def _assert_replays_equal_eager(case: Case, **how) -> None:
    tape = Tape()
    with tape:
        tensors = case.tensors(**how)
        out = case.build(tensors)
        loss = _objective(out)
    graph = CompiledGraph(tape, inputs={}, loss=loss if loss.requires_grad else None)
    for replay in range(REPLAYS):
        case.arrays = {name: value if value.dtype.kind == "i"
                       else case.rng.permutation(value.ravel()).reshape(value.shape)
                       for name, value in case.arrays.items()}
        for name, held in tensors.items():
            if isinstance(held, Tensor):
                np.copyto(held.data, case.arrays[name])
        if loss.requires_grad:
            graph.step()
        else:
            graph.forward()
        where = (f"{case.row.label}{case.arguments} {how} strided={sorted(case.strided)}, "
                 f"replay {replay}")
        ref_out, ref_loss, ref_grads = _eager(case, **how)
        assert out.dtype == ref_out.dtype, where
        assert np.array_equal(out.data, ref_out), f"{where}: output differs"
        assert np.array_equal(loss.data, ref_loss), f"{where}: loss differs"
        grads = _gradients(tensors)
        assert grads.keys() == ref_grads.keys(), where
        for name, grad in grads.items():
            assert np.array_equal(grad, ref_grads[name]), f"{where}: d/d{name} differs"


# ---------------------------------------------------------------------- #
# The checks
# ---------------------------------------------------------------------- #
# Example counts are fractions of the active profile's, so ``pytest
# --hypothesis-profile=ci`` runs ten times as many here too.
@pytest.mark.parametrize("label", sorted(PRIMITIVES))
@given(data=st.data())
@settings(deadline=None, max_examples=max(settings.default.max_examples // 5, 1))
def test_replay_equals_eager(label, data):
    """Recorded once, replayed on fresh values: output, loss and every
    gradient equal an eager run bit for bit, in float32 and float64, with
    each differentiable operand frozen in turn."""
    case = _draw_case(data, PRIMITIVES[label])
    for dtype in (np.float64, np.float32):
        with using_dtype(dtype):
            for frozen in (None,) + tuple(n for n in case.row.differentiable if n in case.arrays):
                _assert_replays_equal_eager(case, dtype=dtype, frozen=frozen)


@pytest.mark.parametrize("label", sorted(PRIMITIVES))
@given(data=st.data())
@settings(deadline=None, max_examples=max(settings.default.max_examples // 5, 1))
def test_float32_operands_keep_their_dtype(label, data):
    """Under the float64 policy, float32 operands give a float32 output: a
    float32 network outside the policy context keeps computing in float32."""
    case = _draw_case(data, PRIMITIVES[label])
    out = case.build(case.tensors(dtype=np.float32))
    assert out.dtype == np.float32, f"{label}{case.arguments} strided={sorted(case.strided)}"


@pytest.mark.parametrize("label", sorted(PRIMITIVES))
@given(data=st.data())
@settings(deadline=None, max_examples=max(settings.default.max_examples // 10, 1))
def test_gradients_match_finite_differences(label, data):
    case = _draw_case(data, PRIMITIVES[label])
    tensors = case.tensors()
    check_gradient(lambda: _objective(case.build(tensors)),
                   [t for name, t in tensors.items() if name in case.row.differentiable])


@given(data=st.data())
@settings(deadline=None, max_examples=max(settings.default.max_examples // 20, 1))
def test_a_dropped_graph_is_freed_by_refcount(data):
    """No node is a reference cycle, eager or captured: a dropped graph goes
    at once, not at the next generation-2 collection."""
    cases = [_draw_case(data, row) for row in PRIMITIVES.values()]
    gc.collect()
    gc.disable()
    try:
        for case in cases:
            tensors = case.tensors()
            _objective(case.build(tensors)).backward()
            tape = Tape()
            with tape:
                loss = _objective(case.build(tensors))
            CompiledGraph(tape, inputs={}, loss=loss).step()
        del cases, case, tensors, tape, loss
        assert gc.collect() == 0
    finally:
        gc.enable()
