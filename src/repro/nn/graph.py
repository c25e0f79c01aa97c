"""Graph capture & replay: the training fast path of the autograd engine.

The eager engine in :mod:`repro.nn.tensor` rebuilds its graph on every
forward — one python closure, one output array and one ``Tensor`` object per
op, plus a topological sort per ``backward()``.  For model *training* the
per-step graph is static (same ops, same shapes every mini-batch), so that
construction cost can be paid once and amortised over the whole run:

* :class:`Tape` — a ``with`` context during which every op's node records
  its one forward bound to the output buffer allocated at record time, so a
  replay re-evaluates the op in place (``_node`` in ``tensor.py``).
* :class:`CompiledGraph` — wraps a captured tape: refreshes the registered
  input leaves (``np.copyto`` into their existing buffers), replays the
  forward program, and re-runs the backward pass over the topological order
  recorded from the eager engine — so gradient accumulation happens in the
  same order, with the same rounding, as an eager step.  Gradient buffers are
  retained across steps and zeroed in place.
* :class:`StepGraphs` — the training step both trainers run: one
  ``CompiledGraph`` per mini-batch size, recorded at the size's first batch
  and replayed for every later one, then the gradient clip and the Adam step.

Invariants the capture relies on (enforced/observed by the callers):

* optimisers update ``param.data`` **in place** (``-=``), never by rebinding
  the attribute to a fresh array — recorded views (e.g. ``weight.T``) alias
  the original buffer;
* data-dependent constants inside the captured region are created through
  :func:`repro.nn.tensor.recomputed_leaf` so they are refreshed per replay;
* input shapes are frozen at record time — :meth:`CompiledGraph.step` raises
  :class:`GraphShapeMismatch` for any other shape.  :class:`StepGraphs` never
  feeds one: it keys its graphs by batch size and builds a size it holds no
  graph for (e.g. the last partial mini-batch of an epoch) afresh.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

import numpy as np

from .optim import Adam, clip_grad_norm
from .tensor import Tensor, _Capture, _topological_order

__all__ = ["Tape", "CompiledGraph", "GraphShapeMismatch", "StepGraphs", "MAX_STEP_GRAPHS"]

# Graphs one StepGraphs records: in practice two sizes recur (batch_size and
# the final partial batch), so further sizes run eager rather than caching
# ever more graphs.  Tests set it to 0 for the all-eager reference.
MAX_STEP_GRAPHS = 8

_Outputs = TypeVar("_Outputs")


class GraphShapeMismatch(RuntimeError):
    """An input fed to ``replay`` does not match the recorded buffer shape."""


class Tape:
    """Context manager that records tensor ops for later replay.

    While active, every op appends its output node to :attr:`nodes` (in
    creation order, which is a valid execution order: parents are always
    created before children).  Capture does not change eager semantics — the
    recording run computes exactly what an uncaptured run would.
    """

    def __init__(self) -> None:
        self.nodes: List[Tensor] = []

    def __enter__(self) -> "Tape":
        if _Capture.tape is not None:
            raise RuntimeError("a Tape is already capturing; captures do not nest")
        _Capture.tape = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        _Capture.tape = None


class CompiledGraph:
    """A recorded computation that can be replayed for new input values.

    Parameters
    ----------
    tape:
        The tape the computation was captured on.
    inputs:
        Named leaf tensors whose ``data`` buffers are refreshed on every
        replay.  Shapes are frozen at record time.
    loss:
        The scalar output to backpropagate from.  Omit for a forward-only
        graph (``forward()`` replays it; ``step()`` needs a loss).
    """

    def __init__(self, tape: Tape, inputs: Mapping[str, Tensor],
                 loss: Optional[Tensor] = None) -> None:
        self._inputs: Dict[str, Tensor] = dict(inputs)
        # Every recorded node, so release() reaches the ones that are neither
        # replayed nor on the loss path.
        self._nodes: List[Tensor] = list(tape.nodes)
        # One call per replayed op: the loop dispatches straight to each
        # node's bound forward without per-step attribute lookups.
        self._forward_fns = tuple(node._forward for node in tape.nodes
                                  if node._forward is not None)
        self._loss = loss
        self._topo: List[Tensor] = []
        self._seed: Optional[np.ndarray] = None
        if loss is not None:
            if loss.data.size != 1:
                raise ValueError("loss must be a scalar tensor")
            if not loss.requires_grad:
                raise ValueError("loss does not require grad; was the capture "
                                 "run under no_grad()?")
            # The exact traversal the eager engine would use — recorded once,
            # replayed every step, so accumulation order (and floating-point
            # rounding) matches eager backward bit for bit.
            self._topo = _topological_order(loss)
            self._seed = np.ones_like(loss.data)

    # ------------------------------------------------------------------ #
    # Introspection (tape counters)
    # ------------------------------------------------------------------ #
    @property
    def num_forward_ops(self) -> int:
        """Ops re-executed per replayed forward (views/leaves excluded)."""
        return len(self._forward_fns)

    @property
    def num_backward_ops(self) -> int:
        """Nodes carrying a backward closure on the recorded loss path."""
        return sum(1 for node in self._topo if node._backward is not None)

    @property
    def num_nodes(self) -> int:
        """All nodes recorded on the tape (including views and leaves)."""
        return len(self._topo) if self._topo else len(self._forward_fns)

    def release(self) -> None:
        """Drop the recorded program so its buffers are freed by refcount.

        A node the caller still holds (a step's outputs) reaches every node
        upstream through its parent links and closures, and with them the
        graph's record-time buffers — whole-batch activations, gradients and
        backward scratch.  Clearing the closures and parent links frees them;
        the node *values* (``data``) stay readable, the graph can no longer
        replay.
        """
        for node in self._nodes + self._topo:
            node._forward = None
            node._backward = None
            node._parents = ()
        self._nodes = []
        self._forward_fns = ()
        self._topo = []
        self._inputs = {}
        self._loss = None
        self._seed = None

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def load_inputs(self, inputs: Mapping[str, np.ndarray]) -> None:
        """Copy new values into the recorded input buffers (shape-checked)."""
        for name, value in inputs.items():
            try:
                target = self._inputs[name]
            except KeyError:
                raise KeyError(f"unknown graph input {name!r}; registered: "
                               f"{sorted(self._inputs)}") from None
            value = np.asarray(value)
            if value.shape != target.data.shape:
                raise GraphShapeMismatch(
                    f"input {name!r} has shape {value.shape} but the graph was "
                    f"recorded for {target.data.shape}"
                )
            np.copyto(target.data, value)

    def input_array(self, name: str) -> np.ndarray:
        """The recorded buffer for input ``name`` (for in-place producers).

        Callers may fill this buffer directly — e.g. ``np.take(source, idx,
        axis=0, out=graph.input_array("features"))`` — instead of building a
        gathered temporary and paying a second copy through ``load_inputs``.
        """
        return self._inputs[name].data

    def forward(self, inputs: Optional[Mapping[str, np.ndarray]] = None) -> None:
        """Replay the forward program for the given input values."""
        if inputs:
            self.load_inputs(inputs)
        for fn in self._forward_fns:
            fn()

    def zero_grads(self) -> None:
        """Zero every retained gradient buffer in place."""
        for node in self._topo:
            grad = node.grad
            if grad is not None:
                grad.fill(0.0)

    def backward(self) -> None:
        """Replay the backward pass; gradients accumulate into the leaves."""
        if self._loss is None:
            raise RuntimeError("this graph has no loss to backpropagate from: it was "
                               "compiled without one, or released")
        self.zero_grads()
        # Mirrors Tensor.backward() over the recorded topological order.
        self._loss._accumulate(self._seed)
        for node in reversed(self._topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def step(self, inputs: Optional[Mapping[str, np.ndarray]] = None) -> float:
        """One training step: refresh inputs, forward, backward.

        Returns the (python float) loss value so callers do not have to touch
        the buffer before the next replay overwrites it.
        """
        self.forward(inputs)
        self.backward()
        return float(self._loss.data)


class StepGraphs:
    """One model's training step: recorded once per mini-batch size, replayed.

    For a size it holds no graph for, :meth:`step` calls ``build()`` under a
    :class:`Tape` — that run is the step's forward pass — and keeps the
    recording as a :class:`CompiledGraph`.  For a size it has recorded,
    ``fill(graph)`` gathers the batch into the graph's input buffers and the
    graph is replayed.  Once :data:`MAX_STEP_GRAPHS` graphs are held, or with
    ``capture=False`` (a network whose forward is not capture-safe), new sizes
    are built eagerly every time.  Either way backward, the gradient-norm clip
    and ``Adam.step`` follow; float64 replay is bit-exact with eager.
    """

    def __init__(self, optimizer: Adam, grad_clip: float, capture: bool = True) -> None:
        self.optimizer = optimizer
        self.grad_clip = grad_clip
        self.capture = capture
        self._graphs: Dict[int, CompiledGraph] = {}
        self._outputs: Dict[int, object] = {}

    def step(self, size: int,
             build: Callable[[], Tuple[Mapping[str, Tensor], Tensor, _Outputs]],
             fill: Callable[[CompiledGraph], None]) -> _Outputs:
        """One optimiser step on a mini-batch of ``size`` rows.

        ``build()`` returns ``(inputs, loss, outputs)``: the leaf tensors a
        replay refreshes (their buffers must own their memory), the scalar
        loss, and what the caller reads back after the step — tensors whose
        values every replay overwrites.  Returns those ``outputs``.
        """
        graph = self._graphs.get(size)
        if graph is not None:
            fill(graph)
            graph.step()
            outputs = self._outputs[size]
        else:
            capture = self.capture and len(self._graphs) < MAX_STEP_GRAPHS
            tape = Tape()
            with tape if capture else contextlib.nullcontext():
                inputs, loss, outputs = build()
            if capture:
                self._graphs[size] = CompiledGraph(tape, inputs=inputs, loss=loss)
                self._outputs[size] = outputs
            self.optimizer.zero_grad()
            loss.backward()
        if self.grad_clip > 0:
            # The optimiser's list: no walk of the module tree per step.
            clip_grad_norm(self.optimizer.parameters, self.grad_clip)
        self.optimizer.step()
        return outputs

    def stats(self) -> Optional[Dict[str, int]]:
        """Op counts of the largest recorded graph (None before any)."""
        if not self._graphs:
            return None
        graph = self._graphs[max(self._graphs)]
        return {
            "forward_ops": int(graph.num_forward_ops),
            "backward_ops": int(graph.num_backward_ops),
            "nodes": int(graph.num_nodes),
        }

    def release(self) -> None:
        """Release every recorded graph (see :meth:`CompiledGraph.release`)."""
        for graph in self._graphs.values():
            graph.release()
        self._graphs = {}
        self._outputs = {}
