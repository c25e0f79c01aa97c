"""Spans recorded from the benchmark's side, around each layer's public calls.

:class:`Tracer` rebinds the public entry points listed in :data:`TARGETS` to
wrappers at run time (methods on the class that defines them, module-level
functions in every ``repro`` module namespace that imported them) and restores
the originals afterwards.  A wrapper records one :class:`Span` per call while
the tracer is enabled and is a plain pass-through otherwise, so it can be
installed before set-up (bound methods captured during set-up, such as the
coalescer's ``score_fn``, then already point at the wrapper) and switched on
only for the traced section.

A span's parent is the span open on the same thread when it started.  Work
done on another thread (the coalescer's executor) cannot be linked to its
caller from outside, so those spans are roots tagged ``batch-<n>``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Span", "Target", "TARGETS", "Tracer", "self_seconds",
           "inclusive_seconds", "has_ancestor"]


class Span:
    """One call of a traced entry point."""

    __slots__ = ("layer", "name", "start", "end", "parent", "thread", "op", "count")

    def __init__(self, layer: str, name: str, start: float = 0.0, end: float = 0.0,
                 parent: Optional["Span"] = None, thread: int = 0,
                 op: object = None, count: int = 0) -> None:
        self.layer = layer
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.op = op          # request id set by the harness, or "batch-<n>"
        self.count = count    # work items the call handled (pairs, edges, ...)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A public entry point to wrap: ``module`` + ``Class.method`` or ``function``.

    ``count(args, result)`` optionally reads how many work items the call
    handled; it is stored on the span.
    """

    layer: str
    module: str
    qualname: str
    count: Optional[Callable[[tuple, object], int]] = None


def _arg_len(position: int) -> Callable[[tuple, object], int]:
    return lambda args, result: len(args[position])


def _result_len(args: tuple, result: object) -> int:
    return len(result)  # type: ignore[arg-type]


# Methods inherited from the indexes' shared base class are reached through one
# public subclass; the wrapper lands on the class that defines the method.
TARGETS: Tuple[Target, ...] = (
    Target("core.trainer", "repro.core.trainer", "AdaMELTrainer.fit"),
    Target("nn.graph", "repro.nn.graph", "CompiledGraph.step"),
    Target("nn.graph", "repro.nn.graph", "CompiledGraph.forward"),
    Target("nn.optim", "repro.nn.optim", "Adam.step"),
    Target("nn.optim", "repro.nn.optim", "clip_grad_norm"),
    Target("features.encoder", "repro.features.encoder", "PairEncoder.encode",
           count=_arg_len(1)),
    Target("infer.predictor", "repro.infer.predictor", "BatchedPredictor.predict_proba",
           count=_result_len),
    Target("pipeline.engine", "repro.pipeline.engine", "LinkagePipeline.run"),
    Target("pipeline.index", "repro.pipeline.index", "MinHashLSHIndex.add_records"),
    Target("pipeline.index", "repro.pipeline.index", "InvertedTokenIndex.add_records"),
    Target("pipeline.index", "repro.pipeline.index", "InitialsKeyIndex.add_records"),
    Target("pipeline.index", "repro.pipeline.index", "InvertedTokenIndex.bucket_keys"),
    Target("pipeline.index", "repro.pipeline.index", "InvertedTokenIndex.probe_keys"),
    Target("pipeline.index", "repro.pipeline.index", "InvertedTokenIndex.preview_one"),
    Target("pipeline.index", "repro.pipeline.index", "InvertedTokenIndex.commit_one"),
    Target("pipeline.candidates", "repro.pipeline.candidates",
           "CandidateGenerationStage.add_records"),
    Target("pipeline.candidates", "repro.pipeline.candidates",
           "CandidateGenerationStage.generate",
           count=lambda args, result: len(result.pairs)),
    Target("pipeline.scoring", "repro.pipeline.scoring", "ScoringStage.run"),
    Target("pipeline.clustering", "repro.pipeline.clustering", "ClusteringStage.run"),
    Target("pipeline.clustering", "repro.pipeline.clustering", "order_match_edges",
           count=_result_len),
    Target("pipeline.clustering", "repro.pipeline.clustering", "apply_match_edges"),
    Target("pipeline.clustering", "repro.pipeline.clustering", "UnionFind.groups"),
    Target("serve.service", "repro.serve.service", "LinkageService.upsert"),
    Target("serve.service", "repro.serve.service", "LinkageService.query"),
    Target("serve.store", "repro.serve.store", "EntityStore.upsert"),
    Target("serve.store", "repro.serve.store", "EntityStore.query"),
    Target("serve.coalescer", "repro.serve.coalescer", "RequestCoalescer.score",
           count=_arg_len(1)),
    Target("storage.engine", "repro.storage.engine", "Storage.upsert"),
    Target("storage.engine", "repro.storage.engine", "Storage.snapshot"),
    Target("storage.engine", "repro.storage.engine", "Storage.recover"),
    Target("storage.wal", "repro.storage.wal", "WriteAheadLog.append",
           count=lambda args, result: result.nbytes),
    Target("storage.snapshots", "repro.storage.snapshots", "SnapshotManager.take"),
)


class Tracer:
    """Install wrappers around :data:`TARGETS`, collect spans, restore."""

    def __init__(self, targets: Sequence[Target] = TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: List[Span] = []
        self.enabled = False
        self._local = threading.local()
        self._batches = itertools.count()
        # (holder, attribute, original) for every rebinding, in install order.
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Rebind every target to its wrapper (recording stays off).

        A module that imports a wrapped function by name *after* this call
        binds the wrapper and keeps it past :meth:`uninstall`, so import what
        the run needs first; the targets' own modules are imported here.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for target in self.targets:
            importlib.import_module(target.module)
        for target in self.targets:
            holders = _holders(target)
            original = holders[0][2]
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = type(original)(self._wrap(target, original.__func__))
            else:
                wrapper = self._wrap(target, original)
            for holder, attr, _ in holders:
                setattr(holder, attr, wrapper)
                self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        """Put every original back (identical objects, reverse order)."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def patched(self) -> List[Tuple[object, str, object]]:
        """``(holder, attribute, original)`` of every live rebinding."""
        return list(self._patches)

    def set_op(self, op: object) -> None:
        """Tag the spans this thread opens from now on with request id ``op``."""
        self._local.op = op

    # ------------------------------------------------------------------ #
    def _wrap(self, target: Target, fn: Callable) -> Callable:
        layer, name, count = target.layer, target.qualname, target.count
        local, spans, clock = self._local, self.spans, time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            if stack:
                parent = stack[-1]
                op = parent.op
            else:
                parent = None
                op = local.__dict__.get("op")
                if op is None:
                    op = f"batch-{next(self._batches)}"
            span = Span(layer, name, parent=parent, thread=get_ident(), op=op)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
            if count is not None:
                span.count = count(args, result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    def write(self, path: Path, meta: Optional[Dict[str, object]] = None) -> None:
        """Write the spans as JSON (ids are positions in completion order)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        origin = min((span.start for span in self.spans), default=0.0)
        payload = {
            "meta": meta or {},
            "columns": ["id", "layer", "name", "start_s", "end_s", "parent",
                        "thread", "op", "count"],
            "spans": [[index, span.layer, span.name, span.start - origin,
                       span.end - origin,
                       ids.get(id(span.parent)) if span.parent is not None else None,
                       span.thread, span.op, span.count]
                      for index, span in enumerate(self.spans)],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


def _holders(target: Target) -> List[Tuple[object, str, object]]:
    """Every ``(namespace, attribute, original)`` that binds ``target``."""
    module = importlib.import_module(target.module)
    head, _, attr = target.qualname.rpartition(".")
    if head:
        cls = getattr(module, head)
        owner = next(klass for klass in cls.__mro__ if attr in vars(klass))
        return [(owner, attr, vars(owner)[attr])]
    original = getattr(module, attr)
    return [(holder, attr, original)
            for name, holder in sorted(sys.modules.items())
            if holder is not None and name.split(".")[0] == "repro"
            and vars(holder).get(attr) is original]


# ---------------------------------------------------------------------- #
# Span arithmetic
# ---------------------------------------------------------------------- #
def self_seconds(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.seconds
    return [span.seconds - covered[id(span)] for span in spans]


def has_ancestor(span: Span, name: str) -> bool:
    """Whether a span named ``name`` encloses ``span`` on its thread."""
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def inclusive_seconds(spans: Iterable[Span], names: Sequence[str],
                      where: Optional[Callable[[Span], bool]] = None) -> float:
    """Total duration of the spans called ``names`` that satisfy ``where``."""
    wanted = set(names)
    return sum(span.seconds for span in spans
               if span.name in wanted and (where is None or where(span)))
