"""Span tracing: nested wall/CPU-timed spans collected into trace trees.

A *span* covers one timed region (``trace("pipeline.run")``, a serve
request, a training epoch).  Spans nest through a thread-local stack, so a
``trace(...)`` opened while another is active becomes its child; when the
outermost span of a thread closes, the finished tree is handed to the
active :class:`TraceCollector`, a bounded deque of recent roots.

Like the metrics side, tracing is zero-cost-when-disabled: while no
collector is active, :func:`trace` yields a shared no-op span and touches
neither the clock nor the stack.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Optional

__all__ = ["Span", "TraceCollector", "NOOP_SPAN", "trace",
           "active_collector", "set_active_collector", "current_span"]


class Span:
    """One timed region: name, attributes, wall/CPU seconds, children."""

    __slots__ = ("name", "attributes", "started_at", "seconds", "cpu_seconds",
                 "children", "_wall_start", "_cpu_start")

    def __init__(self, name: str, attributes: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.started_at = time.time()
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.children: List["Span"] = []
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()

    def set(self, key: str, value: object) -> None:
        """Attach (or overwrite) one attribute on the open span."""
        self.attributes[key] = value

    def finish(self) -> None:
        self.seconds = time.perf_counter() - self._wall_start
        self.cpu_seconds = time.process_time() - self._cpu_start

    def to_dict(self) -> Dict[str, object]:
        """The span tree as plain JSON-able dicts (the export format)."""
        node: Dict[str, object] = {
            "name": self.name,
            "started_at": self.started_at,
            "seconds": self.seconds,
            "cpu_seconds": self.cpu_seconds,
        }
        if self.attributes:
            node["attributes"] = dict(self.attributes)
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node

    @classmethod
    def from_dict(cls, node: Dict[str, object]) -> "Span":
        """Rebuild a finished span tree from its :meth:`to_dict` form.

        The inverse of :meth:`to_dict` up to float round-tripping — used to
        adopt spans timed in another process (the sharded pipeline's
        ``sharded.worker`` chunks).  The rebuilt span is already finished:
        its clocks are not re-armed.
        """
        span = cls.__new__(cls)
        span.name = str(node["name"])
        span.attributes = dict(node.get("attributes") or {})  # type: ignore[arg-type]
        span.started_at = float(node.get("started_at", 0.0))  # type: ignore[arg-type]
        span.seconds = float(node.get("seconds", 0.0))  # type: ignore[arg-type]
        span.cpu_seconds = float(node.get("cpu_seconds", 0.0))  # type: ignore[arg-type]
        span.children = [cls.from_dict(child)
                         for child in node.get("children") or ()]  # type: ignore[union-attr]
        span._wall_start = 0.0
        span._cpu_start = 0.0
        return span


class _NoopSpan:
    """Shared do-nothing span yielded while tracing is disabled."""

    __slots__ = ()
    name = ""
    seconds = 0.0
    cpu_seconds = 0.0
    children: List[Span] = []
    attributes: Dict[str, object] = {}

    def set(self, key: str, value: object) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class TraceCollector:
    """Bounded store of recently finished root spans (newest last)."""

    def __init__(self, max_roots: int = 256) -> None:
        if max_roots <= 0:
            raise ValueError(f"max_roots must be positive, got {max_roots}")
        self._lock = threading.Lock()
        self._roots: Deque[Span] = deque(maxlen=max_roots)

    def add_root(self, span: Span) -> None:
        with self._lock:
            self._roots.append(span)

    def roots(self) -> List[Span]:
        with self._lock:
            return list(self._roots)

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._roots)


_ACTIVE: Optional[TraceCollector] = None
_STACKS = threading.local()


def active_collector() -> Optional[TraceCollector]:
    """The currently enabled collector, or ``None`` while tracing is off."""
    return _ACTIVE


def set_active_collector(collector: Optional[TraceCollector]) -> Optional[TraceCollector]:
    """Install (or clear) the active collector; returns the previous one.
    Use :func:`repro.obs.enable` / :func:`repro.obs.disable` normally."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = collector
    return previous


def _stack() -> List[Span]:
    stack = getattr(_STACKS, "spans", None)
    if stack is None:
        stack = _STACKS.spans = []
    return stack


def current_span() -> Optional[Span]:
    """The innermost open span on this thread, or ``None``."""
    if _ACTIVE is None:
        return None
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def trace(name: str, **attributes: object) -> Iterator[Span]:
    """Open a span named ``name`` for the duration of the ``with`` block.

    Nested calls on the same thread build a tree; the outermost span is
    handed to the active collector when it closes.  The collector captured
    at entry is the one that receives the root, so a tree opened inside
    :func:`repro.obs.telemetry` lands in that context's collector even if
    telemetry toggles mid-span.  Exceptions propagate; the span is still
    finished and recorded, tagged with ``error`` = exception class name.
    """
    collector = _ACTIVE
    if collector is None:
        yield NOOP_SPAN  # type: ignore[misc]
        return
    span = Span(name, attributes)
    stack = _stack()
    stack.append(span)
    try:
        yield span
    except BaseException as exc:
        span.set("error", type(exc).__name__)
        raise
    finally:
        span.finish()
        stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            collector.add_root(span)
