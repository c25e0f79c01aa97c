"""repro.obs — process-wide metrics, span tracing, and telemetry export.

The one observability layer shared by the batch pipeline, the online serve
path, and the trainer.  Three pieces:

* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges and fixed-bucket
  histograms with labeled series, a thread-safe registry, ``snapshot()`` and
  Prometheus-style ``exposition()``;
* **tracing** (:mod:`repro.obs.tracing`) — ``trace("stage", **attrs)``
  context manager building nested wall/CPU-timed span trees, one per
  pipeline run / serve request / training epoch;
* **export** (:mod:`repro.obs.export`) — JSONL dump/load of a whole
  telemetry session, rendered by ``python -m repro.obs``.

Telemetry is **disabled by default** and zero-cost while off: instrumented
code sees no-op instruments and no-op spans.  Turn it on for a scope::

    import repro.obs as obs

    with obs.telemetry() as session:
        result = pipeline.run(records)
    obs.write_export("run.jsonl", registry=session.registry,
                     collector=session.collector)

or process-wide with :func:`enable` / :func:`disable`.  Instrumented modules
import this package; this package imports only stdlib + numpy, so it can
never participate in an import cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from . import stats
from .export import (EXPORT_SCHEMA_VERSION, ExportError,
                     SUPPORTED_EXPORT_SCHEMAS, load_export, write_export)
from .metrics import (BoundHandles, Counter, DEFAULT_LATENCY_BUCKETS,
                      DEFAULT_SIZE_BUCKETS, Gauge, Histogram, MetricsRegistry,
                      NOOP_INSTRUMENT, active_registry, counter, gauge,
                      histogram, set_active_registry, valid_metric_name)
from .slo import (SLO, SLOConfig, SLOMonitor, default_service_objectives,
                  format_health, worst_status)
from .timeline import render_timeline, render_timelines, timeline_roots
from .tracing import (NOOP_SPAN, Span, TraceCollector, active_collector,
                      current_span, set_active_collector, trace)

__all__ = [
    "stats",
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "BoundHandles",
    "NOOP_INSTRUMENT", "active_registry", "counter", "gauge", "histogram",
    "valid_metric_name", "DEFAULT_LATENCY_BUCKETS", "DEFAULT_SIZE_BUCKETS",
    # tracing
    "Span", "TraceCollector", "NOOP_SPAN", "trace", "current_span",
    "active_collector",
    # export
    "write_export", "load_export", "ExportError",
    "EXPORT_SCHEMA_VERSION", "SUPPORTED_EXPORT_SCHEMAS",
    # slo
    "SLO", "SLOConfig", "SLOMonitor", "default_service_objectives",
    "format_health", "worst_status",
    # timeline
    "render_timeline", "render_timelines", "timeline_roots",
    # lifecycle
    "TelemetrySession", "enable", "disable", "enabled", "telemetry",
]


@dataclass(frozen=True)
class TelemetrySession:
    """The registry + collector pair one :func:`enable` call installed."""

    registry: MetricsRegistry
    collector: TraceCollector


def enable(max_trace_roots: int = 256) -> TelemetrySession:
    """Turn telemetry on process-wide (fresh registry + collector).

    Idempotent in spirit but not in state: every call installs a *new*
    registry/collector pair, dropping references to the previous ones.  Use
    :func:`telemetry` for scoped enablement that restores prior state.
    """
    session = TelemetrySession(registry=MetricsRegistry(),
                               collector=TraceCollector(max_roots=max_trace_roots))
    set_active_registry(session.registry)
    set_active_collector(session.collector)
    return session


def disable() -> None:
    """Turn telemetry off process-wide (instruments become no-ops)."""
    set_active_registry(None)
    set_active_collector(None)


def enabled() -> bool:
    """True while a registry is active."""
    return active_registry() is not None


@contextmanager
def telemetry(max_trace_roots: int = 256) -> Iterator[TelemetrySession]:
    """Enable telemetry for a ``with`` block, restoring prior state after.

    Yields the :class:`TelemetrySession`, whose registry/collector stay
    readable (for export or assertions) after the block exits — only the
    *active* state is restored, so enabled and disabled runs can interleave.
    """
    session = TelemetrySession(registry=MetricsRegistry(),
                               collector=TraceCollector(max_roots=max_trace_roots))
    previous_registry = set_active_registry(session.registry)
    previous_collector = set_active_collector(session.collector)
    try:
        yield session
    finally:
        set_active_registry(previous_registry)
        set_active_collector(previous_collector)
