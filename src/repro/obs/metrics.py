"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the recording half of :mod:`repro.obs`.  Instrument names
follow the ``subsystem_name_unit`` convention (``store_upsert_seconds``,
``cache_hits_total``); a *family* is one name plus its kind and help string,
and each distinct label set under a family is one *series* holding its own
lock — concurrent recorders on different series never contend, and recording
on one series is a single short critical section.

Telemetry is **off by default**: :func:`active_registry` returns ``None`` and
the module-level helpers (:func:`counter`, :func:`gauge`, :func:`histogram`)
hand back a shared no-op instrument whose methods do nothing, so instrumented
code pays only a global read and a method call when disabled.  Hot paths that
cannot even afford that keep a :class:`BoundHandles` and skip instrumentation
entirely while it resolves to ``None``.

``snapshot()`` returns the whole registry as plain JSON-able dicts (the
export and dashboard format); ``exposition()`` renders the standard
Prometheus text format for scrape-style consumers.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "BoundHandles",
    "NOOP_INSTRUMENT", "active_registry", "set_active_registry",
    "counter", "gauge", "histogram",
    "DEFAULT_LATENCY_BUCKETS", "DEFAULT_SIZE_BUCKETS",
    "METRIC_NAME_PATTERN", "METRIC_SUBSYSTEMS", "METRIC_UNITS",
    "valid_metric_name",
]

# Latency buckets in seconds: sub-millisecond serving up to slow batch stages.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

# Size buckets (pairs per batch, records per bucket, ...): powers of two.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
)

# The repo-wide naming convention, asserted by a lint test: a known subsystem
# prefix, a descriptive middle, and a unit suffix.
METRIC_SUBSYSTEMS = ("pipeline", "index", "serve", "store", "storage",
                     "coalescer", "cache", "infer", "training", "obs",
                     "resilience")
METRIC_UNITS = ("total", "seconds", "bytes", "pairs", "records", "entries",
                "ratio", "count", "ops")
METRIC_NAME_PATTERN = re.compile(
    r"^(%s)_[a-z0-9]+(?:_[a-z0-9]+)*_(%s)$"
    % ("|".join(METRIC_SUBSYSTEMS), "|".join(METRIC_UNITS)))

_BASIC_NAME = re.compile(r"^[a-z][a-z0-9_]*$")
_LABEL_NAME = re.compile(r"^[a-z][a-z0-9_]*$")


def valid_metric_name(name: str) -> bool:
    """True when ``name`` follows the ``subsystem_name_unit`` convention."""
    return METRIC_NAME_PATTERN.match(name) is not None


LabelPairs = Tuple[Tuple[str, str], ...]


def _normalize_labels(labels: Optional[Mapping[str, object]]) -> LabelPairs:
    if not labels:
        return ()
    for key in labels:
        if not _LABEL_NAME.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """Monotonically increasing count for one labeled series."""

    kind = "counter"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down; the high watermark is kept alongside.

    ``set_max`` is the watermark-style update (only ever raises the value),
    used for e.g. queue-depth high watermarks.
    """

    kind = "gauge"
    __slots__ = ("name", "labels", "_lock", "_value", "_max")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0
        self._max = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            if self._value > self._max:
                self._max = self._value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            if self._value > self._max:
                self._max = self._value

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is currently lower."""
        with self._lock:
            if value > self._value:
                self._value = float(value)
            if value > self._max:
                self._max = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def max_value(self) -> float:
        """The largest value this gauge ever held (high watermark)."""
        with self._lock:
            return self._max

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"value": self._value, "max": self._max}


class Histogram:
    """Fixed-bucket histogram: cumulative-style buckets plus sum and count.

    ``buckets`` are the finite upper bounds; one implicit ``+Inf`` bucket
    catches the rest.  ``observe`` is one bisect plus three updates under the
    series lock.  ``sum`` accumulates observations in arrival order, so for a
    single-threaded recorder it is bit-identical to ``sum(values)`` over the
    same sequence — the property the ``TrainingHistory`` migration relies on.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "_lock", "_counts", "_sum",
                 "_count", "_min", "_max")

    def __init__(self, name: str, labels: LabelPairs = (),
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram buckets must be strictly increasing "
                             f"and non-empty, got {buckets!r}")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "buckets": [[bound, count] for bound, count
                            in zip(self.bounds, self._counts)]
                           + [["+Inf", self._counts[-1]]],
            }


class _NoopInstrument:
    """Shared do-nothing stand-in returned while telemetry is disabled."""

    __slots__ = ()
    kind = "noop"
    name = ""
    labels: LabelPairs = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0


NOOP_INSTRUMENT = _NoopInstrument()


class _Family:
    """One metric name: kind, help text, bucket layout, series per label set."""

    __slots__ = ("name", "kind", "help", "buckets", "series")

    def __init__(self, name: str, kind: str, help: str,
                 buckets: Optional[Tuple[float, ...]]) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.series: Dict[LabelPairs, object] = {}


class MetricsRegistry:
    """Thread-safe home of every metric family and its labeled series.

    Registration (``counter``/``gauge``/``histogram``) is idempotent: the
    same name + labels always returns the same instrument, so call sites can
    simply re-request their handles.  Re-registering a name as a different
    kind (or a histogram with different buckets) raises — one name means one
    metric, process-wide.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def _family(self, name: str, kind: str, help: str,
                buckets: Optional[Tuple[float, ...]] = None) -> _Family:
        if not _BASIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r} (lowercase "
                             f"[a-z0-9_], starting with a letter)")
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help, buckets)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ValueError(f"metric {name!r} is already registered as a "
                             f"{family.kind}, not a {kind}")
        if kind == "histogram" and buckets is not None and family.buckets != buckets:
            raise ValueError(f"histogram {name!r} is already registered with "
                             f"different buckets")
        if help and not family.help:
            family.help = help
        return family

    def counter(self, name: str, help: str = "",
                labels: Optional[Mapping[str, object]] = None) -> Counter:
        key = _normalize_labels(labels)
        with self._lock:
            family = self._family(name, "counter", help)
            series = family.series.get(key)
            if series is None:
                series = family.series[key] = Counter(name, key)
            return series  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              labels: Optional[Mapping[str, object]] = None) -> Gauge:
        key = _normalize_labels(labels)
        with self._lock:
            family = self._family(name, "gauge", help)
            series = family.series.get(key)
            if series is None:
                series = family.series[key] = Gauge(name, key)
            return series  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Mapping[str, object]] = None,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        key = _normalize_labels(labels)
        bounds = tuple(float(bound) for bound in buckets)
        with self._lock:
            family = self._family(name, "histogram", help, bounds)
            series = family.series.get(key)
            if series is None:
                series = family.series[key] = Histogram(name, key, bounds)
            return series  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        """Every registered family name, sorted."""
        with self._lock:
            return sorted(self._families)

    def snapshot(self) -> List[Dict[str, object]]:
        """Every series as a JSON-able dict (the export/dashboard format)."""
        with self._lock:
            families = [(family, list(family.series.items()))
                        for family in self._families.values()]
        entries: List[Dict[str, object]] = []
        for family, series_items in sorted(families, key=lambda item: item[0].name):
            for labels, series in sorted(series_items, key=lambda item: item[0]):
                entry: Dict[str, object] = {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "labels": dict(labels),
                }
                entry.update(series.snapshot())  # type: ignore[attr-defined]
                entries.append(entry)
        return entries

    def exposition(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: List[str] = []
        for entry in self.snapshot():
            name = entry["name"]
            if not lines or not lines[-1].startswith(f"# TYPE {name} "):
                if entry["help"]:
                    lines.append(f"# HELP {name} {entry['help']}")
                lines.append(f"# TYPE {name} {entry['kind']}")
            label_text = _format_labels(entry["labels"])  # type: ignore[arg-type]
            if entry["kind"] == "histogram":
                cumulative = 0
                for bound, count in entry["buckets"]:  # type: ignore[union-attr]
                    cumulative += count
                    bucket_labels = dict(entry["labels"])  # type: ignore[arg-type]
                    bucket_labels["le"] = (bound if isinstance(bound, str)
                                           else format(bound, "g"))
                    lines.append(f"{name}_bucket{_format_labels(bucket_labels)} "
                                 f"{cumulative}")
                lines.append(f"{name}_sum{label_text} {entry['sum']:g}")
                lines.append(f"{name}_count{label_text} {entry['count']}")
            else:
                lines.append(f"{name}{label_text} {entry['value']:g}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in sorted(labels.items()))
    return "{" + inner + "}"


# --------------------------------------------------------------------------- #
# Active-registry plumbing (the on/off switch lives in repro.obs.__init__)
# --------------------------------------------------------------------------- #
_ACTIVE: Optional[MetricsRegistry] = None


def active_registry() -> Optional[MetricsRegistry]:
    """The currently enabled registry, or ``None`` while telemetry is off."""
    return _ACTIVE


def set_active_registry(registry: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Install (or clear, with ``None``) the active registry; returns the
    previous one.  Use :func:`repro.obs.enable` / :func:`repro.obs.disable`
    unless you are wiring a custom lifecycle."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


def counter(name: str, help: str = "",
            labels: Optional[Mapping[str, object]] = None):
    """The named counter from the active registry, or a no-op when disabled."""
    registry = _ACTIVE
    if registry is None:
        return NOOP_INSTRUMENT
    return registry.counter(name, help, labels)


def gauge(name: str, help: str = "",
          labels: Optional[Mapping[str, object]] = None):
    """The named gauge from the active registry, or a no-op when disabled."""
    registry = _ACTIVE
    if registry is None:
        return NOOP_INSTRUMENT
    return registry.gauge(name, help, labels)


def histogram(name: str, help: str = "",
              labels: Optional[Mapping[str, object]] = None,
              buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
    """The named histogram from the active registry, or a no-op when disabled."""
    registry = _ACTIVE
    if registry is None:
        return NOOP_INSTRUMENT
    return registry.histogram(name, help, labels, buckets)


class BoundHandles:
    """Cache of instrument handles that follows the active registry.

    Hot paths (the encoding cache, the coalescer) cannot afford a registry
    lookup per event; they hold one ``BoundHandles`` whose ``get()`` is a
    single identity check in the steady state.  The ``binder`` callback maps
    a registry to whatever handle bundle the call site wants (a tuple, a
    namedtuple, ...); ``get()`` returns ``None`` while telemetry is disabled,
    so the caller's fast path is ``handles = self._obs.get(); if handles:``.

    Rebinding races are benign: instruments are registry-level singletons, so
    two threads that rebind concurrently end up with the same handles.
    """

    __slots__ = ("_binder", "_registry", "_handles")
    _UNBOUND = object()

    def __init__(self, binder: Callable[[MetricsRegistry], object]) -> None:
        self._binder = binder
        self._registry: object = BoundHandles._UNBOUND
        self._handles: Optional[object] = None

    def get(self) -> Optional[object]:
        registry = _ACTIVE
        if registry is not self._registry:
            self._handles = None if registry is None else self._binder(registry)
            self._registry = registry
        return self._handles
