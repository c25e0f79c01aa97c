"""The online linkage service: entity store + request coalescer, wired.

:class:`LinkageService` is the deployable front end of the serving
subsystem.  It owns

* a :class:`~repro.serve.RequestCoalescer` whose executor thread is the only
  caller of the model (autograd mode is process-wide, so model forwards must
  be single-threaded), and
* an :class:`~repro.serve.EntityStore` whose scoring is routed through that
  coalescer — so concurrent queries *and* the upsert path share the same
  fused micro-batches.

Clients call :meth:`upsert` / :meth:`query` from their own threads; there is
no internal worker pool.  Upserts serialize on the store lock (single-writer
semantics — batch parity is defined over one input order), while queries from
many threads fuse into whatever batch the executor drains next: a request
waits only while another batch is in flight, never on a timer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # layering: repro.storage sits above repro.serve
    from ..storage.engine import Storage

from .. import obs
from ..data.records import Record
from ..infer.predictor import BatchedPredictor
from ..obs.slo import (SLOConfig, SLOMonitor, default_service_objectives,
                       worst_status)
from ..resilience import faults
from ..resilience.breaker import CircuitBreaker, CircuitOpen
from .coalescer import RequestCoalescer
from .store import EntityStore, QueryMatch, StoreConfig

__all__ = ["LinkageService", "ServiceConfig", "UpsertResult", "QueryResult"]


@dataclass(frozen=True)
class ServiceConfig:
    """Coalescing, ranking and degradation knobs of the service.

    ``breaker_failure_threshold`` consecutive scoring failures open the
    circuit breaker around the coalescer/model executor; while it is open
    (and for failed half-open probes after ``breaker_recovery_seconds``),
    queries fall back to index-only degraded answers and upserts fail fast
    with :class:`~repro.resilience.CircuitOpen` — see ``docs/resilience.md``.
    """

    max_batch_size: int = 64
    max_queue_size: int = 4096
    top_k: int = 5
    request_timeout: Optional[float] = 30.0
    breaker_failure_threshold: int = 5
    breaker_recovery_seconds: float = 30.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "max_batch_size": self.max_batch_size,
            "max_queue_size": self.max_queue_size,
            "top_k": self.top_k,
            "request_timeout": self.request_timeout,
            "breaker_failure_threshold": self.breaker_failure_threshold,
            "breaker_recovery_seconds": self.breaker_recovery_seconds,
        }


@dataclass(frozen=True)
class UpsertResult:
    """Outcome of one online upsert."""

    record_id: str
    entity_id: str
    seconds: float


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one online query.

    ``degraded=True`` marks an answer produced by the index-only fallback
    (:meth:`EntityStore.query_degraded`) while the scoring path was
    unavailable — its scores are collision counts, not probabilities.
    """

    matches: List[QueryMatch]
    seconds: float
    degraded: bool = False

    @property
    def best(self) -> Optional[QueryMatch]:
        return self.matches[0] if self.matches else None


class LinkageService:
    """Serve `upsert(record) -> entity` and `query(record) -> candidates`.

    Parameters
    ----------
    predictor:
        The fitted :class:`~repro.infer.BatchedPredictor`.  Only the
        coalescer's executor thread calls it.
    store_config / service_config:
        Knobs for the store and the coalescing front end.
    store:
        An existing store to serve (e.g. restored from a snapshot); its
        scoring is re-bound to this service's coalescer.  Default: a fresh
        store built from ``store_config``.
    storage:
        A :class:`repro.storage.Storage` engine to serve durably: upserts
        route through it (WAL append + auto-snapshot cadence), its store
        becomes the service's store, and per-append fsync latencies feed
        the ``wal_fsync_latency`` SLO.  Mutually exclusive with ``store`` /
        ``store_config``.
    slo_objectives:
        The SLO catalog :meth:`health` evaluates (see
        :func:`repro.obs.slo.default_service_objectives` for the defaults).
        Recording is always on — a few deque appends per request — so health
        reports work without enabling full telemetry.
    """

    def __init__(self, predictor: BatchedPredictor,
                 store_config: Optional[StoreConfig] = None,
                 service_config: Optional[ServiceConfig] = None,
                 store: Optional[EntityStore] = None,
                 storage: Optional["Storage"] = None,
                 slo_objectives: Optional[Sequence[SLOConfig]] = None) -> None:
        if store is not None and store_config is not None:
            raise ValueError("pass either an existing store or a store_config, not both")
        if storage is not None and (store is not None or store_config is not None):
            raise ValueError("pass either a storage engine or a "
                             "store/store_config, not both")
        self.predictor = predictor
        self.config = service_config or ServiceConfig()
        self.slo = SLOMonitor(default_service_objectives()
                              if slo_objectives is None else slo_objectives)
        self.coalescer = RequestCoalescer(
            predictor.predict_proba,
            max_batch_size=self.config.max_batch_size,
            max_queue_size=self.config.max_queue_size,
        )
        self.storage = storage
        if storage is not None:
            self.store = storage.store
        else:
            self.store = store if store is not None else EntityStore(config=store_config)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            recovery_seconds=self.config.breaker_recovery_seconds)
        self._degraded_queries = 0
        self._deadline = threading.local()
        self._started_at: Optional[float] = None
        # Until start(): scoring refuses with CoalescerClosed.
        self.store.bind_score_fn(self.coalescer.score)

    def _score_guarded(self, pairs):
        """The one gate onto the scoring path: breaker around the coalescer.

        Every model-backed scoring call (queries and upserts alike) passes
        through here, so ``breaker_failure_threshold`` consecutive scoring
        errors — wherever they originate — trip the breaker, and the first
        successful half-open probe closes it again.
        """
        if not self.breaker.allow():
            raise CircuitOpen("serving scoring path is open "
                              "(circuit breaker tripped)")
        try:
            faults.check("serve.score", pairs=len(pairs))
            scores = self.coalescer.score(pairs, timeout=self._remaining())
        except Exception:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return scores

    # ------------------------------------------------------------------ #
    # Deadline propagation (thread-local: requests run on caller threads)
    # ------------------------------------------------------------------ #
    def _set_deadline(self, timeout: Optional[float]) -> None:
        self._deadline.until = (time.monotonic() + timeout
                                if timeout is not None else None)

    def _clear_deadline(self) -> None:
        self._deadline.until = None

    def _remaining(self) -> Optional[float]:
        """Seconds the current request may still spend waiting on scores.

        The minimum of the per-request deadline (set by ``query``/``upsert``
        ``timeout=``) and the service-wide ``request_timeout``; raises
        ``TimeoutError`` when the request's budget is already exhausted, so
        a late request fails before queueing pairs it can never collect.
        """
        until = getattr(self._deadline, "until", None)
        if until is None:
            return self.config.request_timeout
        remaining = until - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("request deadline exhausted before scoring")
        if self.config.request_timeout is None:
            return remaining
        return min(remaining, self.config.request_timeout)

    # ------------------------------------------------------------------ #
    # SLO recording (always on; a custom catalog may drop objectives, so
    # every recording site checks membership first)
    # ------------------------------------------------------------------ #
    def _record_queue_saturation(self, saturation: float) -> None:
        if "coalescer_queue_saturation" in self.slo:
            self.slo.record("coalescer_queue_saturation", saturation)

    def _record_wal_fsync(self, seconds: float) -> None:
        if "wal_fsync_latency" in self.slo:
            self.slo.record("wal_fsync_latency", seconds)

    def _record_request(self, objective: str, seconds: float, ok: bool) -> None:
        if ok and objective in self.slo:
            self.slo.record(objective, seconds)
        if "serve_error_rate" in self.slo:
            self.slo.record("serve_error_rate", 0.0 if ok else 1.0, good=ok)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "LinkageService":
        self.store.bind_score_fn(self._score_guarded)
        self.coalescer.queue_sample_fn = self._record_queue_saturation
        if self.storage is not None:
            self.storage.fsync_listener = self._record_wal_fsync
        self.coalescer.start()
        self._started_at = time.monotonic()
        return self

    def stop(self) -> None:
        """Stop scoring and unbind the callbacks ``start()`` bound.

        Those are bound methods of the service held by objects it owns —
        reference cycles.  Without them a dropped service, and the predictor
        and trainer behind it, is freed at once instead of at some
        generation-2 collection.  The store is left scoring through the
        stopped coalescer, which refuses with ``CoalescerClosed``.
        """
        self.coalescer.stop()
        self.store.bind_score_fn(self.coalescer.score)
        self.coalescer.queue_sample_fn = None
        if self.storage is not None:
            self.storage.fsync_listener = None

    def __enter__(self) -> "LinkageService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Request handlers
    # ------------------------------------------------------------------ #
    def upsert(self, record: Record,
               timeout: Optional[float] = None) -> UpsertResult:
        """Link one record online; returns its entity id and latency.

        ``timeout`` bounds the whole request: the remaining budget is
        propagated to the scoring wait inside the store's upsert.  An upsert
        cannot degrade — committing a record without model scores would
        corrupt the store — so an open breaker (:class:`CircuitOpen`) or a
        read-only storage engine (:class:`~repro.storage.StorageReadOnly`)
        propagates to the caller as a fast failure.
        """
        start = time.perf_counter()
        self._set_deadline(timeout)
        try:
            with obs.trace("serve.upsert", record_id=record.record_id) as span:
                entity_id = (self.storage.upsert(record)
                             if self.storage is not None
                             else self.store.upsert(record))
                span.set("entity_id", entity_id)
        except BaseException:
            self._record_request("serve_upsert_latency",
                                 time.perf_counter() - start, ok=False)
            raise
        finally:
            self._clear_deadline()
        seconds = time.perf_counter() - start
        self._record_request("serve_upsert_latency", seconds, ok=True)
        return UpsertResult(record_id=record.record_id, entity_id=entity_id,
                            seconds=seconds)

    def query(self, record: Record, top_k: Optional[int] = None,
              timeout: Optional[float] = None) -> QueryResult:
        """Rank stored entities for a probe record; returns matches + latency.

        When the scoring path fails (breaker open, executor dead, deadline
        exhausted), the query does not error: it falls back to the store's
        index-only ranking and returns ``degraded=True`` — availability over
        score quality, with the degradation visible in the result, the
        ``resilience_degraded_queries_total`` counter and :meth:`health`.
        """
        start = time.perf_counter()
        k = self.config.top_k if top_k is None else top_k
        self._set_deadline(timeout)
        degraded = False
        try:
            with obs.trace("serve.query", record_id=record.record_id) as span:
                try:
                    matches = self.store.query(record, top_k=k)
                except Exception:
                    matches = self.store.query_degraded(record, top_k=k)
                    degraded = True
                    self._degraded_queries += 1
                    obs.counter("resilience_degraded_queries_total",
                                "Queries answered from index probes alone"
                                ).inc()
                span.set("matches", len(matches))
                span.set("degraded", degraded)
        except BaseException:
            self._record_request("serve_query_latency",
                                 time.perf_counter() - start, ok=False)
            raise
        finally:
            self._clear_deadline()
        seconds = time.perf_counter() - start
        self._record_request("serve_query_latency", seconds, ok=True)
        return QueryResult(matches=matches, seconds=seconds, degraded=degraded)

    def snapshot(self) -> Path:
        """Publish a compacted snapshot into the storage engine's data
        directory (:meth:`repro.storage.Storage.snapshot`)."""
        if self.storage is None:
            raise ValueError("snapshot() needs a storage engine "
                             "(LinkageService(storage=...))")
        return self.storage.snapshot()

    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, object]:
        """Evaluate every SLO; ``status`` is the worst objective's verdict.

        See :meth:`repro.obs.slo.SLOMonitor.health` for the shape — this
        adds the service's uptime and a ``resilience`` section (breaker
        state, degraded-query count, storage writability), folding the
        degradation signals into ``status``: an open breaker or a read-only
        storage engine reports ``breached`` even while every latency SLO
        passes — the service is up, but not delivering full answers.
        """
        report = self.slo.health()
        breaker = self.breaker.stats()
        storage_read_only = bool(self.storage is not None
                                 and self.storage.read_only)
        report["resilience"] = {
            "breaker": breaker,
            "degraded_queries": self._degraded_queries,
            "storage_read_only": storage_read_only,
        }
        # Neutral is "no_data", not "pass": a healthy breaker must never
        # lift a no-traffic report's overall verdict.
        if breaker["state"] == "open" or storage_read_only:
            resilience_status = "breached"
        elif breaker["state"] == "half_open":
            resilience_status = "burning"
        else:
            resilience_status = "no_data"
        report["status"] = worst_status(str(report["status"]),
                                        resilience_status)
        report["uptime_seconds"] = (time.monotonic() - self._started_at
                                    if self._started_at is not None else 0.0)
        return report

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Nested store / coalescer / predictor counters."""
        uptime = (time.monotonic() - self._started_at
                  if self._started_at is not None else 0.0)
        service = {"uptime_seconds": uptime,
                   "max_batch_size": float(self.config.max_batch_size),
                   "max_queue_size": float(self.config.max_queue_size),
                   "degraded_queries": float(self._degraded_queries)}
        report = {
            "service": service,
            "store": self.store.stats(),
            "coalescer": self.coalescer.stats(),
            "predictor": {key: float(value)
                          for key, value in self.predictor.stats().items()},
        }
        if self.storage is not None:
            report["storage"] = {key: float(value)
                                 for key, value in self.storage.stats().items()}
        return report
