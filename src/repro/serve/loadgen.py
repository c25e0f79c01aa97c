"""Load generation and latency reporting for the online linkage service.

An online service is judged by its latency *distribution* under
concurrency, not by wall-clock totals.  This module replays
a record stream against a :class:`~repro.serve.LinkageService` — upserts
sequentially (single-writer semantics), queries from ``num_workers``
concurrent threads — and reports throughput plus p50/p95/p99 latencies.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..data.records import Record
from ..obs.stats import percentiles
from .service import LinkageService

__all__ = ["LoadReport", "replay_upserts", "replay_queries"]


@dataclass
class LoadReport:
    """Throughput + latency distribution of one replay run."""

    operation: str
    operations: int
    num_workers: int
    seconds: float
    latencies: List[float] = field(default_factory=list)
    errors: int = 0

    @property
    def throughput(self) -> float:
        """Operations per second of wall-clock."""
        return self.operations / self.seconds if self.seconds > 0 else 0.0

    def percentiles(self) -> Dict[str, float]:
        return percentiles(self.latencies)


def replay_upserts(service: LinkageService, records: Sequence[Record]) -> LoadReport:
    """Stream ``records`` through ``service.upsert`` one at a time.

    Upserts are deliberately sequential: batch parity is defined over one
    input order, and the store serializes writers anyway.  Per-record latency
    is still measured, so ingest percentiles land in the report.
    """
    latencies: List[float] = []
    start = time.perf_counter()
    for record in records:
        latencies.append(service.upsert(record).seconds)
    seconds = time.perf_counter() - start
    return LoadReport(operation="upsert", operations=len(records), num_workers=1,
                      seconds=seconds, latencies=latencies)


def replay_queries(service: LinkageService, records: Sequence[Record],
                   num_workers: int = 4, top_k: Optional[int] = None) -> LoadReport:
    """Fire ``records`` as concurrent queries from ``num_workers`` threads.

    Workers pull from one shared cursor, so the arrival process genuinely
    interleaves and the coalescer sees concurrent submissions to fuse.
    """
    if num_workers <= 0:
        raise ValueError(f"num_workers must be positive, got {num_workers}")
    cursor_lock = threading.Lock()
    cursor = iter(records)
    results: List[List[Tuple[float, bool]]] = [[] for _ in range(num_workers)]

    def worker(slot: List[Tuple[float, bool]]) -> None:
        while True:
            with cursor_lock:
                record = next(cursor, None)
            if record is None:
                return
            try:
                result = service.query(record, top_k=top_k)
                slot.append((result.seconds, True))
            except Exception:
                slot.append((0.0, False))

    threads = [threading.Thread(target=worker, args=(results[i],), daemon=True)
               for i in range(num_workers)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start

    latencies = [latency for slot in results for latency, ok in slot if ok]
    errors = sum(1 for slot in results for _, ok in slot if not ok)
    return LoadReport(operation="query", operations=len(latencies),
                      num_workers=num_workers, seconds=seconds,
                      latencies=latencies, errors=errors)
