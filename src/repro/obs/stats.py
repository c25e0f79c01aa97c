"""Shared statistics helpers: percentiles, Gini coefficient, bucket skew.

This is the one home for the percentile math (``serve/loadgen.py`` and the
dashboard report through it), plus the skew measures (Gini over bucket
sizes, top-k hottest buckets) the blocking indexes report.
Everything here is numpy-only and side-effect free.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["PERCENTILE_POINTS", "percentiles", "histogram_percentiles",
           "gini", "top_k_buckets", "bucket_skew"]

PERCENTILE_POINTS = (50, 95, 99)


def percentiles(samples: Sequence[float],
                points: Sequence[int] = PERCENTILE_POINTS) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` of a sample list.

    Empty input yields zeros, so reports stay JSON-clean at smoke scales.
    """
    if not len(samples):
        return {f"p{point}": 0.0 for point in points}
    values = np.percentile(np.asarray(samples, dtype=np.float64), list(points))
    return {f"p{point}": float(value) for point, value in zip(points, values)}


def histogram_percentiles(bounds: Sequence[float], counts: Sequence[int],
                          points: Sequence[int] = PERCENTILE_POINTS) -> Dict[str, float]:
    """Percentiles estimated from fixed-bucket histogram counts.

    ``bounds`` are the finite upper bucket bounds and ``counts`` the per-bucket
    counts, with one extra trailing count for the +Inf bucket (the layout of
    :meth:`repro.obs.Histogram.snapshot`).  Within a bucket the estimate
    interpolates linearly between the bucket's bounds; the +Inf bucket clamps
    to its lower bound.  Exact percentiles need raw samples — this is for
    dashboards reading exported histograms.
    """
    total = int(sum(counts))
    if total == 0:
        return {f"p{point}": 0.0 for point in points}
    lowers = [0.0] + [float(bound) for bound in bounds]
    uppers = [float(bound) for bound in bounds] + [float(bounds[-1]) if bounds else 0.0]
    result: Dict[str, float] = {}
    for point in points:
        rank = total * point / 100.0
        cumulative = 0
        value = uppers[-1]
        for index, count in enumerate(counts):
            if cumulative + count >= rank and count > 0:
                fraction = (rank - cumulative) / count
                value = lowers[index] + fraction * (uppers[index] - lowers[index])
                break
            cumulative += count
        result[f"p{point}"] = float(value)
    return result


def gini(sizes: Sequence[float]) -> float:
    """Gini coefficient of a size distribution, in [0, 1).

    0 means perfectly even buckets; values near 1 mean a few buckets hold
    nearly everything (the skew that serializes partitioned work).  Empty or
    all-zero input yields 0.
    """
    if not len(sizes):
        return 0.0
    values = np.sort(np.asarray(sizes, dtype=np.float64))
    total = float(values.sum())
    if total <= 0.0:
        return 0.0
    n = len(values)
    # Standard rank formulation: G = (2 * sum(i * x_i) / (n * sum(x))) - (n+1)/n
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float((2.0 * float(np.dot(ranks, values)) / (n * total)) - (n + 1.0) / n)


def top_k_buckets(sizes: Mapping[Hashable, int],
                  k: int = 5) -> List[Tuple[str, int]]:
    """The ``k`` largest buckets as ``(str(key), size)``, biggest first.

    Ties break on the stringified key, so the report is deterministic
    regardless of dict iteration order.
    """
    if k <= 0:
        return []
    ranked = sorted(((str(key), int(size)) for key, size in sizes.items()),
                    key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def bucket_skew(sizes: Mapping[Hashable, int], top_k: int = 5) -> Dict[str, object]:
    """Skew summary of one bucketed index: Gini, extremes, hottest buckets."""
    values = list(sizes.values())
    num_records = int(sum(values))
    return {
        "num_buckets": len(values),
        "num_records": num_records,
        "max_bucket_size": int(max(values)) if values else 0,
        "mean_bucket_size": (num_records / len(values)) if values else 0.0,
        "gini": gini(values),
        "hottest": top_k_buckets(sizes, k=top_k),
    }
