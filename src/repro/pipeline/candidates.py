"""Candidate generation: union index hits into deduplicated cross-source pairs.

The stage owns the indexes and the ingested record list.  Records stream in
via :meth:`CandidateGenerationStage.add_records` (each batch is forwarded to
every index's bulk ``add_records``); :meth:`generate` then unions the
indexes' position-pair arrays, orients and dedupes them on record-id ranks
in a few array ops, hands the pairs on as those position columns (a
:class:`~repro.data.records.PairColumns` view) and computes blocking-quality
statistics (recall against ``entity_id`` ground truth and the pair-reduction
ratio against full cross-source enumeration).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..data.records import EntityPair, PairColumns, Record, record_id_ranks
from .index import _run_starts, _sorted_unique, build_blocking_indexes

__all__ = ["CandidateGenerationStage", "CandidateResult", "ground_truth_pairs",
           "possible_cross_source_pairs"]


def ground_truth_pairs(records: Sequence[Record],
                       cross_source_only: bool = True) -> Set[Tuple[str, str]]:
    """True matching record-id pairs derived from ``entity_id`` ground truth."""
    by_entity: Dict[str, List[Record]] = defaultdict(list)
    for record in records:
        if record.entity_id is not None:
            by_entity[record.entity_id].append(record)
    truth: Set[Tuple[str, str]] = set()
    for group in by_entity.values():
        for left, right in combinations(group, 2):
            if cross_source_only and left.source == right.source:
                continue
            key = (left.record_id, right.record_id)
            truth.add(key if key[0] <= key[1] else (key[1], key[0]))
    return truth


def possible_cross_source_pairs(records: Sequence[Record],
                                cross_source_only: bool = True) -> int:
    """How many record pairs full enumeration would compare."""
    total = len(records) * (len(records) - 1) // 2
    if not cross_source_only:
        return total
    per_source = Counter(record.source for record in records)
    within = sum(count * (count - 1) // 2 for count in per_source.values())
    return total - within


@dataclass
class CandidateResult:
    """Candidate pairs plus the blocking-quality statistics of the stage.

    :meth:`CandidateGenerationStage.generate` gives ``pairs`` as a
    :class:`~repro.data.records.PairColumns` view over the ingested records:
    the pipeline scores and clusters its position columns, and an
    :class:`EntityPair` is built only when a caller indexes or iterates it.
    """

    pairs: Sequence[EntityPair]
    stats: Dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.pairs)


class CandidateGenerationStage:
    """Union one or more indexes into a deduplicated candidate-pair stream.

    Parameters
    ----------
    indexes:
        Index objects exposing ``add_records(records)``,
        ``candidate_pairs(cross_source_only)`` and ``stats()`` (see
        :mod:`repro.pipeline.index`).  ``candidate_pairs`` returns two
        equal-length int arrays ``(left, right)`` of record positions — the
        order of ``add_records`` input across every call — one entry per
        distinct pair that shares a block; with ``cross_source_only`` it
        leaves out pairs from one source.  A ``skew_stats(top_k)`` hook is
        optional.  Defaults to
        :func:`~repro.pipeline.index.build_blocking_indexes` with its default
        knobs: a MinHash-LSH index, an inverted token index and an
        initials-key index over every attribute.  The default caps are
        deliberately tight — a bucket shared by more than a handful of
        records carries almost no linkage signal, and the three indexes back
        each other up, so tight caps buy an order of magnitude of pair
        reduction at little recall cost.
    cross_source_only:
        Drop pairs whose records come from the same data source (the MEL
        setting: linkage is across sources).
    """

    def __init__(self, indexes: Optional[Sequence[object]] = None,
                 cross_source_only: bool = True) -> None:
        self.indexes = list(build_blocking_indexes() if indexes is None else indexes)
        if not self.indexes:
            raise ValueError("CandidateGenerationStage requires at least one index")
        self.cross_source_only = cross_source_only
        self._records: List[Record] = []

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[Record]:
        """The ingested records, in insertion order."""
        return list(self._records)

    def add_records(self, records: Iterable[Record]) -> int:
        """Forward a batch to every index; all indexes see the same order."""
        batch = list(records)
        for index in self.indexes:
            index.add_records(batch)
        self._records.extend(batch)
        return len(batch)

    def generate(self) -> CandidateResult:
        """Union the indexes' collisions into deduplicated candidate pairs.

        The pairs are a :class:`~repro.data.records.PairColumns` view over a
        snapshot of the ingested records, carrying their record-id ranks.
        Each pair is oriented by record id (smaller id left) and the pairs
        come sorted by ``(left id, right id)``, so the output is independent
        of index iteration order.  Duplicate record ids: position pairs that
        name the same two ids are one candidate, the one whose positions
        ``(smaller, larger)`` sort first; a pair of two records sharing one
        id keeps its position order.
        """
        records = list(self._records)
        count = max(len(records), 1)
        per_index_hits: Dict[str, int] = {}
        codes = []
        for label, index in zip(self._index_labels(), self.indexes):
            left, right = index.candidate_pairs(cross_source_only=self.cross_source_only)
            left = np.asarray(left, dtype=np.int64)
            right = np.asarray(right, dtype=np.int64)
            per_index_hits[label] = len(left)
            codes.append(np.minimum(left, right) * count + np.maximum(left, right))
        positions = _sorted_unique(np.concatenate(codes))
        left, right = positions // count, positions % count

        ids, rank = record_id_ranks(records)
        swap = rank[left] > rank[right]
        left, right = np.where(swap, right, left), np.where(swap, left, right)
        # A stable sort keeps each id pair's first entry in ``positions``
        # order at the head of its run: the rule above.
        keys = rank[left] * len(ids) + rank[right]
        order = np.argsort(keys, kind="stable")
        kept = order[_run_starts(keys[order])]
        pairs = PairColumns(records, left[kept], right[kept], rank)

        stats = self._stats(len(pairs), keys[kept], ids, per_index_hits)
        return CandidateResult(pairs=pairs, stats=stats)

    # ------------------------------------------------------------------ #
    def _index_labels(self) -> List[str]:
        """One stats label per index; duplicates of a type stay distinct."""
        counts: Dict[str, int] = {}
        labels: List[str] = []
        for index in self.indexes:
            name = type(index).__name__
            counts[name] = counts.get(name, 0) + 1
            labels.append(name if counts[name] == 1 else f"{name}_{counts[name]}")
        return labels

    def index_stats(self) -> Dict[str, float]:
        """Flattened per-index diagnostics (bucket counts, overflow counters)."""
        flattened: Dict[str, float] = {}
        for label, index in zip(self._index_labels(), self.indexes):
            for key, value in index.stats().items():
                flattened[f"{label}_{key}"] = float(value)
        return flattened

    def skew_report(self, top_k: int = 5) -> Dict[str, Dict[str, object]]:
        """Per-index bucket-skew summaries (Gini, hottest buckets).

        Indexes without a ``skew_stats`` hook (custom blockers) are skipped.
        """
        return {label: index.skew_stats(top_k=top_k)
                for label, index in zip(self._index_labels(), self.indexes)
                if hasattr(index, "skew_stats")}

    def _stats(self, num_candidates: int, retrieved: np.ndarray,
               ids: List[str], per_index_hits: Dict[str, int]) -> Dict[str, float]:
        """``retrieved`` holds the candidates' id-pair codes ``rank(left id) *
        len(ids) + rank(right id)``, ``ids`` being the sorted distinct record
        ids."""
        records = self._records
        possible = possible_cross_source_pairs(records, self.cross_source_only)
        truth = ground_truth_pairs(records, self.cross_source_only)
        stats: Dict[str, float] = {
            "num_records": float(len(records)),
            "num_candidates": float(num_candidates),
            "possible_pairs": float(possible),
            # Fraction of the full comparison space kept (lower is better) …
            "reduction_ratio": num_candidates / possible if possible else 0.0,
            # … and its reciprocal, the "N× fewer comparisons" headline.
            # Candidate count is floored at 1 so the stat stays finite (and
            # JSON-serialisable) when blocking finds nothing.
            "pair_reduction_factor": possible / max(num_candidates, 1),
        }
        for name, hits in per_index_hits.items():
            stats[f"hits_{name}"] = float(hits)
        if truth:
            rank_of = dict(zip(ids, range(len(ids))))
            truth_codes = [rank_of[left] * len(ids) + rank_of[right]
                           for left, right in truth]
            stats["num_true_pairs"] = float(len(truth))
            stats["recall"] = (int(np.isin(truth_codes, retrieved).sum())
                               / len(truth))
        return stats
