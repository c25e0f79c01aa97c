"""Candidate generation: union index hits into deduplicated cross-source pairs.

The stage owns the indexes and the ingested record list.  Records stream in
via :meth:`CandidateGenerationStage.add_records` (each batch is forwarded to
every index); :meth:`generate` then unions the indexes' bucket collisions,
enforces cross-source-only pairing, dedupes via sorted-id keys and computes
blocking-quality statistics (recall against ``entity_id`` ground truth and
the pair-reduction ratio against full cross-source enumeration).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..data.records import EntityPair, Record
from .index import build_blocking_indexes

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
    """Candidate pairs plus the blocking-quality statistics of the stage."""

    pairs: List[EntityPair]
    stats: Dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.pairs)


class CandidateGenerationStage:
    """Union one or more indexes into a deduplicated candidate-pair stream.

    Parameters
    ----------
    indexes:
        Index objects exposing ``add_records`` / ``candidate_pairs`` /
        ``stats`` (see :mod:`repro.pipeline.index`).  Defaults to a
        MinHash-LSH index, an inverted token index and an initials-key index
        over ``attributes``.  The default caps are deliberately tight — a
        bucket shared by more than a handful of records carries almost no
        linkage signal, and the three indexes back each other up, so tight
        caps buy an order of magnitude of pair reduction at little recall
        cost.
    attributes:
        Blocking attributes forwarded to the default indexes.
    cross_source_only:
        Drop pairs whose records come from the same data source (the MEL
        setting: linkage is across sources).
    """

    def __init__(self, indexes: Optional[Sequence[object]] = None,
                 attributes: Optional[Sequence[str]] = None,
                 cross_source_only: bool = True,
                 num_perm: int = 128, bands: int = 32,
                 max_bucket_size: int = 8, max_postings: int = 8,
                 initials_max_bucket_size: int = 16,
                 min_token_length: int = 3, seed: int = 7) -> None:
        if indexes is None:
            indexes = build_blocking_indexes(
                attributes=attributes, num_perm=num_perm, bands=bands,
                lsh_max_bucket_size=max_bucket_size, max_postings=max_postings,
                initials_max_bucket_size=initials_max_bucket_size,
                min_token_length=min_token_length, seed=seed)
        self.indexes = list(indexes)
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

        Pairs are deduplicated on the sorted ``(record_id, record_id)`` key
        and returned sorted by that key, so the output is independent of
        index iteration order.
        """
        records = self._records
        positions: Set[Tuple[int, int]] = set()
        per_index_hits: Dict[str, int] = {}
        for label, index in zip(self._index_labels(), self.indexes):
            hits = index.candidate_pairs(cross_source_only=self.cross_source_only)
            per_index_hits[label] = len(hits)
            positions |= hits

        seen: Set[Tuple[str, str]] = set()
        keyed: List[Tuple[Tuple[str, str], int, int]] = []
        for left, right in positions:
            key = (records[left].record_id, records[right].record_id)
            if key[0] > key[1]:
                key = (key[1], key[0])
                left, right = right, left
            if key in seen:
                continue
            seen.add(key)
            keyed.append((key, left, right))
        keyed.sort(key=lambda item: item[0])
        pairs = [EntityPair(left=records[left], right=records[right], label=None)
                 for _, left, right in keyed]

        stats = self._stats(pairs, seen, per_index_hits)
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

    def _stats(self, pairs: List[EntityPair], retrieved: Set[Tuple[str, str]],
               per_index_hits: Dict[str, int]) -> Dict[str, float]:
        records = self._records
        possible = possible_cross_source_pairs(records, self.cross_source_only)
        truth = ground_truth_pairs(records, self.cross_source_only)
        stats: Dict[str, float] = {
            "num_records": float(len(records)),
            "num_candidates": float(len(pairs)),
            "possible_pairs": float(possible),
            # Fraction of the full comparison space kept (lower is better) …
            "reduction_ratio": len(pairs) / possible if possible else 0.0,
            # … and its reciprocal, the "N× fewer comparisons" headline.
            # Candidate count is floored at 1 so the stat stays finite (and
            # JSON-serialisable) when blocking finds nothing.
            "pair_reduction_factor": possible / max(len(pairs), 1),
        }
        for name, hits in per_index_hits.items():
            stats[f"hits_{name}"] = float(hits)
        if truth:
            stats["num_true_pairs"] = float(len(truth))
            stats["recall"] = len(truth & retrieved) / len(truth)
        return stats
