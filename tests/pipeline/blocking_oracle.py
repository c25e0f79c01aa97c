"""References for bulk blocking: the bucket-dict walk and the set-and-sort stage.

A bulk-built index (``add_records``) keeps int64 posting columns and groups
them with one sort; these are the plain per-bucket and per-pair Python walks
it must agree with:

* :func:`dict_walk_pairs` — every pair inside each live bucket of a
  *streamed* index's bucket dict (``itertools.combinations`` per bucket);
* :func:`bulk_postings` — a bulk index's columns decoded back to
  ``(key, position)`` postings, independently of the index's own decoder;
* :func:`set_and_sort_generate` — candidate generation as a set of position
  pairs deduplicated and sorted on ``(record_id, record_id)`` tuples;
* :func:`store_buckets` — a copy of every streamed index of an entity store,
  for the equivalence tests (a store's state dict carries no buckets).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Hashable, List, Sequence, Set, Tuple

import numpy as np

from repro.data.records import EntityPair
from repro.pipeline import MinHashLSHIndex, ground_truth_pairs, possible_cross_source_pairs

_VALUE_MASK = (1 << 31) - 1


def dict_walk_pairs(index, cross_source_only: bool = False) -> Set[Tuple[int, int]]:
    """Position pairs sharing a bucket of at most ``max_bucket_size`` members,
    walked over a streamed index's bucket dict."""
    sources = index.sources
    pairs: Set[Tuple[int, int]] = set()
    for _, bucket in index._buckets.items():
        if len(bucket) < 2 or len(bucket) > index.max_bucket_size:
            continue
        for left, right in combinations(bucket, 2):
            if cross_source_only and sources[left] == sources[right]:
                continue
            pairs.add((left, right))
    return pairs


def bulk_postings(index) -> List[Tuple[Hashable, int]]:
    """A bulk index's ``(key, position)`` postings, in column order."""
    codes = np.concatenate(index._codes).tolist() if index._codes else []
    positions = np.concatenate(index._positions).tolist() if index._positions else []
    if isinstance(index, MinHashLSHIndex):
        keys = [(code >> 31, code & _VALUE_MASK) for code in codes]
    else:
        table = list(index._key_codes)  # interned in first-occurrence order
        keys = [table[code] for code in codes]
    return list(zip(keys, positions))


def bulk_buckets(index) -> Dict[Hashable, List[int]]:
    """The buckets a streamed build keeps: members in insertion order, at most
    ``max_bucket_size + 1`` of them, buckets in key first-occurrence order."""
    buckets: Dict[Hashable, List[int]] = {}
    for key, position in bulk_postings(index):
        bucket = buckets.setdefault(key, [])
        if len(bucket) <= index.max_bucket_size:
            bucket.append(position)
    return buckets


def store_buckets(store) -> List[Tuple[List[str], List[str], List[Tuple[Hashable, List[int]]]]]:
    """Each blocking index of ``store`` as ``(record_ids, sources, buckets)``,
    the buckets copied in insertion order, members included."""
    return [(index.record_ids, index.sources,
             [(key, list(members)) for key, members in index._buckets.items()])
            for index in store._indexes]


def set_and_sort_generate(records: Sequence, indexes: Sequence, labels: Sequence[str],
                          cross_source_only: bool
                          ) -> Tuple[List[EntityPair], Dict[str, float]]:
    """Candidate pairs and stats from streamed ``indexes`` over ``records``.

    Position pairs are unioned as a set, oriented so the smaller record id is
    left, deduplicated on the ``(id, id)`` tuple — the first in sorted
    position order wins, the stage's rule for duplicate ids — and sorted on
    that tuple.
    """
    positions: Set[Tuple[int, int]] = set()
    per_index_hits: Dict[str, int] = {}
    for label, index in zip(labels, indexes):
        hits = dict_walk_pairs(index, cross_source_only)
        per_index_hits[label] = len(hits)
        positions |= hits

    seen: Set[Tuple[str, str]] = set()
    keyed: List[Tuple[Tuple[str, str], int, int]] = []
    for left, right in sorted(positions):
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

    possible = possible_cross_source_pairs(records, cross_source_only)
    truth = ground_truth_pairs(records, cross_source_only)
    stats: Dict[str, float] = {
        "num_records": float(len(records)),
        "num_candidates": float(len(pairs)),
        "possible_pairs": float(possible),
        "reduction_ratio": len(pairs) / possible if possible else 0.0,
        "pair_reduction_factor": possible / max(len(pairs), 1),
    }
    for name, hits in per_index_hits.items():
        stats[f"hits_{name}"] = float(hits)
    if truth:
        stats["num_true_pairs"] = float(len(truth))
        stats["recall"] = len(truth & seen) / len(truth)
    return pairs, stats
