"""Reference for ``ClusteringStage.run``: the greedy walked by record id.

The stage runs on record-id ranks and position columns (one ``np.lexsort``,
int union-find nodes, source bitmasks, violations as one array comparison).
This is the same clustering over string ids, one pair object at a time:

* a dict :class:`~repro.pipeline.UnionFind` over the record ids;
* per id, the *set* of sources of every record carrying it (records sharing
  an id are one node, whatever order they come in);
* the eligible edges ``(score, left id, right id)`` sorted best first by
  :func:`~repro.pipeline.order_match_edges` and merged by
  :func:`~repro.pipeline.apply_match_edges`;
* a violation per rejected pair whose two ids ended up ``connected``;
* pairwise metrics over the ids whose records name one entity.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.records import Record
from repro.pipeline import (ClusterResult, UnionFind, apply_match_edges,
                            order_match_edges, pairwise_cluster_metrics)
from repro.pipeline.scoring import ScoredCandidates


def cluster_by_id(records: Sequence[Record], scored: ScoredCandidates,
                  threshold: float = 0.5, source_consistent: bool = True) -> ClusterResult:
    """What ``ClusteringStage(threshold, source_consistent).run(records,
    scored)`` must return."""
    union_find = UnionFind(record.record_id for record in records)
    cluster_sources: Dict[str, set] = {}
    for record in records:
        cluster_sources.setdefault(record.record_id, set()).add(record.source)
    pairs = list(scored.pairs)
    scores = np.asarray(scored.scores)
    unknown = {record_id for pair in pairs
               for record_id in (pair.left.record_id, pair.right.record_id)
               if record_id not in union_find}
    if unknown:
        raise ValueError(f"scored pairs reference {len(unknown)} record id(s) not in "
                         f"`records` (e.g. {sorted(unknown)[:3]})")
    edges = order_match_edges(
        (float(score), pair.left.record_id, pair.right.record_id)
        for pair, score in zip(pairs, scores) if score >= threshold)
    matches, source_conflicts = apply_match_edges(
        union_find, cluster_sources if source_consistent else None, edges)

    clusters = union_find.groups()
    assignments = {record_id: cluster_id
                   for cluster_id, members in enumerate(clusters)
                   for record_id in members}
    violations: List[Tuple[str, str, float]] = [
        (pair.left.record_id, pair.right.record_id, float(score))
        for pair, score in zip(pairs, scores)
        if score < threshold and union_find.connected(pair.left.record_id,
                                                      pair.right.record_id)]
    rejected = int(np.sum(scores < threshold)) if len(pairs) else 0

    sizes = [len(members) for members in clusters]
    stats: Dict[str, float] = {
        "threshold": threshold,
        "num_records": float(len(records)),
        "num_clusters": float(len(clusters)),
        "num_match_edges": float(matches),
        "source_conflicts": float(source_conflicts),
        "num_singletons": float(sum(1 for size in sizes if size == 1)),
        "max_cluster_size": float(max(sizes)) if sizes else 0.0,
        "transitivity_violations": float(len(violations)),
        "transitivity_violation_rate": len(violations) / rejected if rejected else 0.0,
    }
    # An id is evaluated with the one entity its records name (ignoring
    # None); an id whose records name two entities is not evaluated.
    named = {record_id: {record.entity_id for record in records
                         if record.record_id == record_id} - {None}
             for record_id in assignments}
    if any(named.values()):
        stats.update(pairwise_cluster_metrics(
            assignments, {record_id: entity for record_id, entities in named.items()
                          if len(entities) == 1 for entity in entities}))
    return ClusterResult(clusters=clusters, assignments=assignments,
                         violations=violations, stats=stats)
