"""Reference resolution for the entity store: the whole match graph, from
singletons.

This is what ``EntityStore._resolve_affected`` did on every upsert before the
store learned to rewind and replay (flood fill dropped: the fill from every
record is the whole graph).  It derives the match edges from the store's
public state dict, sorts them with :func:`order_match_edges` and merges them
with :func:`apply_match_edges` — the batch clustering stage's own two steps —
so the incremental path is compared with code it shares nothing with but the
per-edge decision.
"""

from __future__ import annotations

from typing import List

from repro.pipeline.clustering import (MatchEdge, UnionFind, apply_match_edges,
                                       order_match_edges)
from repro.serve import EntityStore


def match_edges(store: EntityStore) -> List[MatchEdge]:
    """Live candidate pairs scored at or over the threshold, as match edges."""
    state = store.state_dict()
    record_ids = [record["record_id"] for record in state["records"]]
    threshold = state["config"]["score_threshold"]
    edges: List[MatchEdge] = []
    for pair_key in state["support"]:
        score = state["scores"][pair_key]
        if score >= threshold:
            left, right = (record_ids[int(position)] for position in pair_key.split(","))
            edges.append((score, min(left, right), max(left, right)))
    return edges


def resolve_from_singletons(store: EntityStore) -> List[List[str]]:
    """The clusters a batch run over the store's match graph would produce."""
    records = store.records
    union_find = UnionFind(record.record_id for record in records)
    cluster_sources = ({record.record_id: {record.source} for record in records}
                       if store.config.source_consistent else None)
    apply_match_edges(union_find, cluster_sources, order_match_edges(match_edges(store)))
    return union_find.groups()
