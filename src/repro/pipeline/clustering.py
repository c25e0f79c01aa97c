"""Entity resolution: threshold match scores and cluster with union-find.

Pairwise match probabilities are not yet entities: the final stage thresholds
the scores and resolves the surviving match edges into connected components
(transitive closure) with a union-find structure.  Because transitivity is
*imposed* rather than predicted, the stage also reports how often it was
violated — candidate pairs the model scored below the threshold whose records
nevertheless ended up co-clustered — and, when ``entity_id`` ground truth is
available, pairwise precision/recall/F1 of the produced clusters.

Cluster output is canonical: members are sorted by record id and clusters by
their smallest member, so the result is invariant to edge processing order.
The batch :class:`ClusteringStage` works on record-id ranks (one int per
distinct id, in id order): one ``np.lexsort`` orders the edges, the greedy
merges int nodes whose sources are bitmasks, and the violations are one
comparison of cluster-index arrays.  Record ids appear only in the result.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from types import MappingProxyType
from typing import (Dict, Hashable, Iterable, List, Mapping, Optional, Sequence,
                    Set, Tuple, Union)

import numpy as np

from ..data.records import (EntityPair, PairColumns, Record, pair_record_ids,
                            record_id_ranks)
from .scoring import ScoredCandidates

__all__ = ["UnionFind", "ClusteringStage", "ClusterResult", "MatchEdge",
           "MergeKey", "IncrementalClusters", "apply_match_edges",
           "match_edge_key", "order_match_edges", "pairwise_cluster_metrics"]

# A thresholded match edge: (score, left record id, right record id) with
# ``left < right`` under string order — the canonical key both the batch
# stage and the online entity store sort and merge by.
MatchEdge = Tuple[float, str, str]

# The position of a match edge in the greedy's best-first scan: ``(-score,
# left id, right id)``.  Keys are unique per edge (one edge per record pair),
# so the order is total; a key also names its edge's endpoints, which is why
# :class:`IncrementalClusters` stores edges as their keys.
MergeKey = Tuple[float, str, str]

# The data sources of each current cluster, by root: a set of sources, or an
# int with one bit per source (the batch stage, whose roots are int ranks).
ClusterSources = Union[Dict[Hashable, set], List[int]]


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, items: Optional[Iterable[Hashable]] = None) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        for item in items or ():
            self.add(item)

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    def add(self, item: Hashable) -> None:
        """Register ``item`` as its own singleton component (idempotent)."""
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: Hashable) -> Hashable:
        """Root of ``item``'s component (with path compression)."""
        parent = self._parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, left: Hashable, right: Hashable) -> bool:
        """Merge the components of ``left`` and ``right``; True when distinct."""
        self.add(left)
        self.add(right)
        root_left, root_right = self.find(left), self.find(right)
        if root_left == root_right:
            return False
        if self._size[root_left] < self._size[root_right]:
            root_left, root_right = root_right, root_left
        self._parent[root_right] = root_left
        self._size[root_left] += self._size[root_right]
        return True

    def connected(self, left: Hashable, right: Hashable) -> bool:
        """Whether both items are registered and share a component."""
        if left not in self._parent or right not in self._parent:
            return False
        return self.find(left) == self.find(right)

    def groups(self) -> List[List[Hashable]]:
        """Components as member lists, each sorted, ordered by first member.

        The canonical ordering makes the output independent of the order in
        which items were added and edges were unioned.
        """
        components: Dict[Hashable, List[Hashable]] = defaultdict(list)
        for item in self._parent:
            components[self.find(item)].append(item)
        groups = [sorted(members) for members in components.values()]
        groups.sort(key=lambda members: members[0])
        return groups


def match_edge_key(edge: MatchEdge) -> MergeKey:
    """Where ``edge`` falls in the best-first scan: ``(-score, left, right)``."""
    return (-edge[0], edge[1], edge[2])


def order_match_edges(edges: Iterable[MatchEdge]) -> List[MatchEdge]:
    """Sort match edges best-first under the canonical total order.

    Edges are processed in descending score order with ``(left_id, right_id)``
    as the deterministic tie-break, so greedy merging is independent of the
    order in which edges were discovered.  Streaming one record at a time and
    batch runs therefore agree as long as both resolve from this order.
    """
    return sorted(edges, key=match_edge_key)


def _merge_unless_vetoed(union_find: UnionFind,
                         cluster_sources: Optional[ClusterSources],
                         left_id: Hashable, right_id: Hashable) -> Optional[bool]:
    """The greedy's decision for one edge, given the clusters built so far.

    ``True``: the edge merged two clusters.  ``False``: its endpoints were
    already co-clustered.  ``None``: the clusters share a data source, so the
    source-consistency constraint vetoed the merge.  The batch scan and the
    incremental replay both decide every edge here.
    """
    root_left = union_find.find(left_id)
    root_right = union_find.find(right_id)
    if root_left == root_right:
        return False
    if cluster_sources is None:
        union_find.union(root_left, root_right)
        return True
    if cluster_sources[root_left] & cluster_sources[root_right]:
        return None
    union_find.union(root_left, root_right)
    cluster_sources[union_find.find(root_left)] = (
        cluster_sources[root_left] | cluster_sources[root_right])
    return True


def apply_match_edges(union_find: UnionFind,
                      cluster_sources: Optional[ClusterSources],
                      edges: Sequence[MatchEdge]) -> Tuple[int, int]:
    """Greedily merge pre-ordered ``edges`` into ``union_find``.

    ``cluster_sources`` maps each current root to the data sources in its
    cluster — a set, or an int with one bit per source (anything ``&`` and
    ``|`` combine); when provided, a merge that would co-cluster two records
    of one source is vetoed (the source-consistency constraint).  Pass ``None``
    to disable the veto (plain transitive closure).  Returns ``(matches,
    source_conflicts)``: edges whose endpoints ended up co-clustered, and
    edges vetoed by the constraint.

    The decision for an edge depends only on the clusters its two endpoints
    are in when the scan reaches it, and those were built by edges earlier in
    the order.  Changing the edge set at key ``t`` therefore leaves every
    decision before ``t`` as it was, and every later decision too unless one
    of the two clusters it reads has changed — the property
    :class:`IncrementalClusters` uses to redo only the part of this scan an
    edge change can reach.
    """
    matches = 0
    source_conflicts = 0
    for _, left_id, right_id in edges:
        if _merge_unless_vetoed(union_find, cluster_sources, left_id, right_id) is None:
            source_conflicts += 1
        else:
            matches += 1
    return matches, source_conflicts


class IncrementalClusters:
    """The clusters :func:`apply_match_edges` builds, kept current while match
    edges come and go.

    Each cluster remembers its *merge log*: the edges that merged it, in scan
    order (``members - 1`` entries).  Replaying the entries before a key ``t``
    gives back the sub-clusters its records formed when the scan stood at
    ``t``, which is what lets :meth:`resolve` rewind and replay instead of
    scanning again from singletons:

    * the smallest key ``t0`` among the edges added or removed since the last
      call is where the old and the new scan first differ, so the clusters
      holding those edges' endpoints are rewound to ``t0`` and the edges at
      their records with key >= ``t0`` are scanned again, best first;
    * an edge from a rewound record to a cluster not rewound did not merge
      before (the two records ended in different clusters).  Its far end is
      read from that cluster's log as it stood at the edge's key: when the
      edge is vetoed again nothing else is touched; when it now merges, that
      cluster is rewound to the edge's key and its later edges join the scan.

    *Why this equals the full scan.*  By induction over the scan order: when
    an edge at key ``t`` is reached, every cluster not rewound has the history
    before ``t`` it had in the old scan, because each edge that could have
    changed it is at a rewound record, has a key in ``[t0, t)`` and was
    scanned again without merging.  So an edge between two such clusters is
    decided from the same two sub-clusters as before and needs no second look,
    and every other edge at or after ``t0`` is in the scan.  The work follows
    the clusters whose history changes, not the size of the match graph.

    Records are named by id and clusters by their smallest member id; nothing
    here is persisted — one :meth:`resolve` over all edges rebuilds every log.
    Not thread-safe: the owner serializes calls.
    """

    def __init__(self, source_consistent: bool = True) -> None:
        self.source_consistent = source_consistent
        self._source: Dict[str, str] = {}
        self._adjacent: Dict[str, Dict[str, MergeKey]] = {}
        self._cluster_of: Dict[str, str] = {}
        self._members: Dict[str, List[str]] = {}
        self._merge_log: Dict[str, List[MergeKey]] = {}
        self._changed: List[MergeKey] = []
        self._num_edges = 0

    @property
    def members(self) -> Mapping[str, List[str]]:
        """Cluster id (its smallest record id) -> sorted record ids; a
        read-only view, current as of the last :meth:`resolve`."""
        return MappingProxyType(self._members)

    @property
    def merge_logs(self) -> Mapping[str, List[MergeKey]]:
        """Cluster id -> the edges that merged it, in scan order (clusters of
        one record have no entry); a read-only view."""
        return MappingProxyType(self._merge_log)

    @property
    def num_edges(self) -> int:
        """Match edges currently in the graph."""
        return self._num_edges

    def cluster_of(self, record_id: str) -> str:
        """Id of the cluster holding ``record_id`` (as of the last resolve)."""
        return self._cluster_of[record_id]

    def add_record(self, record_id: str, source: str) -> None:
        """Register a record as a singleton cluster."""
        if record_id in self._source:
            raise ValueError(f"record {record_id!r} is already clustered")
        self._source[record_id] = source
        self._cluster_of[record_id] = record_id
        self._members[record_id] = [record_id]

    def add_edge(self, edge: MatchEdge) -> None:
        """Add a match edge between two registered records (one per pair)."""
        key = match_edge_key(edge)
        _, left_id, right_id = key
        if right_id in self._adjacent.get(left_id, ()):
            raise ValueError(f"match edge {left_id!r} - {right_id!r} already exists")
        self._adjacent.setdefault(left_id, {})[right_id] = key
        self._adjacent.setdefault(right_id, {})[left_id] = key
        self._num_edges += 1
        self._changed.append(key)

    def remove_edge(self, left_id: str, right_id: str) -> None:
        """Withdraw the match edge between two records."""
        key = self._adjacent[left_id].pop(right_id)
        del self._adjacent[right_id][left_id]
        for record_id in (left_id, right_id):
            if not self._adjacent[record_id]:
                del self._adjacent[record_id]
        self._num_edges -= 1
        self._changed.append(key)

    def resolve(self) -> int:
        """Bring the clusters up to date with the edges added and removed
        since the last call; returns how many edges were scanned again."""
        if not self._changed:
            return 0
        changed, self._changed = self._changed, []
        union_find = UnionFind()  # over the records of rewound clusters
        sources: Optional[Dict[Hashable, set]] = {} if self.source_consistent else None
        merges: List[MergeKey] = []
        heap: List[MergeKey] = []

        def rewind(cluster_id: str, bound: MergeKey) -> None:
            # An edge to a record rewound earlier is on the heap already (or
            # was decided before that record's bound, which is <= this one).
            for record_id in self._members.pop(cluster_id):
                for neighbor, key in self._adjacent.get(record_id, {}).items():
                    if key >= bound and neighbor not in union_find:
                        heappush(heap, key)
                union_find.add(record_id)
                if sources is not None:
                    sources[record_id] = {self._source[record_id]}
            for key in self._merge_log.pop(cluster_id, ()):
                if key >= bound:
                    break
                _merge_unless_vetoed(union_find, sources, key[1], key[2])
                merges.append(key)

        start = min(changed)
        for _, left_id, right_id in changed:
            for record_id in (left_id, right_id):
                if record_id not in union_find:
                    rewind(self._cluster_of[record_id], start)

        rescanned = 0
        while heap:
            key = heappop(heap)
            rescanned += 1
            _, left_id, right_id = key
            if left_id not in union_find or right_id not in union_find:
                inside, outside = ((left_id, right_id) if left_id in union_find
                                   else (right_id, left_id))
                if sources is not None and self._vetoed_before(
                        key, outside, sources[union_find.find(inside)]):
                    continue  # as before: the far cluster stays untouched
                rewind(self._cluster_of[outside], key)
            if _merge_unless_vetoed(union_find, sources, left_id, right_id):
                merges.append(key)

        logs: Dict[Hashable, List[MergeKey]] = defaultdict(list)
        for key in merges:
            logs[union_find.find(key[1])].append(key)
        for members in union_find.groups():
            cluster_id = members[0]
            self._members[cluster_id] = members
            for record_id in members:
                self._cluster_of[record_id] = cluster_id
            if len(members) > 1:
                self._merge_log[cluster_id] = sorted(logs[union_find.find(cluster_id)])
        return rescanned

    def _vetoed_before(self, bound: MergeKey, record_id: str,
                       near_sources: Set[str]) -> bool:
        """Whether the sub-cluster ``record_id`` was in when the scan stood at
        ``bound`` shares a source with ``near_sources``."""
        if self._source[record_id] in near_sources:
            return True
        cluster_id = self._cluster_of[record_id]
        members = self._members[cluster_id]
        union_find = UnionFind(members)
        for key in self._merge_log.get(cluster_id, ()):
            if key >= bound:
                break
            union_find.union(key[1], key[2])
        root = union_find.find(record_id)
        return any(self._source[member] in near_sources for member in members
                   if union_find.find(member) == root)


def pairwise_cluster_metrics(assignments: Dict[str, int],
                             truth: Dict[str, str]) -> Dict[str, float]:
    """Pairwise precision/recall/F1 of a clustering against entity ground truth.

    Both mappings are keyed by record id; only records present in ``truth``
    are evaluated.  A "pair" is any unordered pair of evaluated records; it is
    predicted positive when co-clustered and truly positive when the records
    share an ``entity_id``.  Counts are computed from group sizes, never by
    enumerating pairs.
    """
    evaluated = [record_id for record_id in assignments if record_id in truth]
    cluster_sizes = Counter(assignments[record_id] for record_id in evaluated)
    entity_sizes = Counter(truth[record_id] for record_id in evaluated)
    joint_sizes = Counter((assignments[record_id], truth[record_id])
                          for record_id in evaluated)

    def _pairs(counts: Counter) -> int:
        return sum(count * (count - 1) // 2 for count in counts.values())

    predicted = _pairs(cluster_sizes)
    actual = _pairs(entity_sizes)
    true_positive = _pairs(joint_sizes)
    precision = true_positive / predicted if predicted else 0.0
    recall = true_positive / actual if actual else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return {
        "pairwise_precision": precision,
        "pairwise_recall": recall,
        "pairwise_f1": f1,
        "evaluated_records": float(len(evaluated)),
    }


@dataclass
class ClusterResult:
    """Resolved entities plus clustering-quality statistics."""

    clusters: List[List[str]]
    assignments: Dict[str, int]
    violations: List[Tuple[str, str, float]]
    stats: Dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.clusters)


class ClusteringStage:
    """Threshold scored pairs and resolve entities via connected components.

    Match edges are applied in *descending score order*; with
    ``source_consistent`` (the default) a merge is vetoed when it would put
    two records from the same data source into one cluster.  In cross-source
    linkage an entity has at most one record per source, so the constraint is
    a hard structural prior — it stops one spurious edge between
    near-duplicate entities from snowballing whole source catalogues into a
    single giant cluster, the classic failure mode of plain transitive
    closure.

    Parameters
    ----------
    threshold:
        Minimum matching probability for a pair to become a merge edge.
    source_consistent:
        Veto merges that would co-cluster two records of one source.  Disable
        for deployments where one source can legitimately hold duplicates.
    """

    def __init__(self, threshold: float = 0.5, source_consistent: bool = True) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold
        self.source_consistent = source_consistent

    def run(self, records: Sequence[Record], scored: ScoredCandidates) -> ClusterResult:
        """Cluster ``records`` using the match edges in ``scored``.

        Every record appears in exactly one cluster (unmatched records stay
        singletons).  Edges are processed best-first under a total order
        (score, then pair key) and cluster ids are assigned canonically, so
        two runs over the same scores produce identical output regardless of
        record or edge ordering.  Records sharing an id are one node whose
        sources are all of theirs; the pairwise metrics count an id with its
        records' common ``entity_id`` and leave out an id whose records name
        two entities.

        The work runs on record-id ranks (:func:`record_id_ranks`), whose
        order is the ids' order: a :class:`PairColumns` view over these
        same records is read off its columns and ranks; any other pair
        sequence is mapped to ranks by one id lookup.
        """
        ids, rank, left, right = _rank_columns(records, scored.pairs)
        scores = np.asarray(scored.scores)
        union_find = UnionFind(range(len(ids)))
        cluster_sources: Optional[List[int]] = None
        if self.source_consistent:
            # Per id, a bit per source its records come from.
            codes: Dict[str, int] = {}
            cluster_sources = [0] * len(ids)
            for position, record in zip(rank.tolist(), records):
                cluster_sources[position] |= 1 << codes.setdefault(record.source, len(codes))
        # Best first: (-score, left id, right id) is (-score, left rank, right rank).
        eligible = np.flatnonzero(scores >= self.threshold)
        order = eligible[np.lexsort((right[eligible], left[eligible], -scores[eligible]))]
        edges = list(zip(scores[order].tolist(), left[order].tolist(), right[order].tolist()))
        matches, source_conflicts = apply_match_edges(union_find, cluster_sources, edges)

        groups = union_find.groups()
        sizes = [len(members) for members in groups]
        members = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.int64,
                              count=len(ids))
        cluster_of = np.empty(len(ids), dtype=np.int64)
        cluster_of[members] = np.repeat(np.arange(len(groups)), sizes)
        clusters = [[ids[member] for member in group] for group in groups]
        assignments = dict(zip([ids[member] for member in members.tolist()],
                               cluster_of[members].tolist()))

        # Transitivity violations: candidate pairs the model rejected whose
        # records were nevertheless merged through other edges.
        rejected = np.flatnonzero(scores < self.threshold)
        violated = rejected[cluster_of[left[rejected]] == cluster_of[right[rejected]]]
        violations: List[Tuple[str, str, float]] = [
            (ids[lo], ids[hi], score) for lo, hi, score in zip(
                left[violated].tolist(), right[violated].tolist(), scores[violated].tolist())]

        stats: Dict[str, float] = {
            "threshold": self.threshold,
            "num_records": float(len(records)),
            "num_clusters": float(len(clusters)),
            "num_match_edges": float(matches),
            "source_conflicts": float(source_conflicts),
            "num_singletons": float(sum(1 for size in sizes if size == 1)),
            "max_cluster_size": float(max(sizes)) if sizes else 0.0,
            "transitivity_violations": float(len(violations)),
            "transitivity_violation_rate": (len(violations) / len(rejected)
                                            if len(rejected) else 0.0),
        }
        entities: Dict[str, Set[str]] = {}
        for record in records:
            if record.entity_id is not None:
                entities.setdefault(record.record_id, set()).add(record.entity_id)
        if entities:
            # An id's truth is its records' common entity; an id whose records
            # name two entities is left out of the evaluation.
            truth = {record_id: next(iter(named)) for record_id, named in entities.items()
                     if len(named) == 1}
            stats.update(pairwise_cluster_metrics(assignments, truth))
        return ClusterResult(clusters=clusters, assignments=assignments,
                             violations=violations, stats=stats)


def _rank_columns(records: Sequence[Record], pairs: Sequence[EntityPair]
                  ) -> Tuple[List[str], np.ndarray, np.ndarray, np.ndarray]:
    """``(ids, rank, left, right)``: the records' distinct ids in order, each
    record's rank among them, and the ranks of every pair's two ids."""
    if isinstance(pairs, PairColumns) and (pairs.records is records or (
            len(pairs.records) == len(records)
            and all(map(operator.is_, pairs.records, records)))):
        rank = pairs.rank
        ids = [""] * (int(rank.max()) + 1 if len(rank) else 0)
        for position, record in zip(rank.tolist(), records):
            ids[position] = record.record_id
        return ids, rank, rank[pairs.left], rank[pairs.right]
    ids, rank = record_id_ranks(records)
    rank_of = dict(zip(ids, range(len(ids))))
    left_ids, right_ids = pair_record_ids(pairs)
    unknown = {record_id for record_id in itertools.chain(left_ids, right_ids)
               if record_id not in rank_of}
    if unknown:
        raise ValueError(
            f"scored pairs reference {len(unknown)} record id(s) not in "
            f"`records` (e.g. {sorted(unknown)[:3]}); score and cluster "
            f"over the same record set")
    return (ids, rank,
            np.fromiter(map(rank_of.__getitem__, left_ids), dtype=np.int64, count=len(left_ids)),
            np.fromiter(map(rank_of.__getitem__, right_ids), dtype=np.int64, count=len(right_ids)))
