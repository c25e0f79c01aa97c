"""Tests for union-find entity resolution and cluster quality metrics."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.data.records import EntityPair, Record
from repro.pipeline import (ClusteringStage, IncrementalClusters, UnionFind,
                            apply_match_edges, order_match_edges,
                            pairwise_cluster_metrics)
from repro.pipeline.scoring import ScoredCandidates


def _record(record_id, source, entity_id=None):
    return Record(record_id=record_id, source=source,
                  attributes={"name": record_id}, entity_id=entity_id)


def _scored(records, edges):
    """Build ScoredCandidates from (left_id, right_id, score) triples."""
    by_id = {record.record_id: record for record in records}
    pairs = [EntityPair(left=by_id[left], right=by_id[right], label=None)
             for left, right, _ in edges]
    scores = np.array([score for _, _, score in edges], dtype=np.float64)
    return ScoredCandidates(pairs=pairs, scores=scores)


class TestUnionFind:
    def test_groups_are_connected_components(self):
        union_find = UnionFind(["a", "b", "c", "d", "e"])
        union_find.union("a", "b")
        union_find.union("b", "c")
        assert union_find.groups() == [["a", "b", "c"], ["d"], ["e"]]
        assert union_find.connected("a", "c")
        assert not union_find.connected("a", "d")

    def test_union_returns_whether_components_merged(self):
        union_find = UnionFind()
        assert union_find.union("a", "b") is True
        assert union_find.union("a", "b") is False

    def test_order_invariance(self):
        """The canonical groups never depend on item or edge ordering."""
        items = [f"r{i}" for i in range(30)]
        edges = [(f"r{i}", f"r{i + 1}") for i in range(0, 28, 3)]
        edges += [(f"r{i}", f"r{i + 2}") for i in range(0, 27, 9)]
        reference = None
        rng = random.Random(0)
        for _ in range(5):
            shuffled_items = items[:]
            shuffled_edges = edges[:]
            rng.shuffle(shuffled_items)
            rng.shuffle(shuffled_edges)
            union_find = UnionFind(shuffled_items)
            for left, right in shuffled_edges:
                union_find.union(left, right)
            groups = union_find.groups()
            if reference is None:
                reference = groups
            assert groups == reference


def _incremental(sources, source_consistent=True):
    clusters = IncrementalClusters(source_consistent)
    for record_id, source in sources.items():
        clusters.add_record(record_id, source)
    return clusters


def _groups(clusters):
    return [clusters.members[cluster_id] for cluster_id in sorted(clusters.members)]


def _from_singletons(sources, edges, source_consistent=True):
    union_find = UnionFind(sources)
    cluster_sources = ({record_id: {source} for record_id, source in sources.items()}
                       if source_consistent else None)
    apply_match_edges(union_find, cluster_sources, order_match_edges(edges))
    return union_find.groups()


class TestIncrementalClusters:
    def test_a_better_edge_takes_over_an_earlier_merge(self):
        clusters = _incremental({"a": "s1", "b": "s2", "c": "s1"})
        clusters.add_edge((0.8, "b", "c"))
        clusters.resolve()
        assert _groups(clusters) == [["a"], ["b", "c"]]
        clusters.add_edge((0.9, "a", "b"))
        clusters.resolve()
        # a-b now merges first, which vetoes b-c (a and c share a source).
        assert _groups(clusters) == [["a", "b"], ["c"]]
        assert clusters.merge_logs == {"a": [(-0.9, "a", "b")]}
        assert clusters.cluster_of("b") == "a" and clusters.cluster_of("c") == "c"

    def test_a_removed_merge_lets_a_vetoed_edge_through_and_pulls_in_its_cluster(self):
        clusters = _incremental({"a": "s1", "b": "s2", "c": "s1", "d": "s3"})
        for edge in [(0.9, "a", "b"), (0.8, "b", "c"), (0.7, "c", "d")]:
            clusters.add_edge(edge)
        clusters.resolve()
        assert _groups(clusters) == [["a", "b"], ["c", "d"]]
        # Only a's cluster holds the removed edge; c's is reached through
        # b-c, which merges now, and must then replay c-d on top of it.
        clusters.remove_edge("a", "b")
        assert clusters.resolve() == 2
        assert _groups(clusters) == [["a"], ["b", "c", "d"]]
        assert clusters.merge_logs == {"b": [(-0.8, "b", "c"), (-0.7, "c", "d")]}
        assert clusters.num_edges == 2

    def test_the_far_cluster_is_read_as_it_stood_at_the_edges_key(self):
        # r-p was vetoed through t.  Once r-t goes, r-p (0.7) meets p *before*
        # p-q (0.5) merged: q's source must not veto it, and p-q is then
        # vetoed in turn.
        sources = {"p": "s1", "q": "s2", "r": "s2", "t": "s1"}
        clusters = _incremental(sources)
        for edge in [(0.9, "r", "t"), (0.7, "p", "r"), (0.5, "p", "q")]:
            clusters.add_edge(edge)
        clusters.resolve()
        assert _groups(clusters) == [["p", "q"], ["r", "t"]]
        clusters.remove_edge("r", "t")
        clusters.resolve()
        assert _groups(clusters) == [["p", "r"], ["q"], ["t"]]

    def test_an_edge_vetoed_again_leaves_the_far_cluster_alone(self):
        clusters = _incremental({"a": "s1", "b": "s2", "c": "s1", "d": "s2", "f": "s3"})
        for edge in [(0.9, "a", "b"), (0.8, "c", "d"), (0.6, "b", "c"), (0.55, "a", "f")]:
            clusters.add_edge(edge)
        assert clusters.resolve() == 4
        assert _groups(clusters) == [["a", "b", "f"], ["c", "d"]]
        clusters.add_record("e", "s3")
        clusters.add_edge((0.7, "d", "e"))
        # c's cluster and e rewind to 0.7: d-e merges, b-c is vetoed as it
        # was, so a's cluster is never rewound and a-f is not scanned again.
        assert clusters.resolve() == 2
        assert _groups(clusters) == [["a", "b", "f"], ["c", "d", "e"]]

    def test_without_source_consistency_it_is_the_transitive_closure(self):
        clusters = _incremental({"a": "s1", "b": "s1", "c": "s1"}, source_consistent=False)
        clusters.add_edge((0.9, "a", "b"))
        clusters.add_edge((0.6, "b", "c"))
        clusters.resolve()
        assert _groups(clusters) == [["a", "b", "c"]]
        clusters.remove_edge("a", "b")
        clusters.resolve()
        assert _groups(clusters) == [["a"], ["b", "c"]]

    def test_duplicate_records_and_edges_are_rejected(self):
        clusters = _incremental({"a": "s1", "b": "s2"})
        with pytest.raises(ValueError, match="already"):
            clusters.add_record("a", "s3")
        clusters.add_edge((0.9, "a", "b"))
        with pytest.raises(ValueError, match="already"):
            clusters.add_edge((0.7, "a", "b"))

    @pytest.mark.parametrize("source_consistent", [True, False])
    def test_random_edge_changes_equal_resolving_from_singletons(self, source_consistent):
        rng = random.Random(7)
        for _ in range(60):
            sources = {f"r{i:02d}": f"s{rng.randrange(3)}" for i in range(rng.randint(3, 12))}
            ids = sorted(sources)
            clusters = _incremental(sources, source_consistent)
            edges = {}
            for _ in range(25):
                for _ in range(rng.randint(1, 3)):
                    left, right = sorted(rng.sample(ids, 2))
                    if (left, right) in edges:
                        del edges[left, right]
                        clusters.remove_edge(*rng.sample([left, right], 2))
                    else:
                        # Few score levels, so ties are settled by record id.
                        edges[left, right] = (rng.choice([0.6, 0.7, 0.9]), left, right)
                        clusters.add_edge(edges[left, right])
                clusters.resolve()
                assert clusters.num_edges == len(edges)
                assert _groups(clusters) == _from_singletons(
                    sources, edges.values(), source_consistent)
                rebuilt = _incremental(sources, source_consistent)
                for edge in edges.values():
                    rebuilt.add_edge(edge)
                rebuilt.resolve()
                assert clusters.merge_logs == rebuilt.merge_logs


class TestPairwiseClusterMetrics:
    def test_perfect_clustering(self):
        assignments = {"a": 0, "b": 0, "c": 1, "d": 1}
        truth = {"a": "x", "b": "x", "c": "y", "d": "y"}
        metrics = pairwise_cluster_metrics(assignments, truth)
        assert metrics["pairwise_precision"] == 1.0
        assert metrics["pairwise_recall"] == 1.0
        assert metrics["pairwise_f1"] == 1.0

    def test_one_merge_error(self):
        # Everything in one cluster: recall perfect, precision 2/6.
        assignments = {"a": 0, "b": 0, "c": 0, "d": 0}
        truth = {"a": "x", "b": "x", "c": "y", "d": "y"}
        metrics = pairwise_cluster_metrics(assignments, truth)
        assert metrics["pairwise_recall"] == 1.0
        assert metrics["pairwise_precision"] == pytest.approx(2 / 6)

    def test_records_without_truth_are_ignored(self):
        assignments = {"a": 0, "b": 0, "z": 0}
        truth = {"a": "x", "b": "x"}
        metrics = pairwise_cluster_metrics(assignments, truth)
        assert metrics["evaluated_records"] == 2.0
        assert metrics["pairwise_precision"] == 1.0


class TestClusteringStage:
    def test_thresholded_connected_components(self):
        records = [_record("a", "s1"), _record("b", "s2"),
                   _record("c", "s3"), _record("d", "s4")]
        scored = _scored(records, [("a", "b", 0.9), ("b", "c", 0.8), ("c", "d", 0.2)])
        result = ClusteringStage(threshold=0.5).run(records, scored)
        assert result.clusters == [["a", "b", "c"], ["d"]]
        assert result.stats["num_singletons"] == 1.0

    def test_transitivity_violations_reported(self):
        records = [_record("a", "s1"), _record("b", "s2"), _record("c", "s3")]
        # a-b and b-c merge, but the model rejected a-c: one violation.
        scored = _scored(records, [("a", "b", 0.9), ("b", "c", 0.8), ("a", "c", 0.1)])
        result = ClusteringStage(threshold=0.5).run(records, scored)
        assert result.clusters == [["a", "b", "c"]]
        assert result.violations == [("a", "c", 0.1)]
        assert result.stats["transitivity_violations"] == 1.0
        assert result.stats["transitivity_violation_rate"] == 1.0

    def test_source_consistency_vetoes_same_source_merges(self):
        records = [_record("a", "s1"), _record("b", "s2"), _record("c", "s1")]
        # b matches both a and c, but a and c share a source; the higher
        # scoring edge wins and the weaker merge is vetoed.
        scored = _scored(records, [("a", "b", 0.9), ("b", "c", 0.8)])
        result = ClusteringStage(threshold=0.5).run(records, scored)
        assert result.clusters == [["a", "b"], ["c"]]
        assert result.stats["source_conflicts"] == 1.0
        relaxed = ClusteringStage(threshold=0.5, source_consistent=False).run(records, scored)
        assert relaxed.clusters == [["a", "b", "c"]]

    def test_edge_order_invariance(self):
        records = [_record(f"r{i}", f"s{i}") for i in range(8)]
        edges = [("r0", "r1", 0.95), ("r1", "r2", 0.8), ("r3", "r4", 0.7),
                 ("r4", "r5", 0.9), ("r6", "r7", 0.3), ("r2", "r3", 0.4)]
        reference = None
        rng = random.Random(1)
        for _ in range(5):
            shuffled = edges[:]
            rng.shuffle(shuffled)
            result = ClusteringStage(threshold=0.5).run(records, _scored(records, shuffled))
            if reference is None:
                reference = result.clusters
            assert result.clusters == reference

    def test_ground_truth_metrics_when_entity_ids_present(self):
        records = [_record("a", "s1", "x"), _record("b", "s2", "x"),
                   _record("c", "s3", "y"), _record("d", "s4", "y")]
        scored = _scored(records, [("a", "b", 0.9), ("c", "d", 0.9)])
        result = ClusteringStage(threshold=0.5).run(records, scored)
        assert result.stats["pairwise_f1"] == 1.0

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            ClusteringStage(threshold=1.5)

    def test_scored_pairs_outside_record_set_rejected(self):
        records = [_record("a", "s1"), _record("b", "s2")]
        stranger = _record("z", "s3")
        scored = _scored(records + [stranger], [("a", "z", 0.9)])
        with pytest.raises(ValueError, match="not in `records`"):
            ClusteringStage().run(records, scored)
