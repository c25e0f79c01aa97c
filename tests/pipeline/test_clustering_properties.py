"""``ClusteringStage`` on record-id ranks equals the greedy walked by record id.

The oracle (``clustering_oracle.cluster_by_id``) clusters by string id, one
pair object at a time.  Records come from 2-4 sources and may share ids;
scores are drawn from a few values so that equal-score ties and scores exactly
at the threshold are common.  Every form of ``scored.pairs`` the stage reads
is checked: a ``PairColumns`` view over the clustered records (its ranks), a
view over equal copies of them and a plain pair list (both mapped by id).
CI runs this module with ``--hypothesis-profile=ci`` and under two
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.records import EntityPair, PairColumns, Record
from repro.pipeline import ClusteringStage, PipelineConfig, PipelineResult
from repro.pipeline.candidates import CandidateResult
from repro.pipeline.scoring import ScoredCandidates

from clustering_oracle import cluster_by_id

SCORES = [0.0, 0.2, 0.5, 0.5, 0.7, 0.9, 0.9, 1.0]


@st.composite
def _linkage(draw):
    """Records over 2-4 sources, candidate position pairs and their scores."""
    num_sources = draw(st.integers(2, 4))
    count = draw(st.integers(1, 12))
    shared_ids = draw(st.booleans())
    records = []
    for i in range(count):
        number = draw(st.integers(0, max(count // 2, 1))) if shared_ids else i
        # Records sharing an id mostly name one entity, sometimes another or none.
        entity = draw(st.sampled_from([f"e{number % 4}", f"e{number % 4}",
                                       f"e{(number + 1) % 4}", None]))
        records.append(Record(record_id=f"r{number:02d}",
                              source=f"s{draw(st.integers(0, num_sources - 1))}",
                              attributes={"name": f"r{number}"}, entity_id=entity))
    positions = st.integers(0, count - 1)
    pairs = draw(st.lists(st.tuples(positions, positions), max_size=3 * count))
    scores = draw(st.lists(st.one_of(st.sampled_from(SCORES), st.floats(0.0, 1.0)),
                           min_size=len(pairs), max_size=len(pairs)))
    threshold = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    return records, pairs, np.array(scores, dtype=np.float64), threshold


def _assert_equal(result, expected):
    assert result.clusters == expected.clusters
    assert result.assignments == expected.assignments
    assert list(result.assignments) == list(expected.assignments)
    assert result.violations == expected.violations
    assert result.stats == expected.stats


@given(_linkage(), st.booleans())
def test_clustering_equals_the_id_walk(linkage, source_consistent):
    records, positions, scores, threshold = linkage
    left = [lo for lo, _ in positions]
    right = [hi for _, hi in positions]
    stage = ClusteringStage(threshold=threshold, source_consistent=source_consistent)
    view = PairColumns(records, left, right)
    expected = cluster_by_id(records, ScoredCandidates(pairs=view, scores=scores),
                             threshold, source_consistent)
    copies = [Record(record_id=r.record_id, source=r.source, attributes=dict(r.attributes),
                     entity_id=r.entity_id) for r in records]
    for pairs in (view, PairColumns(copies, left, right), list(view)):
        _assert_equal(stage.run(list(records), ScoredCandidates(pairs=pairs, scores=scores)),
                      expected)


def test_pairs_naming_unknown_records_are_rejected():
    records = [Record("a", "s1", {}), Record("b", "s2", {})]
    stranger = Record("z", "s3", {})
    stage = ClusteringStage()
    for pairs in ([EntityPair(records[0], stranger)],
                  PairColumns(records + [stranger], [0], [2])):
        with pytest.raises(ValueError, match="not in `records`"):
            stage.run(records, ScoredCandidates(pairs=pairs, scores=np.array([0.9])))


class TestDuplicateRecordIds:
    """Records sharing an id are one node whose sources are all of theirs: the
    veto, the written ``sources`` and the pairwise metrics do not depend on
    record order."""

    ORDERS = [[("a", "s1"), ("a", "s2"), ("b", "s1")],
              [("a", "s2"), ("a", "s1"), ("b", "s1")]]

    @pytest.mark.parametrize("order", ORDERS, ids=["a@s1 first", "a@s2 first"])
    def test_the_veto_reads_every_source_of_an_id(self, order):
        records = [Record(record_id, source, {"name": record_id})
                   for record_id, source in order]
        by_id = {record.record_id: record for record in records}
        scored = ScoredCandidates(pairs=[EntityPair(by_id["a"], by_id["b"])],
                                  scores=np.array([0.9]))
        result = ClusteringStage().run(records, scored)
        # b@s1 would share s1 with a@s1, whichever of a's records came last.
        assert result.clusters == [["a"], ["b"]]
        assert result.stats["source_conflicts"] == 1.0
        assert result.stats["num_match_edges"] == 0.0

    def test_written_sources_are_every_source_of_an_id(self, tmp_path):
        records = [Record(record_id, source, {"name": record_id})
                   for record_id, source in self.ORDERS[1]]
        scored = ScoredCandidates(pairs=PairColumns(records, [], []), scores=np.zeros(0))
        result = PipelineResult(
            records=records, candidates=CandidateResult(pairs=scored.pairs), scored=scored,
            clusters=ClusteringStage().run(records, scored), stage_seconds={},
            config=PipelineConfig())
        result.write(tmp_path)
        lines = (tmp_path / "clusters.jsonl").read_text().splitlines()
        assert [(row["record_ids"], row["sources"]) for row in map(json.loads, lines)] == [
            (["a"], ["s1", "s2"]), (["b"], ["s1"])]

    @pytest.mark.parametrize("first", ["e1", "e2"], ids=["a@s1 first", "a@s2 first"])
    def test_an_id_naming_two_entities_is_not_evaluated(self, first):
        """a@s1 (e1), a@s2 (e2), b@s3 (e1), a-b at 0.9: whichever of a's
        records comes last, a has no one entity, so only b is evaluated."""
        second = {"e1": "e2", "e2": "e1"}[first]
        records = [Record("a", f"s{1 if first == 'e1' else 2}", {"name": "a"}, entity_id=first),
                   Record("a", f"s{2 if first == 'e1' else 1}", {"name": "a"},
                          entity_id=second),
                   Record("b", "s3", {"name": "b"}, entity_id="e1")]
        by_id = {record.record_id: record for record in records}
        scored = ScoredCandidates(pairs=[EntityPair(by_id["a"], by_id["b"])],
                                  scores=np.array([0.9]))
        result = ClusteringStage().run(records, scored)
        assert result.clusters == [["a", "b"]]
        assert result.stats["evaluated_records"] == 1.0
        assert (result.stats["pairwise_precision"], result.stats["pairwise_recall"],
                result.stats["pairwise_f1"]) == (0.0, 0.0, 0.0)

    def test_an_id_counts_with_its_records_common_entity(self):
        records = [Record("a", "s1", {"name": "a"}, entity_id=None),
                   Record("a", "s2", {"name": "a"}, entity_id="e1"),
                   Record("b", "s3", {"name": "b"}, entity_id="e1")]
        pairs = PairColumns(records, [1], [2])
        for order in (records, records[::-1]):
            result = ClusteringStage().run(order, ScoredCandidates(pairs=list(pairs),
                                                                    scores=np.array([0.9])))
            assert result.stats["evaluated_records"] == 2.0
            assert result.stats["pairwise_precision"] == result.stats["pairwise_recall"] == 1.0
