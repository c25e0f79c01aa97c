"""``LinkagePipeline.run`` is a function of the record set, not of its order.

For a corpus with unique record ids, any permutation of the input must give
the same candidate id pairs in the same order, the same score bytes, the same
clusters, assignments and violations, and equal stats at every stage (all
but the score stage's wall-clock ``pairs_per_second``).  The corpus is a
drawn subset of the tiny music corpus, so blocking, scoring and clustering
all see real attribute values.  CI runs this module with
``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdaMELHybrid
from repro.data.records import pair_record_ids
from repro.infer import BatchedPredictor
from repro.pipeline import LinkagePipeline


@pytest.fixture(scope="module")
def predictor(music_scenario, fast_config):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    # A small micro-batch: permutations must not move a pair across batches.
    return BatchedPredictor(trainer.encoder, trainer.network, micro_batch_size=16)


def _outputs(result):
    """Everything a run reports that must not depend on record order."""
    stats = {key: value for key, value in result.scored.stats.items()
             if key != "pairs_per_second"}
    return (pair_record_ids(result.candidates.pairs), result.scored.scores.tobytes(),
            result.clusters.clusters, list(result.clusters.assignments.items()),
            result.clusters.violations, result.index_stats, result.candidates.stats,
            stats, result.clusters.stats)


@given(data=st.data())
@settings(deadline=None)
def test_linkage_is_invariant_under_record_permutations(predictor, tiny_music_corpus,
                                                        data):
    records = tiny_music_corpus.records
    assert len({record.record_id for record in records}) == len(records)
    size = data.draw(st.integers(2, 60), label="size")
    # The first ``size`` positions of a permutation: a drawn subset, in a drawn order.
    chosen = data.draw(st.permutations(range(len(records))), label="order")[:size]
    corpus = [records[index] for index in sorted(chosen)]
    shuffled = [records[index] for index in chosen]
    pipeline = LinkagePipeline(predictor)
    assert _outputs(pipeline.run(shuffled)) == _outputs(pipeline.run(corpus))
