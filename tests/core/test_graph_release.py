"""A fitted trainer's compiled graphs are freed by refcount, not by the
cycle collector.

Every recorded node is a cycle with its own closures, and a step graph pins
whole-batch buffers, so a dropped trainer used to sit in memory until a
generation-2 collection happened to run.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core import AdaMELHybrid
from repro.nn import Tensor
from repro.nn.graph import CompiledGraph, Tape


def test_dropped_trainer_leaves_nothing_for_the_cycle_collector(fast_config, music_scenario):
    trainer = AdaMELHybrid(fast_config)
    trainer.fit(music_scenario)
    assert trainer.replay_stats() is not None  # graphs were compiled
    gc.collect()
    gc.disable()
    try:
        del trainer
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_live_trainer_keeps_its_graphs_and_refit_releases_them(fast_config, music_scenario):
    trainer = AdaMELHybrid(fast_config)
    first = trainer.fit(music_scenario)
    stats = trainer.replay_stats()
    assert stats is not None and stats["forward_ops"] > 0 and stats["backward_ops"] > 0
    old_graphs = list(trainer._steps._graphs.values())

    second = trainer.fit(music_scenario)
    # Same seed, same data: the second fit replays the first bit for bit...
    assert second.total_loss == first.total_loss
    assert trainer.replay_stats() == stats
    # ...on fresh graphs; the previous ones were released, not leaked.
    assert all(graph.num_forward_ops == 0 for graph in old_graphs)
    assert all(graph not in old_graphs for graph in trainer._steps._graphs.values())


def test_release_breaks_the_node_cycles_and_keeps_values():
    weight = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    tape = Tape()
    with tape:
        inputs = Tensor(np.ones((3, 2)))
        hidden = (inputs @ weight).sigmoid()
        loss = hidden.sum()
    graph = CompiledGraph(tape, inputs={"x": inputs}, loss=loss)
    graph.step()
    value = hidden.data.copy()
    assert any(node._backward is not None for node in tape.nodes)

    graph.release()
    assert all(node._backward is None and node._forward is None and node._parents == ()
               for node in tape.nodes)
    assert np.array_equal(hidden.data, value)
    assert graph.num_forward_ops == 0 and graph.num_backward_ops == 0
    with pytest.raises(RuntimeError):
        graph.step()
