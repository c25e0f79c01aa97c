"""Tests for the graph-capture/replay executor (``repro.nn.graph``).

The central contract: with float64 data, replaying a captured graph for new
inputs produces *bit-identical* values and gradients to rebuilding and
backpropagating the eager graph for the same inputs.
"""

import numpy as np
import pytest

import repro.nn.graph
from repro.nn import MLP, Adam, binary_cross_entropy
from repro.nn import functional as F
from repro.nn.attention import AdditiveAttention
from repro.nn.graph import CompiledGraph, GraphShapeMismatch, StepGraphs, Tape
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor, no_grad, recomputed_leaf


def _toy_model(seed: int):
    rng = np.random.default_rng(seed)
    attention = AdditiveAttention(6, 4, rng=rng)
    classifier = MLP(5 * 6, [8], 1, rng=rng)
    return attention, classifier


def _toy_loss(attention, classifier, feat_t, lab_t):
    scores = attention(feat_t)                       # (N, F)
    scaled = F.relu(scores.unsqueeze(-1) * feat_t)   # (N, F, H)
    flat = scaled.reshape(feat_t.shape[0], 5 * 6)
    probs = classifier.forward_sigmoid(flat).squeeze(-1)
    return binary_cross_entropy(probs, lab_t)


class TestCompiledGraphTraining:
    def test_replay_is_bit_exact_with_eager(self):
        rng = np.random.default_rng(0)
        batches = [(rng.normal(size=(4, 5, 6)), rng.integers(0, 2, 4).astype(float))
                   for _ in range(4)]

        # Eager run.
        att_e, clf_e = _toy_model(3)
        params_e = att_e.parameters() + clf_e.parameters()
        opt_e = Adam(params_e, lr=1e-2)
        eager_losses = []
        for feats, labs in batches:
            loss = _toy_loss(att_e, clf_e, Tensor(feats), Tensor(labs))
            opt_e.zero_grad()
            loss.backward()
            opt_e.step()
            eager_losses.append(float(loss.data))

        # Capture once, replay the rest.
        att_r, clf_r = _toy_model(3)
        params_r = att_r.parameters() + clf_r.parameters()
        opt_r = Adam(params_r, lr=1e-2)
        tape = Tape()
        with tape:
            feat_t = Tensor(batches[0][0])
            lab_t = Tensor(batches[0][1])
            loss = _toy_loss(att_r, clf_r, feat_t, lab_t)
        graph = CompiledGraph(tape, inputs={"features": feat_t, "labels": lab_t},
                              loss=loss)
        opt_r.zero_grad()
        loss.backward()
        opt_r.step()
        replay_losses = [float(loss.data)]
        for feats, labs in batches[1:]:
            replay_losses.append(graph.step({"features": feats, "labels": labs}))
            opt_r.step()

        assert eager_losses == replay_losses
        for a, b in zip(params_e, params_r):
            assert np.array_equal(a.data, b.data)

    def test_shape_mismatch_raises(self):
        att, clf = _toy_model(0)
        tape = Tape()
        with tape:
            feat_t = Tensor(np.zeros((4, 5, 6)))
            lab_t = Tensor(np.zeros(4))
            loss = _toy_loss(att, clf, feat_t, lab_t)
        graph = CompiledGraph(tape, inputs={"features": feat_t, "labels": lab_t},
                              loss=loss)
        with pytest.raises(GraphShapeMismatch):
            graph.step({"features": np.zeros((3, 5, 6)), "labels": np.zeros(3)})

    def test_unknown_input_rejected(self):
        tape = Tape()
        with tape:
            x = Tensor(np.zeros(3), requires_grad=True)
            loss = (x * x).sum()
        graph = CompiledGraph(tape, inputs={"x": x}, loss=loss)
        with pytest.raises(KeyError):
            graph.load_inputs({"bogus": np.zeros(3)})

    def test_loss_must_be_scalar_and_grad_connected(self):
        tape = Tape()
        with tape:
            x = Tensor(np.zeros(3), requires_grad=True)
            vector = x * 2.0
        with pytest.raises(ValueError):
            CompiledGraph(tape, inputs={}, loss=vector)
        with no_grad():
            tape2 = Tape()
            with tape2:
                y = Tensor(np.zeros(3), requires_grad=True)
                out = (y * 2.0).sum()
        with pytest.raises(ValueError):
            CompiledGraph(tape2, inputs={}, loss=out)

    def test_nested_capture_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError):
                with Tape():
                    pass
        # The failed nested enter must not clobber capture state.
        with Tape():
            pass

    def test_op_counters_exposed(self):
        att, clf = _toy_model(0)
        tape = Tape()
        with tape:
            feat_t = Tensor(np.zeros((4, 5, 6)))
            lab_t = Tensor(np.zeros(4))
            loss = _toy_loss(att, clf, feat_t, lab_t)
        graph = CompiledGraph(tape, inputs={}, loss=loss)
        assert graph.num_forward_ops > 0
        assert graph.num_backward_ops > 0
        assert graph.num_nodes >= graph.num_backward_ops


def _step_graphs_fit(sizes, capture=True, epochs=2):
    """Train the toy model through a StepGraphs on batches of ``sizes`` rows."""
    att, clf = _toy_model(3)
    params = att.parameters() + clf.parameters()
    steps = StepGraphs(Adam(params, lr=1e-2), grad_clip=1.0, capture=capture)
    rng = np.random.default_rng(0)
    losses = []
    for _ in range(epochs):
        for size in sizes:
            feats = rng.normal(size=(size, 5, 6))
            labs = rng.integers(0, 2, size).astype(float)

            def build():
                feat_t, lab_t = Tensor(feats.copy()), Tensor(labs.copy())
                loss = _toy_loss(att, clf, feat_t, lab_t)
                return {"features": feat_t, "labels": lab_t}, loss, loss

            def fill(graph):
                graph.load_inputs({"features": feats, "labels": labs})

            losses.append(float(steps.step(size, build, fill).data))
    return steps, losses, [p.data.copy() for p in params]


class TestStepGraphs:
    def test_sizes_past_the_cap_run_eager_bit_exact(self, monkeypatch):
        sizes = list(range(1, repro.nn.graph.MAX_STEP_GRAPHS + 5))
        steps, losses, params = _step_graphs_fit(sizes)
        # The first MAX_STEP_GRAPHS sizes are recorded, the rest stay eager.
        assert sorted(steps._graphs) == sizes[:repro.nn.graph.MAX_STEP_GRAPHS]
        assert steps.stats()["forward_ops"] > 0
        monkeypatch.setattr(repro.nn.graph, "MAX_STEP_GRAPHS", 0)
        eager, eager_losses, eager_params = _step_graphs_fit(sizes)
        assert not eager._graphs and eager.stats() is None
        assert losses == eager_losses
        for a, b in zip(params, eager_params):
            assert np.array_equal(a, b)

    def test_capture_off_records_nothing(self):
        steps, losses, params = _step_graphs_fit([4, 3], capture=False)
        assert not steps._graphs and steps.stats() is None
        _, replay_losses, replay_params = _step_graphs_fit([4, 3])
        assert losses == replay_losses
        for a, b in zip(params, replay_params):
            assert np.array_equal(a, b)

    def test_release_drops_every_graph(self):
        steps, _, _ = _step_graphs_fit([4, 3], epochs=1)
        graph = steps._graphs[4]
        steps.release()
        assert not steps._graphs and steps.stats() is None
        with pytest.raises(RuntimeError):
            graph.backward()


class TestForwardOnlyGraph:
    def test_forward_graph_tracks_parameter_updates(self):
        rng = np.random.default_rng(1)
        att = AdditiveAttention(6, 4, rng=rng)
        features = rng.normal(size=(5, 3, 6))
        with no_grad():
            tape = Tape()
            with tape:
                feat_t = Tensor(features)
                out = att(feat_t)
        graph = CompiledGraph(tape, inputs={})
        first = out.data.copy()
        # Update parameters in place, replay, and compare with a fresh eager
        # forward — must match bit for bit.
        att.W.data += 0.05
        att.a.data -= 0.05
        graph.forward()
        with no_grad():
            expected = att(Tensor(features)).data
        assert not np.array_equal(first, out.data)
        assert np.array_equal(out.data, expected)


class TestRecomputedLeaf:
    def test_plain_constant_outside_capture(self):
        calls = []

        def compute():
            calls.append(1)
            return np.ones(3)

        leaf = recomputed_leaf(compute)
        assert len(calls) == 1
        assert np.array_equal(leaf.data, np.ones(3))

    def test_refreshed_on_replay(self):
        source = np.ones(3)
        tape = Tape()
        with tape:
            x = Tensor(np.zeros(3), requires_grad=True)
            leaf = recomputed_leaf(lambda: source * 2.0)
            loss = (x * leaf).sum()
        graph = CompiledGraph(tape, inputs={"x": x}, loss=loss)
        source[:] = 5.0
        graph.step({"x": np.ones(3)})
        assert np.array_equal(leaf.data, np.full(3, 10.0))
        assert np.array_equal(x.grad, np.full(3, 10.0))

    def test_softmax_shift_is_capture_safe(self):
        tape = Tape()
        with tape:
            x = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
            out = F.softmax(x, axis=-1)
            loss = (out * out).sum()
        graph = CompiledGraph(tape, inputs={"x": x}, loss=loss)
        # Replay with much larger values: a stale max-shift would overflow.
        graph.step({"x": np.array([[1000.0, 1000.0, 1000.0]])})
        assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])

    def test_dropout_draws_fresh_mask_per_replay(self):
        rng_replay = np.random.default_rng(9)
        tape = Tape()
        with tape:
            x = Tensor(np.ones((64,)), requires_grad=True)
            out = F.dropout(x, 0.5, rng_replay, training=True)
            loss = out.sum()
        graph = CompiledGraph(tape, inputs={"x": x}, loss=loss)
        first = out.data.copy()
        graph.step({"x": np.ones(64)})
        assert not np.array_equal(first, out.data)
        # Consumption matches an eager run with the same generator.
        rng_eager = np.random.default_rng(9)
        expected_first = Tensor(np.ones(64)) * Tensor(
            (rng_eager.random((64,)) >= 0.5).astype(np.float64) / 0.5)
        assert np.array_equal(first, expected_first.data)


class TestZeroDimLeaf:
    def test_gradient_is_zeroed_between_replays(self):
        """A 0-d leaf broadcast into a larger op: its gradient must be an
        array the replay can zero in place, not a numpy scalar that grows
        by one step's gradient per replay."""
        tape = Tape()
        with tape:
            a = Tensor(np.ones((2, 2)), requires_grad=True)
            b = Tensor(np.array(0.5), requires_grad=True)
            loss = ((a + b) * Tensor(np.full((2, 2), 3.0))).sum()
        graph = CompiledGraph(tape, inputs={}, loss=loss)
        loss.backward()
        assert isinstance(b.grad, np.ndarray) and b.grad == 12.0
        for _ in range(2):
            graph.step()
            assert b.grad == 12.0


class TestDivisionBackward:
    def test_division_backward_reuses_forward_output(self):
        """Satellite: d(a/b)/db = -out/b must equal the textbook -a/b²."""
        rng = np.random.default_rng(2)
        a_data = rng.normal(size=(4, 3))
        b_data = rng.normal(size=(4, 3)) + 3.0
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a / b).sum().backward()
        assert np.allclose(b.grad, -a_data / b_data ** 2, rtol=1e-12, atol=1e-12)
        assert np.allclose(a.grad, 1.0 / b_data, rtol=1e-12, atol=1e-12)

    def test_division_gradcheck(self):
        from repro.nn.gradcheck import check_gradient
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)) + 2.5, requires_grad=True)
        check_gradient(lambda: ((a / b) ** 2).sum(), [a, b])
