"""Unit tests of the harness's own arithmetic (opt-in, like all of ``benchmarks/``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json

import pytest

from e2e import harness
from e2e.trace import Span, Target, Tracer, _holders, self_seconds


# ---------------------------------------------------------------------- #
# Percentiles and the "ten samples beyond" rule
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("count, expected", [
    (39, None), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_point_needs_ten_samples_beyond(count, expected):
    assert harness.tail_point(count) == expected


def test_spread_is_interquartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert harness.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert harness.spread([3.0]) == 0.0


# ---------------------------------------------------------------------- #
# Open loop: latency from the due time, lag reported
# ---------------------------------------------------------------------- #
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_charges_a_stall_to_every_request_it_delayed():
    clock = FakeClock()

    def send(payload: int) -> int:
        clock.now += 0.050 if payload == 3 else 0.001   # one injected 50 ms stall
        return payload

    due = [0.010 * k for k in range(10)]
    samples = harness.run_schedule(send, list(range(10)), due, clock=clock,
                                   sleep=clock.sleep)

    assert samples.results == list(range(10))
    # Before the stall: sent on time, latency = service time.
    assert samples.lags[:4] == pytest.approx([0.0] * 4)
    assert samples.latencies[:3] == pytest.approx([0.001] * 3)
    # The stalled request, then the backlog it caused: each later request was
    # served in 1 ms but left late, and its latency counts from when it was due.
    assert samples.latencies[3] == pytest.approx(0.050)
    assert samples.lags[4:8] == pytest.approx([0.040, 0.031, 0.022, 0.013])
    assert samples.latencies[4:8] == pytest.approx([0.041, 0.032, 0.023, 0.014])
    assert samples.service[4:8] == pytest.approx([0.001] * 4)
    # Caught up again.
    assert samples.lags[9] == pytest.approx(0.0)
    assert samples.latencies[9] == pytest.approx(0.001)


def test_closed_loop_sends_only_after_the_reply():
    clock = FakeClock()

    def send(payload: str) -> str:
        clock.now += 0.004
        return payload

    samples = harness.run_closed(send, ["a", "b"], deadline=0.010, clock=clock)
    assert samples.results == ["a", "b", "a"]        # sent at 0, 4, 8 ms; 12 ms is late
    assert samples.latencies == pytest.approx([0.004] * 3)


# ---------------------------------------------------------------------- #
# Self time on a hand-built span tree
# ---------------------------------------------------------------------- #
def _tree():
    root = Span("serve.service", "LinkageService.upsert", 0.0, 10.0, op=7)
    first = Span("serve.store", "EntityStore.upsert", 1.0, 4.0, parent=root, op=7)
    second = Span("serve.coalescer", "RequestCoalescer.score", 5.0, 9.0, parent=root, op=7)
    inner = Span("storage.wal", "WriteAheadLog.append", 6.0, 7.0, parent=second, op=7)
    executor = Span("infer.predictor", "BatchedPredictor.predict_proba", 5.5, 8.5,
                    op="batch-0")
    return [first, inner, second, executor, root]    # completion order


def test_self_time_is_duration_minus_direct_children():
    assert self_seconds(_tree()) == pytest.approx([3.0, 1.0, 3.0, 3.0, 3.0])


def test_layer_metrics_cover_share_counts_client_side_spans_only():
    metrics = harness.layer_metrics(_tree(), busy_s=10.0)
    # 3 + 1 + 3 + 3 = the whole root; the executor root is not added on top.
    assert metrics["bench.layer_cover_share"] == pytest.approx(1.0)
    assert metrics["serve.coalescer.blocked_s"] == pytest.approx(4.0)
    assert metrics["serve.coalescer.executor_busy_s"] == pytest.approx(3.0)
    assert metrics["serve.store.upsert_self_s"] == pytest.approx(3.0)
    assert metrics["storage.wal.append_s"] == pytest.approx(1.0)


# ---------------------------------------------------------------------- #
# Wrappers: install, record, uninstall
# ---------------------------------------------------------------------- #
def test_install_then_uninstall_restores_identical_objects():
    import e2e.workloads  # noqa: F401  (loads every module a run uses, as run.py does)

    tracer = Tracer()
    before = [(holder, attr, vars(holder)[attr])
              for target in tracer.targets for holder, attr, _ in _holders(target)]
    tracer.install()
    try:
        assert len(tracer.patched()) == len(before)
        for holder, attr, original in before:
            assert vars(holder)[attr] is not original
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    for holder, attr, original in before:
        assert vars(holder)[attr] is original
    assert tracer.patched() == []


def test_function_is_rebound_in_every_importing_namespace_and_spans_nest():
    import repro.pipeline.clustering as clustering
    import repro.serve.store as store

    targets = (Target("pipeline.clustering", "repro.pipeline.clustering",
                      "order_match_edges", count=lambda args, result: len(result)),
               Target("pipeline.clustering", "repro.pipeline.clustering",
                      "UnionFind.groups"))
    tracer = Tracer(targets)
    edges = [(0.9, "a", "b"), (0.7, "b", "c")]
    tracer.install()
    try:
        assert store.order_match_edges is clustering.order_match_edges
        assert store.order_match_edges(edges) == edges      # passes through while off
        assert tracer.spans == []
        tracer.enabled = True
        tracer.set_op(41)
        assert store.order_match_edges(list(reversed(edges))) == edges
        clustering.UnionFind("abc").groups()
        tracer.enabled = False
    finally:
        tracer.uninstall()
    ordered, groups = tracer.spans
    assert (ordered.name, ordered.layer, ordered.count, ordered.op) == (
        "order_match_edges", "pipeline.clustering", 2, 41)
    assert groups.parent is None and groups.end >= groups.start >= ordered.end


# ---------------------------------------------------------------------- #
# Inputs: a function of the seed and the unit's index, unit 0 of neither
# ---------------------------------------------------------------------- #
def test_unit_zero_is_the_same_for_every_seed_and_the_rest_never_collide():
    from e2e.workloads import BatchLink, ServeIngest, TrainAdapt

    for cls in (BatchLink, ServeIngest):
        assert cls(3).unit_seed(0) == cls(8).unit_seed(0) == cls.REFERENCE_SEED
        seeded = [cls(seed).unit_seed(index) for seed in range(30) for index in range(1, 40)]
        assert len(set(seeded)) == len(seeded)
        assert cls.REFERENCE_SEED not in seeded
        assert cls(3).unit_seed(5) == cls(3).unit_seed(5)    # both halves of a traced run
    # Every seeded fit of train_adapt shares one training seed: they must agree.
    assert [TrainAdapt(4).unit_seed(index) for index in range(4)] == [0, 4, 4, 4]


# ---------------------------------------------------------------------- #
# BENCHMARK.json says what the harness reports
# ---------------------------------------------------------------------- #
def test_benchmark_json_matches_the_harness_tables():
    path = harness.ROOT / "BENCHMARK.json"
    declared = json.loads(path.read_text(encoding="utf-8"))
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["workloads"] == [{"name": w.name, "why": w.why}
                                     for w in harness.WORKLOADS]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in harness.END_TO_END]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in harness.PER_LAYER]
    assert all(len(w.why) <= 200 for w in harness.WORKLOADS)
    assert all(0 < m.bound <= 0.25 for m in harness.END_TO_END)
