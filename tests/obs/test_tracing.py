"""Span tracing: nesting, attributes, error tagging, collector bounds."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs.tracing import NOOP_SPAN, Span, TraceCollector


class TestTraceScope:
    def test_disabled_trace_yields_the_noop_span(self):
        with obs.trace("pipeline.run", records=3) as span:
            assert span is NOOP_SPAN
        span.set("key", "value")  # must be inert

    def test_nested_spans_build_a_tree(self):
        with obs.telemetry() as session:
            with obs.trace("pipeline.run") as root:
                with obs.trace("ingest", chunk=0) as child:
                    with obs.trace("parse"):
                        pass
                with obs.trace("block"):
                    pass
        roots = session.collector.roots()
        assert [span.name for span in roots] == ["pipeline.run"]
        assert [span.name for span in root.children] == ["ingest", "block"]
        assert child.attributes == {"chunk": 0}
        assert [span.name for span in child.children] == ["parse"]
        assert root.seconds >= sum(c.seconds for c in root.children) >= 0.0
        assert root.cpu_seconds >= 0.0

    def test_exceptions_are_tagged_and_reraised(self):
        with obs.telemetry() as session:
            with pytest.raises(RuntimeError):
                with obs.trace("serve.upsert"):
                    raise RuntimeError("boom")
        (root,) = session.collector.roots()
        assert root.attributes["error"] == "RuntimeError"
        assert root.seconds >= 0.0  # finished despite the exception

    def test_current_span_tracks_the_stack(self):
        assert obs.current_span() is None
        with obs.telemetry():
            with obs.trace("outer") as outer:
                assert obs.current_span() is outer
                with obs.trace("inner") as inner:
                    assert obs.current_span() is inner
                assert obs.current_span() is outer
            assert obs.current_span() is None

    def test_span_to_dict_round_trips_the_tree(self):
        with obs.telemetry() as session:
            with obs.trace("pipeline.run", records=5) as root:
                root.set("candidates", 9)
                with obs.trace("score"):
                    pass
        tree = session.collector.roots()[0].to_dict()
        assert tree["name"] == "pipeline.run"
        assert tree["attributes"] == {"records": 5, "candidates": 9}
        assert [child["name"] for child in tree["children"]] == ["score"]
        assert tree["seconds"] >= tree["children"][0]["seconds"]

    def test_from_dict_inverts_to_dict(self):
        with obs.telemetry() as session:
            with obs.trace("score", pairs=9):
                with obs.trace("sharded.worker", shard=2):
                    pass
        (root,) = session.collector.roots()
        rebuilt = Span.from_dict(root.to_dict())
        assert rebuilt.to_dict() == root.to_dict()
        assert [child.name for child in rebuilt.children] == ["sharded.worker"]
        assert rebuilt.children[0].attributes == {"shard": 2}


class TestCollector:
    def test_collector_keeps_a_bounded_deque_of_roots(self):
        collector = TraceCollector(max_roots=3)
        obs.set_active_collector(collector)
        try:
            for index in range(5):
                with obs.trace("serve.query", index=index):
                    pass
        finally:
            obs.set_active_collector(None)
        roots = collector.roots()
        assert len(roots) == 3
        assert [span.attributes["index"] for span in roots] == [2, 3, 4]

    def test_threads_build_independent_trees(self):
        with obs.telemetry() as session:
            barrier = threading.Barrier(2)

            def worker(name):
                with obs.trace(name):
                    barrier.wait(timeout=5)
                    with obs.trace("inner"):
                        pass

            threads = [threading.Thread(target=worker, args=(f"root-{i}",))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        roots = session.collector.roots()
        # Two independent roots, each with exactly its own child — no
        # cross-thread adoption despite overlapping lifetimes.
        assert sorted(span.name for span in roots) == ["root-0", "root-1"]
        assert all([c.name for c in span.children] == ["inner"] for span in roots)
