"""ASCII Gantt timelines: root selection, bar geometry, the CLI flag."""

from __future__ import annotations

from repro import obs
from repro.obs.__main__ import main as obs_main
from repro.obs.export import write_export
from repro.obs.timeline import render_timeline, render_timelines, timeline_roots


def span(name, started_at, seconds, children=(), **attrs):
    node = {"name": name, "started_at": started_at, "seconds": seconds,
            "cpu_seconds": seconds}
    if attrs:
        node["attributes"] = dict(attrs)
    if children:
        node["children"] = list(children)
    return node


def sharded_root():
    workers = [span("sharded.worker", 10.0 + 0.1 * shard, 0.5, shard=shard)
               for shard in range(3)]
    return span("pipeline.run", 10.0, 1.0,
                children=[span("score", 10.0, 0.8, children=workers)])


class TestTimelineRoots:
    def test_prefers_roots_with_worker_spans(self):
        roots = timeline_roots([span("train.epoch", 0.0, 9.0), sharded_root(),
                                span("pipeline.run", 0.0, 2.0)])
        assert [r["seconds"] for r in roots] == [1.0]
        assert roots[0]["children"][0]["name"] == "score"

    def test_falls_back_to_pipeline_shaped_roots_newest_first(self):
        first = span("pipeline.run", 0.0, 1.0)
        second = span("pipeline.run", 5.0, 1.0)
        roots = timeline_roots([first, span("serve.query", 0.0, 9.0), second])
        assert roots == [second, first]

    def test_last_resort_is_the_single_longest_root(self):
        short = span("serve.query", 0.0, 0.1)
        long = span("train.epoch", 0.0, 2.0)
        assert timeline_roots([short, long]) == [long]

    def test_empty_traces(self):
        assert timeline_roots([]) == []
        assert render_timelines([]) == "(no trace trees to render)"


class TestRenderTimeline:
    def test_rows_bars_and_shard_labels(self):
        text = render_timeline(sharded_root(), width=40)
        lines = text.splitlines()
        assert "pipeline.run" in lines[0] and "total 1.0000s" in lines[0]
        assert all("|" in line for line in lines[1:])
        for shard in range(3):
            assert any(f"sharded.worker[shard={shard}]" in line
                       for line in lines)

    def test_bar_position_tracks_start_offset(self):
        root = span("root", 0.0, 1.0,
                    children=[span("late", 0.75, 0.25)])
        text = render_timeline(root, width=40)
        late_row = next(line for line in text.splitlines() if "late" in line)
        bar = late_row.split("|")[1]
        # A span covering the last quarter must start past the midpoint.
        assert bar.index("#") >= 20
        assert bar.rstrip().endswith("#")

    def test_out_of_range_children_clamp_into_the_axis(self):
        root = span("root", 100.0, 1.0,
                    children=[span("skewed", 0.0, 50.0)])
        bar_rows = render_timeline(root, width=40).splitlines()[2:]
        for row in bar_rows:
            bar = row.split("|")[1]
            assert len(bar) == 40

    def test_deep_trees_are_elided(self):
        node = span("leaf", 0.0, 0.1)
        for name in ("d3", "d2", "d1"):
            node = span(name, 0.0, 0.1, children=[node])
        root = span("root", 0.0, 0.1, children=[node])
        text = render_timeline(root, max_depth=3)
        assert "deeper spans elided" in text
        assert "leaf" not in text


class TestCliTimeline:
    @staticmethod
    def export_with_workers(path):
        with obs.telemetry() as session:
            with obs.trace("pipeline.run"):
                with obs.trace("score"):
                    with obs.trace("sharded.worker", shard=0):
                        pass
        return write_export(path, registry=session.registry,
                            collector=session.collector)

    def test_from_export_timeline_renders_worker_rows(self, tmp_path, capsys):
        path = self.export_with_workers(tmp_path / "run.jsonl")
        assert obs_main(["--from-export", str(path), "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "one row per span" in out

    def test_timeline_conflicts_with_exposition(self, tmp_path, capsys):
        path = self.export_with_workers(tmp_path / "run.jsonl")
        assert obs_main(["--from-export", str(path), "--timeline",
                         "--exposition"]) == 2

    def test_demo_timeline(self, capsys):
        assert obs_main(["--demo", "--timeline"]) == 0
        assert "one row per span" in capsys.readouterr().out
