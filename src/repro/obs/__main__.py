"""CLI entry point: ``python -m repro.obs``.

Renders the telemetry dashboard from either

* ``--from-export run.jsonl`` — a JSONL export written by
  :func:`repro.obs.write_export` (or any entry point's ``--export`` flag), or
* ``--demo`` — a small telemetry-enabled pipeline run executed in-process,
  so the dashboard (and optionally an export) can be produced with no prior
  artifacts.

``--exposition`` prints the Prometheus text format instead of the dashboard
(export mode reconstructs it from the metric lines); ``--timeline`` prints
per-micro-batch ASCII Gantt timelines of the pipeline trace trees — the view
that shows worker overlap and stragglers after a sharded ``--workers N`` run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Mapping, Optional, Sequence

from . import telemetry, write_export
from .dashboard import render_dashboard
from .export import ExportError, load_export
from .timeline import render_timelines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render the repro telemetry dashboard from an export or a demo run.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--from-export", metavar="JSONL", default=None,
                        help="render a saved telemetry export")
    source.add_argument("--demo", action="store_true",
                        help="run a small telemetry-enabled pipeline demo in-process")
    parser.add_argument("--export", metavar="JSONL", default=None,
                        help="with --demo: also write the run's telemetry export here")
    parser.add_argument("--exposition", action="store_true",
                        help="print Prometheus text exposition instead of the dashboard")
    parser.add_argument("--timeline", action="store_true",
                        help="print per-micro-batch ASCII Gantt timelines of the "
                             "pipeline trace trees instead of the dashboard")
    parser.add_argument("--max-traces", type=int, default=5,
                        help="trace trees to show, newest first (default: 5)")
    parser.add_argument("--seed", type=int, default=0,
                        help="with --demo: corpus/model seed (default: 0)")
    return parser


def _exposition_from_export(metrics: Sequence[Mapping[str, object]]) -> str:
    """Rebuild Prometheus text from exported metric lines via a registry."""
    from .metrics import MetricsRegistry

    registry = MetricsRegistry()
    for entry in metrics:
        name = str(entry["name"])
        labels = dict(entry.get("labels") or {})
        help_text = str(entry.get("help") or "")
        kind = entry.get("kind")
        if kind == "counter":
            registry.counter(name, help_text, labels).inc(float(entry["value"]))
        elif kind == "gauge":
            registry.gauge(name, help_text, labels).set(float(entry["value"]))
        elif kind == "histogram":
            buckets = entry.get("buckets") or []
            bounds = [float(bound) for bound, _ in buckets
                      if not isinstance(bound, str)]
            series = registry.histogram(name, help_text, labels,
                                        buckets=bounds or [1.0])
            with series._lock:
                series._counts = [int(count) for _, count in buckets]
                series._count = int(entry["count"])
                series._sum = float(entry["sum"])
    return registry.exposition()


def _run_demo(seed: int, export_path: Optional[str],
              max_traces: int, exposition: bool,
              timeline: bool = False) -> int:
    # Imported lazily: the export path of this CLI must work without pulling
    # in the model/pipeline stack.
    from ..core.variants import create_variant
    from ..experiments.scenarios import ExperimentScale, build_corpus, build_scenario
    from ..infer.predictor import BatchedPredictor
    from ..pipeline.engine import LinkagePipeline, PipelineConfig

    scale = ExperimentScale.smoke()
    with telemetry() as session:
        scenario = build_scenario("music3k", "artist", mode="overlapping",
                                  scale=scale, seed=seed)
        model = create_variant("adamel-hyb", scale.adamel_config(epochs=4))
        print("demo: training a small adamel-hyb model ...", flush=True)
        model.fit(scenario)
        predictor = BatchedPredictor.from_trainer(model)
        corpus = build_corpus("music3k", entity_type="artist",
                              scale=scale, seed=seed)
        print(f"demo: linking {len(corpus.records)} records ...", flush=True)
        pipeline = LinkagePipeline(predictor, config=PipelineConfig())
        pipeline.run(corpus.records)

    if export_path:
        path = write_export(export_path, registry=session.registry,
                            collector=session.collector)
        print(f"demo: wrote telemetry export to {path}", flush=True)
    if exposition:
        print(session.registry.exposition(), end="")
    elif timeline:
        print(render_timelines(
            [root.to_dict() for root in session.collector.roots()]))
    else:
        print(render_dashboard(
            metrics=session.registry.snapshot(),
            traces=[root.to_dict() for root in session.collector.roots()],
            title="repro.obs telemetry (demo pipeline run)",
            max_traces=max_traces))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.export and not args.demo:
        print("error: --export only applies to --demo (use --from-export to read)",
              file=sys.stderr)
        return 2
    if args.exposition and args.timeline:
        print("error: --exposition and --timeline are mutually exclusive",
              file=sys.stderr)
        return 2

    if args.demo:
        return _run_demo(args.seed, args.export, args.max_traces,
                         args.exposition, args.timeline)

    try:
        export = load_export(args.from_export)
    except FileNotFoundError:
        print(f"error: no such export file: {args.from_export}", file=sys.stderr)
        return 2
    except ExportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.exposition:
        print(_exposition_from_export(export["metrics"]), end="")
    elif args.timeline:
        print(render_timelines(export["traces"]))
    else:
        print(render_dashboard(metrics=export["metrics"],
                               traces=export["traces"],
                               title=f"repro.obs telemetry ({args.from_export})",
                               max_traces=args.max_traces))
    return 0


if __name__ == "__main__":
    sys.exit(main())
