"""A tour of `repro.obs`: metrics, span traces, export, and the dashboard.

Telemetry in this repo is off by default and zero-cost while off; this
example turns it on for a scope and shows what the instrumented subsystems
record:

1. train a quick AdaMEL-hyb matcher and link a corpus end-to-end inside
   ``obs.telemetry()`` — the trainer emits per-step/per-epoch histograms,
   the pipeline emits stage spans plus candidate/recall counters, and the
   blocking indexes report bucket-skew gauges;
2. serve a few online upserts/queries so the store, coalescer and batched
   predictor counters move too;
3. read the live registry (snapshot + Prometheus exposition) and walk the
   span tree of the pipeline run;
4. write the JSONL export and render the same data back through the
   ``python -m repro.obs`` dashboard.

Run with:  python examples/telemetry_tour.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import repro.obs as obs
from repro.core import AdaMELConfig, AdaMELHybrid
from repro.data.generators import MusicCorpusGenerator, MusicGeneratorConfig
from repro.infer import BatchedPredictor
from repro.obs.dashboard import render_dashboard
from repro.pipeline import LinkagePipeline
from repro.serve import LinkageService, ServiceConfig


def main() -> None:
    # ------------------------------------------------------------------ #
    # 0. A tiny corpus and labeled scenario (see the quickstart example).
    # ------------------------------------------------------------------ #
    corpus = MusicCorpusGenerator(
        "artist", MusicGeneratorConfig(num_entities=30), seed=11).generate()
    scenario = corpus.build_scenario(
        seen_sources=["website_1", "website_2", "website_3"],
        mode="overlapping", support_size=20, test_size=80, seed=5)
    config = AdaMELConfig(embedding_dim=16, hidden_dim=8, attention_dim=12,
                          classifier_hidden_dim=12, epochs=3, batch_size=8,
                          seed=0, profile_steps=True)

    # ------------------------------------------------------------------ #
    # 1. + 2. Everything inside this block is recorded; nothing outside is.
    # ------------------------------------------------------------------ #
    with obs.telemetry() as session:
        trainer = AdaMELHybrid(config)
        history = trainer.fit(scenario)
        predictor = BatchedPredictor.from_trainer(trainer)

        result = LinkagePipeline(predictor).run(corpus.records)

        service_config = ServiceConfig(max_batch_size=16)
        with LinkageService(predictor, service_config=service_config) as service:
            for record in corpus.records[:10]:
                service.upsert(record)
            service.query(corpus.records[0])

    # ------------------------------------------------------------------ #
    # 3. Read the session: registry snapshot, exposition, span trees.
    # ------------------------------------------------------------------ #
    snapshot = session.registry.snapshot()
    print(f"recorded {len(snapshot)} metric series across "
          f"{len(session.registry.names())} families, e.g.:")
    for entry in snapshot:
        if entry["name"] in ("pipeline_candidates_total", "cache_hits_total",
                             "store_upserts_total", "training_steps_total"):
            print(f"  {entry['name']:<28} = {entry['value']:.0f}")

    # The trainer's histogram saw the SAME floats as TrainingHistory:
    step_hist = next(entry for entry in snapshot
                     if entry["name"] == "training_step_seconds")
    assert step_hist["sum"] == sum(history.step_seconds)  # bit-identical

    print("\nPrometheus exposition (first lines):")
    for line in session.registry.exposition().splitlines()[:6]:
        print(f"  {line}")

    run_span = next(span for span in session.collector.roots()
                    if span.name == "pipeline.run")
    print(f"\npipeline.run took {run_span.seconds * 1e3:.1f} ms; stage spans:")
    for child in run_span.children:
        print(f"  {child.name:<8} {child.seconds * 1e3:8.2f} ms  {child.attributes}")

    # ------------------------------------------------------------------ #
    # 4. Export to JSONL and render the dashboard from the file.
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory() as tmp:
        export_path = obs.write_export(Path(tmp) / "tour.jsonl",
                                       registry=session.registry,
                                       collector=session.collector)
        export = obs.load_export(export_path)
        print(f"\nexport: {len(export['metrics'])} metric lines, "
              f"{len(export['traces'])} trace trees "
              f"(render with: python -m repro.obs --from-export {export_path.name})")
        print()
        print(render_dashboard(metrics=export["metrics"],
                               traces=export["traces"][-1:],
                               title="telemetry tour", max_traces=1))

    # Outside the scope telemetry is off again — instruments are no-ops.
    assert not obs.enabled()


if __name__ == "__main__":
    main()
