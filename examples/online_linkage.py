"""Online entity linkage: serve upserts and queries one record at a time.

The end-to-end pipeline example links a frozen corpus; a live deployment
receives records and lookup requests continuously.  This example runs the
online serving layer over the synthetic Music-3K analogue:

1. train a quick AdaMEL-hyb matcher (deployments would load a saved bundle)
   and start a :class:`~repro.serve.LinkageService` — an incremental
   :class:`~repro.serve.EntityStore` behind a
   :class:`~repro.serve.RequestCoalescer`;
2. stream the shuffled corpus through ``upsert`` record by record, watching
   entities form incrementally;
3. fire concurrent queries from worker threads (the coalescer fuses them
   into micro-batches), snapshot the store, restore it bit-exactly, and
   verify the streamed clusters equal one batch ``LinkagePipeline.run``.

Run with:  python examples/online_linkage.py
The same flow is available as a CLI:  python -m repro.serve --demo
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.core import AdaMELConfig, AdaMELHybrid
from repro.data.generators import MUSIC_SEEN_SOURCES, MusicCorpusGenerator, MusicGeneratorConfig
from repro.data.records import Record
from repro.infer import BatchedPredictor
from repro.pipeline import LinkagePipeline
from repro.serve import (EntityStore, LinkageService, ServiceConfig, StoreConfig,
                         replay_queries, replay_upserts)
from repro.storage import SnapshotManager


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Corpus + quick matcher + service.
    # ------------------------------------------------------------------ #
    generator = MusicCorpusGenerator("artist", MusicGeneratorConfig(num_entities=40), seed=3)
    corpus = generator.generate()
    records = list(corpus.records)
    np.random.default_rng(7).shuffle(records)  # online arrival order
    print(f"Corpus: {len(records)} records from {len(corpus.sources)} websites, "
          f"arriving in shuffled order.")

    scenario = corpus.build_scenario(seen_sources=MUSIC_SEEN_SOURCES, mode="overlapping",
                                     support_size=30, test_size=100, seed=1)
    model = AdaMELHybrid(AdaMELConfig(embedding_dim=24, hidden_dim=16, attention_dim=24,
                                      classifier_hidden_dim=24, epochs=15, seed=0))
    model.fit(scenario)
    predictor = BatchedPredictor.from_trainer(model)

    store_config = StoreConfig(score_threshold=0.5)
    service_config = ServiceConfig(max_batch_size=32, top_k=3)
    with LinkageService(predictor, store_config=store_config,
                        service_config=service_config) as service:
        # -------------------------------------------------------------- #
        # 2. Stream the corpus through upsert, one record at a time.
        # -------------------------------------------------------------- #
        ingest = replay_upserts(service, records)
        stats = service.store.stats()
        print(f"\nIngested {ingest.operations} records in {ingest.seconds:.2f}s "
              f"({ingest.throughput:.0f} upserts/s): {int(stats['entities'])} live "
              f"entities, {int(stats['pairs_scored'])} candidate pairs scored "
              f"incrementally.")
        p = {name: value * 1000.0 for name, value in ingest.percentiles().items()}
        print(f"Upsert latency: p50 {p['p50']:.2f} ms / p95 {p['p95']:.2f} ms / "
              f"p99 {p['p99']:.2f} ms")

        # -------------------------------------------------------------- #
        # 3a. Concurrent queries, fused by the coalescer.
        # -------------------------------------------------------------- #
        queries = replay_queries(service, records, num_workers=4)
        p = {name: value * 1000.0 for name, value in queries.percentiles().items()}
        print(f"\nServed {queries.operations} queries from 4 workers in "
              f"{queries.seconds:.2f}s ({queries.throughput:.0f} queries/s).")
        print(f"Query latency:  p50 {p['p50']:.2f} ms / p95 {p['p95']:.2f} ms / "
              f"p99 {p['p99']:.2f} ms")
        fused = service.coalescer.stats()
        print(f"Coalescer fused {int(fused['requests'])} requests into "
              f"{int(fused['batches'])} batches (mean {fused['mean_batch_pairs']:.1f} "
              f"pairs; {int(fused['capped_batches'])} cut at the "
              f"{int(fused['max_batch_size'])}-pair cap).")

        # A lookup for a brand-new probe record: who is "E. B."?
        probe_source = records[0]
        probe = Record(record_id="probe#0", source="a-new-website",
                       attributes=dict(probe_source.attributes))
        matches = service.query(probe).matches
        print(f"\nProbe {probe.value('name')!r} resolves to:")
        for match in matches:
            print(f"  {match.entity_id:32s} score={match.score:.3f} "
                  f"(via {match.record_id}, {match.size} records)")

        # -------------------------------------------------------------- #
        # 3b. Snapshot -> restore is bit-exact, no model needed to load.
        # -------------------------------------------------------------- #
        with tempfile.TemporaryDirectory() as tmp:
            snapshots = SnapshotManager(tmp)
            snapshots.take(service.store.state_dict(), lsn=len(service.store))
            restored = EntityStore.from_state_dict(snapshots.load_latest()[1])
            assert restored.clusters() == service.store.clusters()
            print(f"\nSnapshot/restore round-trip: {len(restored.clusters())} "
                  f"clusters restored bit-exactly (read-only until a model is bound).")

        # -------------------------------------------------------------- #
        # 3c. Streaming == batch: the parity the store guarantees.
        # -------------------------------------------------------------- #
        batch = LinkagePipeline(predictor,
                                config=store_config.to_pipeline_config()).run(records)
        online = service.store.clusters()
        assert online == batch.clusters.clusters, "online/batch cluster mismatch"
        print(f"Parity: streaming {len(records)} upserts produced the same "
              f"{len(online)} clusters as one batch LinkagePipeline.run.")


if __name__ == "__main__":
    main()
