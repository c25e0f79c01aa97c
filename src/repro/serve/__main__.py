"""CLI entry point: ``python -m repro.serve``.

``--demo`` builds a synthetic Music-3K corpus, trains a quick AdaMEL matcher
(or loads ``--model``), starts the online service and streams the shuffled
corpus through ``EntityStore.upsert`` record by record; it then verifies that
the streamed clusters equal one batch ``LinkagePipeline.run`` over the same
input order, replays concurrent queries to exercise the coalescer, and
prints throughput + p50/p95/p99 latency.  Exit code is non-zero when the
parity check fails.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from ..core.variants import create_variant
from ..experiments.scenarios import (DATASETS, SCALE_NAMES, build_corpus, build_scenario,
                                     select_scale)
from ..infer.predictor import BatchedPredictor
from ..pipeline import LinkagePipeline
from .loadgen import replay_queries, replay_upserts
from .service import LinkageService, ServiceConfig
from .store import StoreConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run the online entity-linkage service demo.",
        # Exact flags only: "--snapshot DIR" would parse as --snapshot-every.
        allow_abbrev=False,
    )
    parser.add_argument("--demo", action="store_true",
                        help="stream a synthetic corpus through the online store "
                             "and verify parity with the batch pipeline")
    parser.add_argument("--health", action="store_true",
                        help="replay a load against the service and print the "
                             "SLO health report (burn rates per objective); "
                             "exit code 1 when any objective is breached")
    corpus = parser.add_argument_group("corpus")
    corpus.add_argument("--dataset", choices=DATASETS, default="music3k",
                        help="synthetic corpus to serve (default: music3k)")
    corpus.add_argument("--entity-type", default="artist",
                        help="entity type for the synthetic corpus (default: artist)")
    corpus.add_argument("--scale", choices=SCALE_NAMES, default="smoke",
                        help="corpus / model scale (default: smoke)")
    corpus.add_argument("--seed", type=int, default=0, help="corpus/model/stream seed")
    model = parser.add_argument_group("model")
    model.add_argument("--model", default=None, metavar="BUNDLE",
                       help="saved model bundle directory (default: train a quick "
                            "AdaMEL model on the corpus's labeled scenario)")
    model.add_argument("--variant", default="adamel-hyb",
                       help="AdaMEL variant to train when no --model is given")
    model.add_argument("--epochs", type=int, default=10,
                       help="training epochs for the quick model (default: 10)")
    serving = parser.add_argument_group("serving")
    serving.add_argument("--threshold", type=float, default=0.5,
                         help="match-score threshold for clustering (default: 0.5)")
    serving.add_argument("--max-batch-size", type=int, default=32,
                         help="most pairs the coalescer fuses into one batch "
                              "(default: 32)")
    serving.add_argument("--workers", type=int, default=4,
                         help="concurrent query workers for the replay (default: 4)")
    serving.add_argument("--queries", type=int, default=None,
                         help="number of replayed queries (default: all records)")
    serving.add_argument("--top-k", type=int, default=3,
                         help="entities returned per query (default: 3)")
    serving.add_argument("--skip-parity", action="store_true",
                         help="skip the batch-pipeline parity check (faster)")
    durability = parser.add_argument_group("durability (repro.storage)")
    durability.add_argument("--data-dir", default=None, metavar="DIR",
                            help="serve durably: WAL every upsert and keep "
                                 "compacted snapshots under DIR")
    durability.add_argument("--recover", action="store_true",
                            help="restore the store from --data-dir (newest "
                                 "snapshot + WAL tail) before serving")
    durability.add_argument("--snapshot-every", type=int, default=500,
                            metavar="N",
                            help="auto-snapshot cadence in upserts when "
                                 "--data-dir is set (default: 500)")
    parser.add_argument("--export", default=None, metavar="JSONL",
                        help="enable telemetry for the demo and write a metrics + "
                             "trace export (view with python -m repro.obs)")
    return parser


def _build_storage(args: argparse.Namespace, store_config: StoreConfig):
    """The storage engine ``--data-dir`` asks for (None without the flag)."""
    if args.data_dir is None:
        if args.recover:
            print("error: --recover needs --data-dir", file=sys.stderr)
            raise SystemExit(2)
        return None
    from ..storage import Storage, StorageConfig

    config = StorageConfig(snapshot_every=args.snapshot_every)
    if args.recover:
        storage = Storage.recover(args.data_dir, config=config)
        report = storage.last_recovery
        print(f"recovered {report.records} records from {args.data_dir} "
              f"(snapshot lsn {report.snapshot_lsn}, "
              f"{report.replayed_entries} WAL entries replayed) "
              f"in {report.seconds:.3f}s", flush=True)
        return storage
    return Storage(args.data_dir, store_config=store_config, config=config)


def _predictor(args: argparse.Namespace) -> BatchedPredictor:
    if args.model is not None:
        return BatchedPredictor.load(args.model)
    _, scale = select_scale(args.scale)
    scenario = build_scenario(args.dataset, args.entity_type, mode="overlapping",
                              scale=scale, seed=args.seed)
    model = create_variant(args.variant, scale.adamel_config(epochs=args.epochs))
    print(f"training {args.variant} on {scenario.name} "
          f"({len(scenario.source)} labeled pairs) ...", flush=True)
    model.fit(scenario)
    return BatchedPredictor.from_trainer(model)


def run_demo(args: argparse.Namespace) -> int:
    predictor = _predictor(args)
    _, scale = select_scale(args.scale)
    corpus = build_corpus(args.dataset, entity_type=args.entity_type,
                          scale=scale, seed=args.seed)
    # An online service never sees records in a curated order: shuffle.
    records = list(corpus.records)
    np.random.default_rng(args.seed).shuffle(records)

    store_config = StoreConfig(score_threshold=args.threshold)
    service_config = ServiceConfig(max_batch_size=args.max_batch_size,
                                   top_k=args.top_k)
    storage = _build_storage(args, store_config)
    with LinkageService(predictor,
                        store_config=None if storage is not None else store_config,
                        service_config=service_config,
                        storage=storage) as service:
        print(f"\nstreaming {len(records)} records through EntityStore.upsert ...",
              flush=True)
        ingest = replay_upserts(service, records)
        store_stats = service.store.stats()
        print(f"ingested {ingest.operations} records in {ingest.seconds:.2f}s "
              f"({ingest.throughput:.1f} upserts/s) -> "
              f"{int(store_stats['entities'])} entities, "
              f"{int(store_stats['pairs_scored'])} pairs scored")
        percentiles = {name: value * 1000.0
                       for name, value in ingest.percentiles().items()}
        print("upsert latency  p50 {p50:.2f} ms  p95 {p95:.2f} ms  "
              "p99 {p99:.2f} ms".format(**percentiles))

        num_queries = len(records) if args.queries is None else args.queries
        probes = (records * (num_queries // len(records) + 1))[:num_queries]
        print(f"\nreplaying {len(probes)} queries from {args.workers} workers ...",
              flush=True)
        queries = replay_queries(service, probes, num_workers=args.workers,
                                 top_k=args.top_k)
        percentiles = {name: value * 1000.0
                       for name, value in queries.percentiles().items()}
        print(f"served {queries.operations} queries in {queries.seconds:.2f}s "
              f"({queries.throughput:.1f} queries/s, {queries.errors} errors)")
        print("query latency   p50 {p50:.2f} ms  p95 {p95:.2f} ms  "
              "p99 {p99:.2f} ms".format(**percentiles))
        coalescer = service.coalescer.stats()
        print(f"coalescer: {int(coalescer['batches'])} fused batches "
              f"(mean {coalescer['mean_batch_pairs']:.1f} pairs; "
              f"{int(coalescer['capped_batches'])} cut at the "
              f"{int(coalescer['max_batch_size'])}-pair cap)")

        if storage is not None:
            wal = storage.stats()
            samples = sorted(storage.fsync_latency_samples())
            p95 = (samples[int(0.95 * (len(samples) - 1))] * 1000.0
                   if samples else 0.0)
            print(f"storage: {int(wal['wal_last_lsn'])} WAL entries in "
                  f"{int(wal['wal_segments'])} segments "
                  f"({int(wal['wal_bytes'])} bytes, fsync p95 {p95:.2f} ms)")
            out = service.snapshot()
            tail = storage.stats()["wal_tail_entries"]
            print(f"published compacted snapshot {out.name} "
                  f"(WAL tail now {int(tail)} entries)")

        if args.skip_parity:
            return 0
        print("\nchecking parity against one batch LinkagePipeline.run ...", flush=True)
        pipeline = LinkagePipeline(predictor,
                                   config=store_config.to_pipeline_config())
        batch = pipeline.run(records)
        online = service.store.clusters()
        if online == batch.clusters.clusters:
            print(f"parity OK: {len(online)} online clusters == batch clusters")
            return 0
        print(f"PARITY FAILED: {len(online)} online clusters vs "
              f"{len(batch.clusters.clusters)} batch clusters", file=sys.stderr)
        return 1


def run_health(args: argparse.Namespace) -> int:
    """Replay a load through a fresh service, then print the SLO report.

    The replay is the same shuffled-corpus upsert + concurrent-query flow
    the demo uses, so the burn rates describe the service under realistic
    coalesced load rather than an idle process.  Exit code 1 only on a
    *breached* objective — ``burning`` is an alert, not a failure.
    """
    from ..obs.slo import format_health

    predictor = _predictor(args)
    _, scale = select_scale(args.scale)
    corpus = build_corpus(args.dataset, entity_type=args.entity_type,
                          scale=scale, seed=args.seed)
    records = list(corpus.records)
    np.random.default_rng(args.seed).shuffle(records)

    service_config = ServiceConfig(max_batch_size=args.max_batch_size,
                                   top_k=args.top_k)
    store_config = StoreConfig(score_threshold=args.threshold)
    storage = _build_storage(args, store_config)
    with LinkageService(predictor,
                        store_config=None if storage is not None else store_config,
                        service_config=service_config,
                        storage=storage) as service:
        print(f"replaying {len(records)} upserts and {len(records)} queries "
              f"({args.workers} workers) against the service ...", flush=True)
        replay_upserts(service, records)
        replay_queries(service, records, num_workers=args.workers,
                       top_k=args.top_k)
        report = service.health()
    print()
    print(format_health(report, uptime=float(report["uptime_seconds"])))
    return 1 if report["status"] == "breached" else 0


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.demo and args.health:
        print("error: --demo and --health are mutually exclusive", file=sys.stderr)
        return 2
    if not args.demo and not args.health:
        build_parser().print_help()
        print("\nhint: run the demo with  python -m repro.serve --demo, or "
              "the SLO report with  python -m repro.serve --health")
        return 2
    runner = run_health if args.health else run_demo
    if args.export is None:
        return runner(args)
    from .. import obs

    with obs.telemetry():
        status = runner(args)
        path = obs.write_export(args.export)
    print(f"\nwrote telemetry export to {path} "
          f"(view: python -m repro.obs --from-export {path})")
    return status


if __name__ == "__main__":
    sys.exit(main())
