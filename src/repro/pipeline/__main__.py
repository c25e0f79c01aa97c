"""CLI entry point: ``python -m repro.pipeline``.

Runs the end-to-end linkage engine (ingest → block → pair → score → cluster)
over either a synthetic corpus or a user CSV, and writes clusters, matches
and per-stage statistics to an output directory.

Two ways to provide records:

* ``--dataset music3k`` (default) — generate a synthetic multi-source corpus
  and, unless ``--model`` is given, train a quick AdaMEL model on its
  labeled scenario before linking the full record set;
* ``--records corpus.csv`` — stream records written by
  :func:`repro.data.storage.write_records_csv`; requires ``--model`` (a
  bundle saved with :func:`repro.infer.save_model`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..core.variants import create_variant
from ..data.storage import iter_records_csv
from ..experiments.scenarios import (DATASETS, SCALE_NAMES, build_corpus, build_scenario,
                                     select_scale)
from ..infer.predictor import BatchedPredictor
from .engine import STAGE_ORDER, LinkagePipeline, PipelineConfig

DEFAULT_OUTPUT_DIR = "pipeline_out"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.pipeline",
        description="Run the end-to-end linkage pipeline and write clusters + stats.",
    )
    source = parser.add_argument_group("record source")
    source.add_argument("--dataset", choices=DATASETS, default="music3k",
                        help="synthetic corpus to link (default: music3k)")
    source.add_argument("--entity-type", default="artist",
                        help="entity type for the synthetic corpus (default: artist)")
    source.add_argument("--records", default=None, metavar="CSV",
                        help="link records from a CSV written by write_records_csv "
                             "instead of a synthetic corpus (requires --model)")
    model = parser.add_argument_group("model")
    model.add_argument("--model", default=None, metavar="BUNDLE",
                       help="saved model bundle directory (default: train a quick "
                            "AdaMEL model on the synthetic corpus)")
    model.add_argument("--variant", default="adamel-hyb",
                       help="AdaMEL variant to train when no --model is given")
    model.add_argument("--epochs", type=int, default=20,
                       help="training epochs for the quick model (default: 20)")
    tuning = parser.add_argument_group("pipeline tuning")
    tuning.add_argument("--scale", choices=SCALE_NAMES, default="smoke",
                        help="synthetic corpus / model scale (default: smoke)")
    tuning.add_argument("--seed", type=int, default=0, help="corpus/model seed")
    tuning.add_argument("--threshold", type=float, default=0.5,
                        help="match-score threshold for clustering (default: 0.5)")
    tuning.add_argument("--num-perm", type=int, default=128,
                        help="MinHash permutations (default: 128)")
    tuning.add_argument("--bands", type=int, default=32,
                        help="LSH bands (default: 32)")
    tuning.add_argument("--max-bucket-size", type=int, default=None,
                        help="LSH bucket / token posting cap (default: the "
                             "PipelineConfig defaults)")
    tuning.add_argument("--attributes", default=None,
                        help="comma-separated blocking attributes (default: all)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="score candidate micro-batches on N worker processes "
                             "(default: single-process engine)")
    parser.add_argument("--output-dir", default=DEFAULT_OUTPUT_DIR,
                        help=f"where to write clusters/matches/stats "
                             f"(default: {DEFAULT_OUTPUT_DIR})")
    parser.add_argument("--export", default=None, metavar="JSONL",
                        help="enable telemetry for the run and write a metrics + "
                             "trace export (view with python -m repro.obs)")
    return parser


def _quick_predictor(args: argparse.Namespace) -> BatchedPredictor:
    """Train a small AdaMEL model on the synthetic corpus's labeled scenario."""
    _, scale = select_scale(args.scale)
    scenario = build_scenario(args.dataset, args.entity_type, mode="overlapping",
                              scale=scale, seed=args.seed)
    model = create_variant(args.variant, scale.adamel_config(epochs=args.epochs))
    print(f"training {args.variant} on {scenario.name} "
          f"({len(scenario.source)} labeled pairs) ...", flush=True)
    model.fit(scenario)
    return BatchedPredictor.from_trainer(model)


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.records is not None and args.model is None:
        print("error: --records requires --model (there are no labels to train on)",
              file=sys.stderr)
        return 2

    if args.export is None:
        return _run(args)
    from .. import obs

    with obs.telemetry():
        status = _run(args)
        path = obs.write_export(args.export)
    print(f"wrote telemetry export to {path} "
          f"(view: python -m repro.obs --from-export {path})")
    return status


def _run(args: argparse.Namespace) -> int:
    if args.model is not None:
        predictor = BatchedPredictor.load(args.model)
    else:
        predictor = _quick_predictor(args)

    if args.records is not None:
        records = iter_records_csv(args.records)
    else:
        _, scale = select_scale(args.scale)
        corpus = build_corpus(args.dataset, entity_type=args.entity_type,
                              scale=scale, seed=args.seed)
        records = corpus.records

    attributes = ([name.strip() for name in args.attributes.split(",") if name.strip()]
                  if args.attributes else None)
    overrides = {}
    if args.max_bucket_size is not None:
        overrides.update(lsh_max_bucket_size=args.max_bucket_size,
                         max_postings=args.max_bucket_size,
                         initials_max_bucket_size=args.max_bucket_size)
    config = PipelineConfig(
        blocking_attributes=attributes,
        num_perm=args.num_perm,
        bands=args.bands,
        score_threshold=args.threshold,
        **overrides,
    )
    if args.workers is not None:
        from .sharded import ShardConfig, ShardedPipeline

        pipeline = ShardedPipeline(predictor, config=config,
                                   shards=ShardConfig(workers=args.workers))
    else:
        pipeline = LinkagePipeline(predictor, config=config)
    result = pipeline.run(records)

    summary = result.summary()
    print(f"\nlinked {len(result.records)} records in "
          f"{summary['total_seconds']:.2f}s")
    for name in STAGE_ORDER:
        entry = summary["stages"][name]
        extras = {key: value for key, value in entry.items() if key != "seconds"}
        line = f"  {name:8s} {entry['seconds']:8.3f}s"
        if extras:
            line += "  " + " ".join(f"{key}={value}" for key, value in sorted(extras.items()))
        print(line)

    pair_stats = result.candidates.stats
    cluster_stats = result.clusters.stats
    print(f"\nblocking: {int(pair_stats['num_candidates'])} candidates out of "
          f"{int(pair_stats['possible_pairs'])} possible cross-source pairs "
          f"({pair_stats['pair_reduction_factor']:.1f}x reduction)")
    if "recall" in pair_stats:
        print(f"blocking recall vs entity_id ground truth: {pair_stats['recall']:.4f}")
    print(f"clusters: {int(cluster_stats['num_clusters'])} "
          f"({int(cluster_stats['num_singletons'])} singletons, "
          f"largest {int(cluster_stats['max_cluster_size'])}); "
          f"transitivity violations: {int(cluster_stats['transitivity_violations'])}")
    sharding = summary.get("sharding")
    if sharding:
        print(f"sharding: {sharding['workers']} worker(s) "
              f"(processes: {sharding['used_processes']}); "
              f"{sharding['chunks']} scoring micro-batch(es); "
              f"rescored: {sharding['rescored_chunks']}")
    if "pairwise_f1" in cluster_stats:
        print(f"pairwise precision/recall/F1 vs ground truth: "
              f"{cluster_stats['pairwise_precision']:.4f} / "
              f"{cluster_stats['pairwise_recall']:.4f} / "
              f"{cluster_stats['pairwise_f1']:.4f}")

    output_dir = result.write(args.output_dir)
    print(f"\nwrote {output_dir}/clusters.jsonl, matches.jsonl, stats.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
