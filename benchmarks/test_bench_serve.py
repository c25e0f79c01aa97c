"""Benchmark: online linkage serving on the Music-3K analogue.

Runs the serving stage behind ``python -m repro.serve`` — streamed upserts
through the incremental entity store, then concurrent queries through the
coalescer — and checks its deployment claims: streaming produces exactly the
batch pipeline's clusters, at least four concurrent workers are served
without errors, and every batch the coalescer ran held at least one pair.
"""

import pytest

from repro.bench.runner import _stage_serve_online, summarize_latency_samples


@pytest.mark.benchmark(group="serve")
def test_serve_online(benchmark, bench_scale, bench_seed):
    extras = benchmark.pedantic(
        lambda: _stage_serve_online(bench_scale, bench_seed),
        rounds=1, iterations=1)
    summary = summarize_latency_samples(extras)
    print()
    print({key: round(float(value), 4) for key, value in summary.items()})

    # Deployment claim: online == batch, exactly.
    assert summary["batch_parity"] == 1.0, "streamed clusters diverged from batch"
    # Concurrency claim: >= 4 workers served, none erroring.
    assert summary["query_workers"] >= 4.0
    assert summary["query_errors"] == 0.0
    assert summary["coalesced_batches"] >= 1.0
    assert summary["mean_batch_pairs"] >= 1.0
    # Percentiles are recorded and ordered.
    assert (0.0 < summary["query_latency_p50_ms"]
            <= summary["query_latency_p95_ms"]
            <= summary["query_latency_p99_ms"])
