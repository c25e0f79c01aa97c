"""Benchmark: Figure 9 — stability under incrementally arriving data sources,
plus the inset training-runtime comparison.

Paper claims: AdaMEL-hyb stays stable (smaller PRAUC fluctuation) and at a
higher level than the token-level baselines as new target sources arrive, and
it trains in a fraction of their time because it avoids word-level sequence
modelling.
"""

import pytest

from repro.experiments import run_figure9


@pytest.mark.benchmark(group="figure9")
def test_figure9_incremental_sources_and_runtime(benchmark, bench_scale, bench_seed):
    result = benchmark.pedantic(
        lambda: run_figure9(source_counts=(7, 11, 15), scale=bench_scale, seed=bench_seed),
        rounds=1, iterations=1)
    print()
    print(result.format())

    adamel_scores = result.series["adamel-hyb"]
    entitymatcher_scores = result.series["entitymatcher"]
    # AdaMEL-hyb stays at or above the hierarchical token-level baseline on
    # average as new sources arrive (CorDel's strength on the synthetic
    # Monitor corpus is a deviation for the claims ledger of ROADMAP.md
    # item 2).
    assert sum(adamel_scores) / len(adamel_scores) >= \
        sum(entitymatcher_scores) / len(entitymatcher_scores) - 0.1
    # Runtime claim: AdaMEL trains faster than the cross-attention baseline.
    assert result.runtime_seconds["adamel-hyb"] < result.runtime_seconds["entitymatcher"]
    # Stability: fluctuation bounded.
    assert result.stability_range("adamel-hyb") < 0.5
