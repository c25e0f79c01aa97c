"""Benchmark: Figure 7 — adaptation aligns source/target attention vectors.

The paper's claim: with λ=0.98 the source- and target-domain feature-attention
vectors become (nearly) indistinguishable in the projected space, while with
λ=0 they stay more separated.  The benchmark checks the quantitative
domain-alignment score instead of a visual t-SNE inspection.
"""

import pytest

from repro.experiments import run_figure7


@pytest.mark.benchmark(group="figure7")
def test_figure7_alignment(benchmark, bench_scale, bench_seed):
    result = benchmark.pedantic(
        lambda: run_figure7("music3k", "artist", adaptation_weights=(0.0, 0.98),
                            max_points_per_domain=60, scale=bench_scale, seed=bench_seed),
        rounds=1, iterations=1)
    print()
    print(result.format())

    for variant in ("adamel-zero", "adamel-hyb"):
        with_adaptation = result.panel(variant, 0.98)
        # Paper claim (Fig. 7b/7d): with λ=0.98 the source- and target-domain
        # attention vectors are well mixed in the projected space.  We assert
        # the absolute mixing level; the *contrast* against λ=0 is weaker in
        # this reproduction because the attention distributions already start
        # close to each other (a deviation for the claims ledger of
        # ROADMAP.md item 2).
        assert with_adaptation.alignment_score >= 0.5, (
            f"{variant}: adapted attention spaces should be well mixed, got "
            f"{with_adaptation.alignment_score:.3f}")
        # Projections exist for both domains (shape check for the plot data).
        assert with_adaptation.source_projection.shape[1] == 2
        assert with_adaptation.target_projection.shape[1] == 2
