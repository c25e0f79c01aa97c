"""Smoke tests for the experiment harness (small scales, qualitative checks)."""

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentScale,
    build_corpus,
    build_scenario,
    get_experiment,
    list_experiments,
    model_factories,
    restrict_scenario_to_attributes,
    run_figure6,
    run_figure8,
    run_figure10,
    run_figure11,
    run_figure12,
    run_table4,
    run_table6,
    run_table7,
    select_scale,
)
from repro.experiments.table7 import single_domain_scenario


@pytest.fixture(scope="module")
def scale():
    return ExperimentScale.smoke()


class TestScaleSelection:
    def test_named_scales(self):
        assert select_scale("smoke") == ("smoke", ExperimentScale.smoke())
        assert select_scale("bench") == ("bench", ExperimentScale.bench())
        assert select_scale("paper") == ("paper", ExperimentScale.paper())

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        assert select_scale()[0] == "smoke"
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert select_scale()[0] == "bench"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark scale"):
            select_scale("gigantic")


class TestScenarios:
    def test_build_corpus_datasets(self, scale):
        assert build_corpus("music3k", scale=scale).entity_type == "artist"
        assert build_corpus("music1m", scale=scale).name.startswith("music-1m")
        assert build_corpus("monitor", scale=scale).entity_type == "monitor"
        with pytest.raises(ValueError):
            build_corpus("imdb", scale=scale)

    def test_build_scenario_modes(self, scale):
        overlapping = build_scenario("music3k", mode="overlapping", scale=scale, seed=1)
        disjoint = build_scenario("music3k", mode="disjoint", scale=scale, seed=1)
        assert overlapping.seen_sources == disjoint.seen_sources
        assert all(not (pair.source_set() & disjoint.seen_sources) for pair in disjoint.target)

    def test_model_factories_names(self, scale):
        factories = model_factories(scale=scale)
        assert {"tler", "deepmatcher", "entitymatcher", "ditto", "cordel-attention",
                "adamel-base", "adamel-zero", "adamel-few", "adamel-hyb"} == set(factories)
        subset = model_factories(scale=scale, methods=["tler", "adamel-hyb"])
        assert set(subset) == {"tler", "adamel-hyb"}
        with pytest.raises(KeyError):
            model_factories(scale=scale, methods=["nonexistent"])

    def test_scale_configs(self, scale):
        assert scale.adamel_config().epochs == scale.adamel_epochs
        assert scale.baseline_config().epochs == scale.baseline_epochs
        assert ExperimentScale.paper().adamel_epochs > scale.adamel_epochs

    def test_restrict_scenario_to_attributes(self, scale):
        scenario = build_scenario("music3k", scale=scale, seed=1)
        restricted = restrict_scenario_to_attributes(scenario, ["name", "main_performer"])
        assert set(restricted.aligned_schema()) == {"name", "main_performer"}
        assert len(restricted.test) == len(scenario.test)
        with pytest.raises(ValueError):
            restrict_scenario_to_attributes(scenario, [])


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        identifiers = set(list_experiments())
        expected = {"figure6-music3k", "figure6-music1m", "figure6-monitor", "figure7",
                    "figure8", "figure9", "figure10", "figure11", "figure12",
                    "table4", "table5", "table6", "table7"}
        assert expected == identifiers

    def test_get_experiment(self):
        experiment = get_experiment("table4")
        assert callable(experiment.runner)
        with pytest.raises(KeyError):
            get_experiment("table99")

    def test_benchmark_paths_unique(self):
        paths = [experiment.benchmark for experiment in EXPERIMENTS.values()]
        # figure9's runtime inset shares its benchmark file, everything else is unique.
        assert len(set(paths)) == len(paths)


class TestExperimentRuns:
    def test_figure6_smoke(self, scale):
        result = run_figure6("music3k", "artist", modes=("overlapping",),
                             methods=["adamel-base", "adamel-zero"], scale=scale, seed=2)
        assert set(result.results["overlapping"]) == {"adamel-base", "adamel-zero"}
        assert all(0 <= r.pr_auc <= 1 for r in result.results["overlapping"].values())
        assert result.best_method("overlapping") in {"adamel-base", "adamel-zero"}
        assert "pr_auc" in result.format()

    def test_figure8_lambda_sweep(self, scale):
        result = run_figure8("music3k", "artist", lambdas=(0.0, 0.98), scale=scale, seed=2)
        assert len(result.series["adamel-zero"]) == 2
        assert result.pr_auc("adamel-zero", 0.98) >= 0.0

    def test_figure10_support_sweep(self, scale):
        result = run_figure10("music3k", "artist", support_sizes=(5, 20), scale=scale, seed=2)
        assert len(result.series["adamel-few"]) == 2
        assert np.isfinite(result.improvement("adamel-hyb"))

    def test_figure11_reproduces_challenges(self, scale):
        result = run_figure11(scale=scale, seed=2)
        # C2: several attributes exist only in the target domain.
        assert len(result.target_only_attributes()) >= 3
        # C1: most attributes are missing for the majority of pairs.
        assert len(result.mostly_missing_attributes()) >= 5
        # page_title is close to complete in both domains.
        assert result.source_fractions["page_title"] > 0.8

    def test_figure12_distribution_shift(self, scale):
        result = run_figure12(scale=scale, seed=2)
        assert result.divergence > 0.3
        assert result.source_tokens and result.target_tokens

    def test_table4_importance(self, scale):
        result = run_table4(datasets={"music3k-artist": {"dataset": "music3k",
                                                         "entity_type": "artist"}},
                            top_k=3, scale=scale, seed=2)
        top = result.top_features("music3k-artist")
        assert len(top) == 3
        assert all(name.endswith(("_shared", "_unique")) for name in top)

    def test_table6_ablation(self, scale):
        result = run_table6(datasets=(("music3k", "artist"),), scale=scale, seed=2)
        scores = result.results["music3k-artist"]["adamel-hyb"]
        assert set(scores) == {"shared", "unique", "shared+unique"}
        assert all(0 <= value <= 1 for value in scores.values())

    def test_table7_single_domain(self, scale):
        result = run_table7(benchmarks=("beer",), scale=scale, seed=2)
        scores = result.results["beer"]
        assert set(scores) == {"deepmatcher", "adamel-zero", "adamel-hyb"}
        assert all(0 <= value <= 1 for value in scores.values())

    def test_single_domain_scenario_structure(self):
        scenario = single_domain_scenario("beer", seed=3)
        assert len(scenario.source) > 0
        assert len(scenario.test) > 0
        assert scenario.support is not None
