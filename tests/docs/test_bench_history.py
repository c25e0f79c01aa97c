"""``BENCH_history.jsonl``: every line parses and names metrics the benchmark declares."""

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_every_line_parses_and_keys_are_benchmark_metrics():
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = {f"{workload['name']}/{metric['name']}" for workload in declared["workloads"]
             for metric in declared["end_to_end"] + declared["per_layer"]}
    lines = (REPO_ROOT / "BENCH_history.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines
    for line in lines:
        entry = json.loads(line)
        assert {"pr", "commit", "claim", "seeds", "pairs", "medians"} <= set(entry)
        assert set(entry["medians"]) <= known
        assert all(set(sides) == {"parent", "change"} for sides in entry["medians"].values())
