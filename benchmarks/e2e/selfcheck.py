#!/usr/bin/env python3
"""Run the suite as two sets of N runs of the same code and compare them.

For every workload and end-to-end metric this prints both sets' medians, how
far the second is from the first, each set's spread (inter-quartile distance
over the median, as ``statistics.quantiles(values, n=4)`` gives it), the
metric's bound and a verdict:

* ``FAIL``        the medians differ by more than the bound;
* ``UNRESOLVED``  they agree, but a set's own spread is wider than the bound,
                  so a difference of that size could not be told from noise;
* ``PASS``        otherwise.

``--vary-seed`` gives run ``i`` of each set the seed ``--seed + i`` - what the
driver does when it sizes a benchmark (ten seeds a set) - instead of one seed
for all.  The exit code is non-zero if any metric FAILs or any run was wrong.
This is the tool the bounds in ``BENCHMARK.json`` were sized with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path[0] = str(HERE.parent)

from e2e import harness, run  # noqa: E402


def collect(workload: str, seeds: Sequence[int], seconds: float) -> Dict[str, List[float]]:
    """One set: a run per seed; returns metric name -> values."""
    values: Dict[str, List[float]] = {spec.name: [] for spec in harness.END_TO_END}
    for seed in seeds:
        started = time.perf_counter()
        code, result = run.launch(workload, seed, seconds, trace=0, relay=False)
        elapsed = time.perf_counter() - started
        if code != 0 or result is None or not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: run failed (exit {code}, "
                             f"result {result})")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"  {workload} seed {seed} ({elapsed:.0f} s): " + " ".join(
            f"{name}={series[-1]:.4g}" for name, series in values.items()), flush=True)
    return values


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per set (default 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i of each set uses seed + i")
    parser.add_argument("--workload", action="append",
                        choices=[w.name for w in harness.WORKLOADS],
                        help="restrict to these workloads (repeatable)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    seeds = [args.seed + (i if args.vary_seed else 0) for i in range(args.runs)]
    names = args.workload or [w.name for w in harness.WORKLOADS]

    run.prepare()
    sets = []
    for label in ("A", "B"):
        print(f"set {label}: seeds {seeds}", flush=True)
        sets.append({name: collect(name, seeds, args.seconds) for name in names})

    failed = False
    report = []
    print(f"\n{'workload':13s} {'metric':15s} {'median A':>11s} {'median B':>11s} "
          f"{'B vs A':>8s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for name in names:
        for spec in harness.END_TO_END:
            first, second = (s[name][spec.name] for s in sets)
            median_a, median_b = statistics.median(first), statistics.median(second)
            difference = (median_b - median_a) / abs(median_a) if median_a else 0.0
            spreads = [harness.spread(first), harness.spread(second)]
            if abs(difference) > spec.bound:
                verdict, failed = "FAIL", True
            elif max(spreads) > spec.bound:
                verdict = "UNRESOLVED"
            else:
                verdict = "PASS"
            print(f"{name:13s} {spec.name:15s} {median_a:11.5g} {median_b:11.5g} "
                  f"{difference:+8.1%} {spreads[0]:9.1%} {spreads[1]:9.1%} "
                  f"{spec.bound:6.0%}  {verdict}")
            report.append({"workload": name, "metric": spec.name, "median_a": median_a,
                           "median_b": median_b, "difference": difference,
                           "spread_a": spreads[0], "spread_b": spreads[1],
                           "bound": spec.bound, "verdict": verdict,
                           "values_a": first, "values_b": second})
    harness.OUT.mkdir(parents=True, exist_ok=True)
    (harness.OUT / "selfcheck.json").write_text(json.dumps(
        {"seeds": seeds, "seconds": args.seconds, "rows": report}, indent=1))
    print("RESULT", "FAILED" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
