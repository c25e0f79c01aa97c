#!/usr/bin/env python3
"""Run the end-to-end benchmark.

``run.py --workload NAME --seed N --seconds S --trace 0|1`` runs one workload
and prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  Without ``--workload`` it runs all four
workloads, untraced and traced, and prints every metric by name.

The launcher byte-compiles ``src/`` and this directory once, then starts each
workload in a fresh worker process with the pinned environment of
:data:`e2e.harness.PINNED_ENV`; it waits for the worker and kills it on the
way out if it is still alive.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
# Import this directory as the package ``e2e``: with the script's own directory
# first on the path, ``e2e/trace.py`` would shadow the standard ``trace`` module.
sys.path[0] = str(HERE.parent)

from e2e import harness  # noqa: E402

DEFAULT_SECONDS = 20.0
WORKER_TIMEOUT_S = 170.0   # the driver allows a run 180 s


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in harness.WORKLOADS],
                        help="run one workload (default: all four, untraced and traced)")
    parser.add_argument("--seed", type=int, default=0, help="generates every input")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, reports the per-layer metrics")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------- #
# Launcher
# ---------------------------------------------------------------------- #
def prepare() -> None:
    """Check the checkout is whole and byte-compile it (the 'build')."""
    if not (harness.SRC / "repro").is_dir():
        sys.exit(f"error: {harness.SRC / 'repro'} not found - the benchmark drives the "
                 f"library in src/ and needs a full checkout")
    # A first run that compiles on import took 4.8 s of set-up instead of 1.7 s.
    compileall.compile_dir(str(harness.SRC), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)


def launch(workload: str, seed: int, seconds: float, trace: int, relay: bool = True
           ) -> Tuple[int, Optional[Dict[str, object]]]:
    """Run one workload in a worker process; relay its output unless told not to.

    Returns the worker's exit code and its parsed result line (``None`` when
    it printed none).
    """
    env = dict(os.environ)
    env.update(harness.PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(harness.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "run.py"), "--worker", "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
               "--spawned-at", repr(time.time())]
    worker = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, worker.kill)
    watchdog.start()
    last = ""
    try:
        assert worker.stdout is not None
        for line in worker.stdout:
            if relay:
                sys.stdout.write(line)
                sys.stdout.flush()
            if line.strip():
                last = line
        code = worker.wait()
    finally:
        watchdog.cancel()
        if worker.poll() is None:
            worker.kill()
            worker.wait()
    try:
        result = json.loads(last) if last.lstrip().startswith("{") else None
    except json.JSONDecodeError:
        result = None
    return code, result


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced; print all metrics by name."""
    rows: List[Tuple[str, str, float, str]] = []
    status = 0
    for workload in harness.WORKLOADS:
        for trace in (0, 1):
            code, result = launch(workload.name, seed, seconds, trace)
            if code != 0 or result is None or not result["correct"]:
                status = 1
            for name, entry in ((result or {}).get("metrics") or {}).items():
                rows.append((workload.name, name, entry["value"], entry["unit"]))
    print(f"\n== all metrics (seed {seed}, {seconds:g} s timed sections) ==")
    for workload_name, name, value, unit in rows:
        print(f"{workload_name:13s} {name:42s} {value:14.6g} {unit}")
    print("RESULT", "ok" if status == 0 else "FAILED")
    return status


# ---------------------------------------------------------------------- #
# Worker
# ---------------------------------------------------------------------- #
def work(args: argparse.Namespace) -> int:
    import gc
    import platform
    import resource

    import numpy

    from e2e.trace import Tracer
    from e2e.workloads import WORKLOAD_CLASSES

    # Interpreter start + imports: paid once per process, part of set-up.
    boot_s = time.time() - args.spawned_at if args.spawned_at else 0.0
    tracer = Tracer() if args.trace else None
    workload = WORKLOAD_CLASSES[args.workload](args.seed, tracer)
    print(f"e2e workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{key}={os.environ.get(key)}" for key in harness.PINNED_ENV)
          + f" nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__}")
    print("config " + json.dumps(workload.config_note(), sort_keys=True))

    def timed(seconds: float) -> harness.Measurement:
        # Collect and freeze what set-up left behind, so the collector (still
        # enabled) only walks what the timed section allocates.
        gc.collect()
        gc.freeze()
        return workload.measure(seconds)

    if tracer is not None:
        # Before set-up: objects built there capture bound methods.
        tracer.install()
    try:
        setups: List[float] = []
        for repeat in range(harness.SETUP_REPEATS):
            if repeat:
                workload.teardown()
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        setup_s = boot_s + harness.median(setups)
        print(f"setup boot={boot_s:.3f}s repeats="
              + "/".join(f"{value:.3f}" for value in setups) + f"s -> setup_s={setup_s:.3f}")

        if tracer is None:
            sections = [timed(args.seconds)]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            section = sections[0]
            values = {"setup_s": setup_s, "ops_per_s": section.ops_per_s,
                      "ops_per_cpu_s": section.ops_per_cpu_s,
                      "latency_p50_ms": section.latency_p50_ms,
                      "peak_rss_mb": rss_mb, "quality": section.quality}
            specs = harness.END_TO_END
            extras = section.detail
        else:
            # Same section twice, half as long each: first with the wrappers
            # passing through, then recording.  Their ratio is the overhead.
            untraced = timed(args.seconds / 2)
            tracer.enabled = True
            traced = timed(args.seconds / 2)
            tracer.enabled = False
            sections = [untraced, traced]
            values = {spec.name: 0.0 for spec in harness.PER_LAYER}
            values.update(traced.detail)
            values.update({name: value for name, value in untraced.detail.items()
                           if name in harness.FROM_UNTRACED_HALF})
            values.update(harness.layer_metrics(tracer.spans, traced.busy_s))
            attempted = sum(s.ops for s in sections)
            values.update({
                "bench.trace_overhead_ratio": (untraced.ops_per_s / traced.ops_per_s
                                               if traced.ops_per_s else 0.0),
                "bench.failed_share": sum(s.failed for s in sections) / attempted,
                "bench.traced_s": traced.wall_s,
                "bench.traced_ops": float(traced.ops),
            })
            specs = harness.PER_LAYER
            extras = {}
            path = harness.OUT / f"trace-{args.workload}.json"
            tracer.write(path, meta={"workload": args.workload, "seed": args.seed,
                                     "traced_s": traced.wall_s, "ops": traced.ops})
            print(f"trace {len(tracer.spans)} spans -> {path.relative_to(harness.ROOT)}")
    finally:
        workload.teardown()
        if tracer is not None:
            tracer.uninstall()

    return report(sections, specs, values, extras)


def report(sections: Sequence[harness.Measurement], specs: Sequence[harness.Metric],
           values: Dict[str, float], extras: Dict[str, float]) -> int:
    """Print notes, checks, metrics by name and the result line; exit code."""
    for section in sections:
        for note in section.notes:
            print("note " + note)
    checks: Dict[str, bool] = {}
    for section in sections:
        for name, ok in section.checks.items():
            checks[name] = checks.get(name, True) and ok
    for name, ok in checks.items():
        print(f"check {name} {'ok' if ok else 'FAILED'}")
    for name, value in sorted(extras.items()):
        print(f"extra {name} = {value:.6g}")
    for spec in specs:
        print(f"metric {spec.name} = {values[spec.name]:.6g} {spec.unit}")
    correct = all(section.correct for section in sections)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(section.ops for section in sections),
        "failed": sum(section.failed for section in sections),
        "metrics": {spec.name: {"value": values[spec.name], "unit": spec.unit}
                    for spec in specs},
    }))
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.worker:
        return work(args)
    prepare()
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    code, result = launch(args.workload, args.seed, args.seconds, args.trace)
    return code if code != 0 or result is not None else 1


if __name__ == "__main__":
    sys.exit(main())
