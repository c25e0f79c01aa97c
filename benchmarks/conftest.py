"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
workload scale (so the whole suite runs on CPU in minutes) and asserts the
qualitative claim the paper makes about it.  Set the environment variable
``REPRO_BENCH_SCALE`` to ``smoke`` / ``bench`` / ``paper`` to choose the
workload and ``REPRO_BENCH_SEED`` to change the base seed.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentScale, select_scale, select_seed


def pytest_collection_modifyitems(items):
    """Every test in this directory belongs to the opt-in ``bench`` suite."""
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    _, scale = select_scale()
    return scale


@pytest.fixture(scope="session")
def bench_scale_name() -> str:
    """Scale name; tests widen marginal qualitative tolerances at ``smoke``."""
    return select_scale()[0]


@pytest.fixture(scope="session")
def bench_seed() -> int:
    return select_seed()
