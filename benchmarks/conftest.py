"""Shared campaign fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
expensive part -- the measurement campaign itself -- runs once per
pytest session in these fixtures and is shared by all artefact
benchmarks, which receive the campaign's ``RunResult`` list; the
``benchmark(...)`` calls then time the analysis step, which folds the
results through :func:`repro.report.aggregate` -- the same per-condition
numbers ``repro-gsnet report`` prints.

Environment knobs:

- ``REPRO_BENCH_PROFILE``: ``quick`` (default, 1/3-scale runs),
  ``paper`` (full 9-minute runs -- hours of wall time), or ``smoke``.
- ``REPRO_BENCH_ITERATIONS``: runs per condition (default 1 for a fast
  regeneration; the paper uses 15).
- ``REPRO_BENCH_WORKERS``: process parallelism for the campaign.

Rendered artefacts are also written to ``benchmarks/output/*.txt``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import (
    Campaign, PAPER, QUICK, RunConfig, RunResult, SMOKE, striped_order,
)
from repro.experiments.conditions import CAPACITIES, QUEUE_MULTS, SYSTEM_NAMES

_PROFILES = {"paper": PAPER, "quick": QUICK, "smoke": SMOKE}

TIMELINE = _PROFILES[os.environ.get("REPRO_BENCH_PROFILE", "quick")]
ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERATIONS", "1"))
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))

OUTPUT_DIR = Path(__file__).parent / "output"

#: Capacity used for Figure 2 (the paper plots the 25 Mb/s grid).
FIGURE2_CAPACITY = 25e6


def write_artifact(name: str, text: str) -> None:
    """Persist a rendered table/figure and echo it to the terminal."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / name).write_text(text + "\n")
    print("\n" + text)


@pytest.fixture(scope="session")
def timeline():
    return TIMELINE


def _run(configs: list[RunConfig]) -> list[RunResult]:
    return Campaign(workers=WORKERS).run(configs).report.results


@pytest.fixture(scope="session")
def contended_results() -> list[RunResult]:
    """The full Table 2 grid: 2 CCAs x 3 capacities x 3 queues x 3 systems."""
    return _run(list(striped_order(ITERATIONS, timeline=TIMELINE)))


@pytest.fixture(scope="session")
def solo_results() -> list[RunResult]:
    """Solo runs over the capacity/queue grid (Tables 3 and the loss rows)."""
    configs = [
        RunConfig(
            system=system,
            capacity_bps=capacity,
            queue_mult=queue,
            cca=None,
            seed=20_000 + 10 * i,
            timeline=TIMELINE,
        )
        for i in range(ITERATIONS)
        for capacity in CAPACITIES
        for queue in QUEUE_MULTS
        for system in SYSTEM_NAMES
    ]
    return _run(configs)


@pytest.fixture(scope="session")
def baseline_results() -> list[RunResult]:
    """Unconstrained solo runs (Table 1)."""
    configs = [
        RunConfig(
            system=system,
            capacity_bps=1e9,
            queue_mult=2.0,
            cca=None,
            seed=30_000 + 10 * i,
            timeline=TIMELINE,
        )
        for i in range(max(ITERATIONS, 3))
        for system in SYSTEM_NAMES
    ]
    return _run(configs)
