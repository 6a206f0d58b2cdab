"""Experiment harness: the paper's measurement campaign.

- :mod:`repro.experiments.profiles` -- timelines: the paper's 9-minute
  run (competing flow from 185 s to 370 s) and scaled-down variants for
  quick runs and tests.
- :mod:`repro.experiments.config` -- one run's configuration.
- :mod:`repro.experiments.conditions` -- the full parameter grid of
  Table 2 and the paper's striped execution order.
- :mod:`repro.experiments.runner` -- run one configuration, extract a
  :class:`~repro.experiments.results.RunResult`.
- :mod:`repro.experiments.campaign` -- run grids of conditions with
  multiple iterations, one seed per iteration (aggregated per condition
  by :func:`repro.report.aggregate_results`).
"""

from repro.experiments.campaign import Campaign
from repro.experiments.conditions import (
    CAPACITIES,
    CCAS,
    QUEUE_MULTS,
    SYSTEM_NAMES,
    condition_grid,
    striped_order,
)
from repro.experiments.config import RunConfig
from repro.experiments.profiles import PAPER, QUICK, SMOKE, Timeline
from repro.experiments.results import RunResult
from repro.experiments.runner import RunTimeout, run_single

__all__ = [
    "CAPACITIES",
    "CCAS",
    "Campaign",
    "PAPER",
    "QUEUE_MULTS",
    "QUICK",
    "RunConfig",
    "RunResult",
    "RunTimeout",
    "SMOKE",
    "SYSTEM_NAMES",
    "Timeline",
    "condition_grid",
    "run_single",
    "striped_order",
]
