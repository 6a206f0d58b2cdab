"""In-process multi-seed execution.

The campaign grid runs K seeds of every condition, and each of those
runs is an independent simulation of the *same* topology -- only the
RNG seed differs.  Dispatching them as separate pool tasks pays per-run
overhead K times: task pickling, a future per run, and allocator
warm-up.  This module executes a whole seed batch inside one
interpreter, one run after the other:

- the store is consulted per seed (cache-first) and written per result
  -- **one stored object per run**, byte-identical fingerprints and
  payloads to per-run dispatch, so batched and unbatched campaigns are
  interchangeable at the store level;
- a ``timeout_s`` budget covers the whole batch, with the remaining
  budget re-measured before each seed so an early seed overrunning
  still aborts the batch cooperatively.

Nothing is shared between the seeds: building a run's
:class:`~repro.testbed.tc.RouterConfig` and looking up its system
profile costs about a microsecond against seconds of simulation.

The entry points are :func:`run_seeds` (one config, many seeds -- the
engine behind ``run_single(seeds=[...])`` and ``repro-gsnet run
--seeds``) and :func:`run_condition_batch` (pre-expanded configs -- the
engine behind the campaign scheduler's ``seed_batch`` dispatch).
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter

from repro.experiments.config import RunConfig
from repro.experiments.results import RunResult
from repro.experiments.runner import _execute

__all__ = ["run_seeds", "run_condition_batch", "seed_variants"]


def seed_variants(config: RunConfig, seeds) -> list[RunConfig]:
    """Expand one config into per-seed configs (order preserved)."""
    return [
        config if seed == config.seed else replace(config, seed=seed)
        for seed in seeds
    ]


def run_seeds(
    config: RunConfig,
    seeds,
    store=None,
    timeout_s: float | None = None,
    max_events: int | None = None,
) -> list[RunResult]:
    """Run ``config`` once per seed, in seed order, in this process."""
    return run_condition_batch(
        seed_variants(config, seeds),
        store=store, timeout_s=timeout_s, max_events=max_events,
    )


def run_condition_batch(
    configs: list[RunConfig],
    store=None,
    timeout_s: float | None = None,
    max_events: int | None = None,
) -> list[RunResult]:
    """Execute ``configs`` one after the other; results in config order."""
    deadline = None if timeout_s is None else perf_counter() + timeout_s
    results: list[RunResult] = []
    for config in configs:
        if store is not None:
            cached = store.get(config)
            if cached is not None:
                results.append(cached)
                continue
        wall_start = perf_counter()
        remaining = None if deadline is None else deadline - wall_start
        results.append(_execute(
            config, None, None, None, store,
            remaining, max_events, wall_start,
        ))
    return results
