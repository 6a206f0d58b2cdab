"""Campaigns: many runs, aggregated per condition.

A :class:`Campaign` executes runs (optionally in parallel across
processes -- each run is an independent simulation) and groups results
by condition key ``(system, cca, capacity, queue_mult)`` for the
analysis layer.

Execution is delegated to
:class:`~repro.store.scheduler.CampaignScheduler`: results stream back
in completion order (no head-of-line blocking), a
:class:`~repro.store.runstore.RunStore` serves repeated configs from
cache and checkpoints progress so interrupted campaigns resume, and
failing runs are retried with capped exponential backoff (or, in
partial mode, recorded in :attr:`Campaign.failures` without sinking the
rest of the campaign).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis import framerate, loss, rtt
from repro.analysis.adaptiveness import response_recovery
from repro.analysis.bitrate import BitrateBand, aggregate_bitrate_series
from repro.analysis.stats import mean_std
from repro.experiments.config import RunConfig
from repro.experiments.profiles import Timeline
from repro.experiments.results import RunResult
from repro.experiments.runner import run_single
from repro.obs.profiler import campaign_profile
from repro.obs.trace import NULL_TRACER
from repro.store.chaos import ChaosRunner, ChaosSpec
from repro.store.scheduler import CampaignScheduler

__all__ = ["Campaign", "ConditionResult", "condition_key"]


def condition_key(result: RunResult) -> tuple:
    return (result.system, result.cca, result.capacity_bps, result.queue_mult)


@dataclass
class ConditionResult:
    """All runs of one (system, cca, capacity, queue) condition."""

    system: str
    cca: str | None
    capacity_bps: float
    queue_mult: float
    runs: list[RunResult] = field(default_factory=list)

    def _require_runs(self, what: str) -> None:
        """Empty conditions must fail loudly, not average to NaN."""
        if not self.runs:
            raise ValueError(
                f"cannot compute {what}: condition ({self.system}, "
                f"{self.cca}, {self.capacity_bps:g} bps, "
                f"{self.queue_mult:g}x) has no runs"
            )

    # -- aggregates used by the benchmark harness -------------------------
    def game_band(self) -> BitrateBand:
        """Mean bitrate over time with 95% CI (a Figure 2 line)."""
        self._require_runs("game_band")
        return aggregate_bitrate_series([(r.times, r.game_bps) for r in self.runs])

    def iperf_band(self) -> BitrateBand:
        self._require_runs("iperf_band")
        return aggregate_bitrate_series([(r.times, r.iperf_bps) for r in self.runs])

    def fairness(self) -> float:
        """Mean (game - iperf) / capacity over the fairness window."""
        self._require_runs("fairness")
        return float(np.mean([r.fairness_ratio for r in self.runs]))

    def baseline_bitrate(self) -> tuple[float, float]:
        """Mean/std of the per-run baseline (Table 1 uses solo runs)."""
        self._require_runs("baseline_bitrate")
        return mean_std([r.solo_bps for r in self.runs])

    def rtt_cell(self, timeline: Timeline, window: str = "contention") -> tuple[float, float]:
        """Pooled RTT mean/std over a window ("contention" or "solo")."""
        self._require_runs("rtt_cell")
        lo, hi = (
            timeline.contention_window if window == "contention" else timeline.solo_window
        )
        return rtt.rtt_cell([r.rtts_in(lo, hi) for r in self.runs])

    def loss_cell(self) -> tuple[float, float]:
        self._require_runs("loss_cell")
        return loss.loss_cell([r.game_loss_rate for r in self.runs])

    def framerate_cell(self) -> tuple[float, float]:
        self._require_runs("framerate_cell")
        return framerate.framerate_cell(
            [r.displayed_fps_contention for r in self.runs]
        )

    def response_recovery(self, timeline: Timeline) -> tuple[float, float]:
        """Mean per-run response and recovery times (Section 4.2)."""
        self._require_runs("response_recovery")
        responses, recoveries = zip(
            *(response_recovery(r.times, r.game_bps, timeline) for r in self.runs)
        )
        return float(np.mean(responses)), float(np.mean(recoveries))


class Campaign:
    """Execute a set of runs and aggregate them per condition.

    Args:
        workers: how many runs may be outstanding at once: the
            process-pool width, or 1 to run in this process.
        progress: optional callback ``(done, total, label, wall_s)``
            invoked after each run completes (completion order).
        store: optional :class:`~repro.store.runstore.RunStore`; runs
            already stored are served from cache and new results are
            persisted as they complete, so a re-run or an interrupted
            campaign only executes what is missing.
        retries: extra attempts per failing run (capped exponential
            backoff between attempts).
        timeout: per-run wall-clock budget in seconds; a run exceeding
            it aborts cooperatively (or, still running in a pool worker
            at the deadline, is killed) and is retried like any other
            failure.
        partial: record persistently failing configs in
            :attr:`failures` instead of aborting the campaign.
        use_cache: set False to force re-simulation even with a store
            (fresh results still overwrite the stored ones).
        resume: report configs the campaign checkpoint records as
            permanently failed instead of re-executing them.
        tracer: optional tracepoint bus for scheduler events
            (``store.hit``/``store.miss``/``sched.*``).
        chaos: optional :class:`~repro.store.chaos.ChaosSpec` (or spec
            string) wrapping execution in deterministic fault
            injection -- for soak tests, never for real measurements.
        backoff_base: first retry delay, seconds (doubles per attempt).
        backoff_cap: upper bound on any single retry delay.
        heartbeat_interval: minimum seconds between live-progress
            records appended to the store's campaign heartbeat (see
            :mod:`repro.store.heartbeat`); ``None`` disables it.
        seed_batch: group up to this many same-condition seeds into one
            dispatch unit executed in one process (see
            :mod:`repro.experiments.multirun`).  Store
            writes and fingerprints stay per run; results and
            aggregates are byte-identical to per-run dispatch.

    A ``KeyboardInterrupt`` during execution is absorbed by the
    scheduler: :attr:`report` comes back partial with
    ``interrupted=True`` and, with a store, a re-run picks up exactly
    where the campaign stopped.
    """

    def __init__(
        self,
        workers: int = 1,
        progress=None,
        store=None,
        retries: int = 0,
        timeout: float | None = None,
        partial: bool = False,
        use_cache: bool = True,
        resume: bool = False,
        tracer=NULL_TRACER,
        chaos: "ChaosSpec | str | None" = None,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        heartbeat_interval: float | None = 1.0,
        seed_batch: int = 1,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.progress = progress
        self.store = store
        self.retries = retries
        self.timeout = timeout
        self.partial = partial
        self.use_cache = use_cache
        self.resume = resume
        self.tracer = tracer
        self.chaos = ChaosSpec.parse(chaos) if isinstance(chaos, str) else chaos
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.heartbeat_interval = heartbeat_interval
        self.seed_batch = seed_batch
        self.conditions: dict[tuple, ConditionResult] = {}
        #: Per-run (label, wall seconds), in completion order.
        self.wall_times: list[tuple[str, float]] = []
        #: The last run's scheduler report (cache hits, retries, ...).
        self.report = None

    @staticmethod
    def _label(result: RunResult) -> str:
        return (
            f"{result.system}/{result.cca or 'solo'}"
            f"/{result.capacity_bps / 1e6:g}mbps"
            f"/q{result.queue_mult:g}/{result.qdisc}/s{result.seed}"
        )

    def run(self, configs: list[RunConfig]) -> "Campaign":
        """Run every config, grouping results by condition.

        Cached runs count toward progress like executed ones; a config
        that keeps failing raises
        :class:`~repro.store.scheduler.CampaignError` unless
        ``partial=True``, in which case it lands in :attr:`failures`.
        """
        run_fn = run_single
        if self.chaos is not None:
            run_fn = ChaosRunner(run_single, self.chaos)
        scheduler = CampaignScheduler(
            workers=self.workers,
            store=self.store,
            retries=self.retries,
            timeout=self.timeout,
            partial=self.partial,
            use_cache=self.use_cache,
            resume=self.resume,
            tracer=self.tracer,
            on_result=self._finish_run,
            run_fn=run_fn,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            heartbeat_interval=self.heartbeat_interval,
            seed_batch=self.seed_batch,
        )
        self.report = scheduler.run(configs)
        return self

    @property
    def failures(self) -> list:
        """Persistent failures from the last ``run`` (partial mode)."""
        return [] if self.report is None else self.report.failures

    def _finish_run(
        self, result: RunResult, done: int, total: int, cached: bool
    ) -> None:
        label = self._label(result)
        self.wall_times.append((label, result.wall_time_s))
        self.add(result)
        if self.progress is not None:
            self.progress(done, total, label, result.wall_time_s)

    def profile_summary(self) -> dict:
        """Aggregate wall-time profile across all completed runs."""
        return campaign_profile(self.wall_times)

    def add(self, result: RunResult) -> None:
        key = condition_key(result)
        condition = self.conditions.get(key)
        if condition is None:
            condition = ConditionResult(
                system=result.system,
                cca=result.cca,
                capacity_bps=result.capacity_bps,
                queue_mult=result.queue_mult,
            )
            self.conditions[key] = condition
        condition.runs.append(result)

    def get(
        self, system: str, cca: str | None, capacity_bps: float, queue_mult: float
    ) -> ConditionResult:
        key = (system, cca, capacity_bps, queue_mult)
        try:
            return self.conditions[key]
        except KeyError:
            raise KeyError(f"no runs for condition {key}") from None
