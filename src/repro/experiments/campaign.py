"""Campaigns: many runs, one scheduler report.

A :class:`Campaign` executes runs (optionally in parallel across
processes -- each run is an independent simulation) and keeps the
scheduler's report; per-condition numbers come from folding its
results through the report tier::

    from repro.report import aggregate_results

    cells = aggregate_results(campaign.report.results)
    cells.get("luna", "bbr", 15e6, 0.5).fps.mean_std()

The campaign itself never aggregates: a cached re-run of a large grid
only pays for what its caller reads.

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

from repro.experiments.config import RunConfig
from repro.experiments.results import RunResult
from repro.experiments.runner import run_single
from repro.obs.trace import NULL_TRACER
from repro.store.chaos import ChaosRunner, ChaosSpec
from repro.store.scheduler import CampaignScheduler

__all__ = ["Campaign"]


class Campaign:
    """Execute a set of runs through the campaign scheduler.

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
        #: Per-run (label, wall seconds), in completion order.
        self.wall_times: list[tuple[str, float]] = []
        #: The last run's scheduler report: results in completion
        #: order, cache hits, retries, failures, ...
        self.report = None

    @staticmethod
    def _label(result: RunResult) -> str:
        return (
            f"{result.system}/{result.cca or 'solo'}"
            f"/{result.capacity_bps / 1e6:g}mbps"
            f"/q{result.queue_mult:g}/{result.qdisc}/s{result.seed}"
        )

    def run(self, configs: list[RunConfig]) -> "Campaign":
        """Run every config; the results land in ``report.results``.

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
        if self.progress is not None:
            self.progress(done, total, label, result.wall_time_s)
