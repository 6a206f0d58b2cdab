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
from repro.store.chaos import ChaosRunner, ChaosSpec
from repro.store.scheduler import CampaignScheduler

__all__ = ["Campaign"]


class Campaign:
    """Execute a set of runs through the campaign scheduler.

    Args:
        progress: optional callback ``(done, total, label, wall_s)``
            invoked after each run completes (completion order).
        chaos: optional :class:`~repro.store.chaos.ChaosSpec` (or spec
            string) wrapping execution in deterministic fault
            injection -- for soak tests, never for real measurements.
        **options: passed through to the
            :class:`~repro.store.scheduler.CampaignScheduler` built
            here, which documents them (``workers``, ``store``,
            ``retries``, ``timeout``, ``partial``, ``use_cache``,
            ``resume``, ``seed_batch``, ...); a bad one raises at
            construction.  ``on_result`` and ``run_fn`` are the
            campaign's own.

    A ``KeyboardInterrupt`` during execution is absorbed by the
    scheduler: :attr:`report` comes back partial with
    ``interrupted=True`` and, with a store, a re-run picks up exactly
    where the campaign stopped.
    """

    def __init__(self, *, progress=None,
                 chaos: "ChaosSpec | str | None" = None, **options):
        self.progress = progress
        self.chaos = ChaosSpec.parse(chaos) if isinstance(chaos, str) else chaos
        #: Per-run (label, wall seconds), in completion order.
        self.wall_times: list[tuple[str, float]] = []
        wall_times = self.wall_times

        # A closure, not a bound method: the scheduler lives as long as
        # the campaign, and a callback holding the campaign would make
        # the pair a reference cycle that keeps a dropped campaign's
        # results in memory until the cyclic collector runs.
        def finish_run(result: RunResult, done: int, total: int,
                       cached: bool) -> None:
            label = Campaign._label(result)
            wall_times.append((label, result.wall_time_s))
            if progress is not None:
                progress(done, total, label, result.wall_time_s)

        run_fn = run_single
        if self.chaos is not None:
            run_fn = ChaosRunner(run_single, self.chaos)
        self._scheduler = CampaignScheduler(
            on_result=finish_run, run_fn=run_fn, **options
        )
        #: The run store results are served from and written to, if any.
        self.store = self._scheduler.store
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
        self.report = self._scheduler.run(configs)
        return self

    @property
    def failures(self) -> list:
        """Persistent failures from the last ``run`` (partial mode)."""
        return [] if self.report is None else self.report.failures

