"""Fault-tolerant, cache-first campaign scheduling.

:class:`CampaignScheduler` is the execution engine behind
:class:`~repro.experiments.campaign.Campaign`:

- **cache first** -- every config is fingerprinted and looked up in the
  :class:`~repro.store.runstore.RunStore` before anything is submitted;
  only misses are simulated.
- **one completion loop** -- every campaign runs through the same
  loop: up to ``workers`` dispatch units are outstanding, results are
  collected as they finish (no head-of-line blocking, unlike
  ``pool.map``), and every submitted future is actually executing, so
  per-run deadlines measure real run time.  ``workers > 1`` submits to
  a process pool; ``workers == 1`` submits to an in-process executor
  that runs the task on the spot and hands back a finished future.
- **retries with capped exponential backoff** -- a failing run is
  retried up to ``retries`` times after
  ``min(backoff_cap, backoff_base * 2**(attempt-1))`` seconds.  The
  backoff is a per-item *deadline*, not a sleep: other runs keep
  dispatching and completing while one run waits out its delay, and
  the loop sleeps only when nothing is ready or in flight.
- **per-run timeouts** -- with ``timeout`` set, ``run_fn`` is handed a
  ``timeout_s`` budget (the cooperative deadline guard inside
  :func:`~repro.experiments.runner.run_single` raises
  :class:`~repro.experiments.runner.RunTimeout`), and a pool run still
  unfinished at its deadline is killed: the worker processes are
  terminated and the pool respawned.  Either way the run is a
  retryable failure.  Innocent runs killed alongside a timed-out one
  are requeued without being charged an attempt.
- **worker-crash recovery** -- a ``BrokenProcessPool`` (an OOM-killed
  or segfaulted worker) does not sink the campaign: the pool is
  rebuilt and everything that was in flight is requeued through the
  normal retry accounting as a :class:`WorkerCrash` failure.
- **graceful interrupt** -- a ``KeyboardInterrupt`` during execution
  flushes the checkpoint, shuts the executor down without waiting, and
  returns a partial :class:`CampaignReport` (``interrupted=True``,
  abandoned fingerprints recorded) so a re-run resumes exactly where
  the campaign stopped.
- **crash-safe checkpointing** -- completed results are persisted to
  the store as they arrive, so an interrupted campaign resumes with
  only its incomplete runs re-executed; a per-campaign checkpoint
  (keyed by the hash of the sorted run fingerprints) atomically
  records permanent failures and interrupt marks for ``resume``.
- **partial-results mode** -- ``partial=True`` records persistently
  failing configs in the report instead of aborting the campaign.
  Without it a persistent failure raises :class:`CampaignError`; the
  executor is shut down *without* waiting for in-flight runs
  (``shutdown(wait=False, cancel_futures=True)`` plus worker
  termination) and the fingerprints of everything still queued or in
  flight are recorded on ``CampaignError.abandoned``.

Scheduler tracepoints (``store.hit``, ``store.miss``, ``sched.dispatch``,
``sched.retry``, ``sched.done``, ``sched.fail``, ``sched.timeout``,
``sched.pool_broken``, ``sched.requeue``, ``sched.abandon``,
``sched.interrupted``) are emitted on the wall-clock side of the
system, so their ``t`` field is a monotone dispatch sequence number,
not simulation time.
"""

from __future__ import annotations

import hashlib
import heapq
import inspect
import itertools
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.experiments.runner import RunTimeout, Warmup, run_single
from repro.obs.counters import CounterSet
from repro.obs.trace import NULL_TRACER
from repro.store.fingerprint import canonical_json, config_fingerprint, config_identity
from repro.store.heartbeat import CampaignHeartbeat

__all__ = [
    "CampaignScheduler",
    "CampaignReport",
    "RunFailure",
    "CampaignError",
    "RunTimeout",
    "WorkerCrash",
]


class CampaignError(RuntimeError):
    """A run exhausted its retries and the campaign is not in partial mode.

    Attributes:
        abandoned: fingerprints of runs that were still queued or in
            flight when the campaign aborted (killed or never started;
            they are *not* recorded as failures and a re-run against the
            same store executes them again).
    """

    def __init__(self, message: str, abandoned: list[str] | None = None):
        super().__init__(message)
        self.abandoned: list[str] = list(abandoned or [])


class WorkerCrash(RuntimeError):
    """A pool worker died (``BrokenProcessPool``) while runs were in flight."""


@dataclass
class RunFailure:
    """One config that kept failing after every retry."""

    config: object
    fingerprint: str
    error: str
    attempts: int


@dataclass
class CampaignReport:
    """What the scheduler did: results plus cache/retry/failure accounting."""

    results: list = field(default_factory=list)  # completion order
    cache_hits: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_breaks: int = 0
    interrupted: bool = False
    abandoned: list[str] = field(default_factory=list)
    failures: list[RunFailure] = field(default_factory=list)
    campaign_id: str | None = None

    @property
    def total(self) -> int:
        return (
            self.cache_hits
            + self.executed
            + len(self.failures)
            + len(self.abandoned)
        )

    def counters(self) -> dict:
        return {
            "store.hits": self.cache_hits,
            "store.misses": self.executed
            + len(self.failures)
            + len(self.abandoned),
            "sched.executed": self.executed,
            "sched.retries": self.retries,
            "sched.timeouts": self.timeouts,
            "sched.pool_breaks": self.pool_breaks,
            "sched.failures": len(self.failures),
        }


def campaign_id(fingerprints: list[str]) -> str:
    """Deterministic id of a campaign: hash of its sorted run keys."""
    digest = hashlib.sha256()
    for fp in sorted(fingerprints):
        digest.update(fp.encode())
    return digest.hexdigest()[:16]


#: Optional per-dispatch keyword arguments threaded into ``run_fn`` when
#: (and only when) its signature accepts them.
_DISPATCH_KWARGS = ("timeout_s", "attempt", "warm")


def _supported_kwargs(fn) -> frozenset:
    """Which of :data:`_DISPATCH_KWARGS` ``fn`` can receive."""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return frozenset()
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    ):
        return frozenset(_DISPATCH_KWARGS)
    return frozenset(name for name in _DISPATCH_KWARGS if name in params)


class _InlineExecutor:
    """Where ``ProcessPoolExecutor`` stands when ``workers == 1``.

    ``submit`` runs the task in the calling process and returns an
    already-finished future, so the completion loop has no serial
    branch.  A ``KeyboardInterrupt`` leaves ``submit`` as itself.
    """

    def submit(self, fn, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


def _kill_workers(pool) -> None:
    """Forcibly terminate an executor's worker processes (best effort).

    ``ProcessPoolExecutor`` has no public per-worker kill, and
    ``shutdown(cancel_futures=True)`` cannot stop a run that already
    started -- a hung simulation would otherwise block the campaign
    until it finished on its own.  (:class:`_InlineExecutor` has none.)
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already-dead workers
            pass


@dataclass(eq=False)
class _Pending:
    """One dispatch unit: a single run, or a prefix batch of runs that
    differ only in their competitor.

    Retry/timeout/free-pass accounting is per dispatch unit -- a failed
    batch is retried whole (its results reach the store only when the
    whole batch returns).
    """

    configs: list
    fingerprints: list
    attempts: int = 0
    #: wall-clock time at which an in-flight run is declared hung
    deadline: float | None = None
    #: next dispatch does not consume an attempt (the previous one was
    #: killed through no fault of its own)
    free_pass: bool = False

    @property
    def fingerprint(self) -> str:
        return self.fingerprints[0]

    @property
    def label(self) -> str:
        label = self.configs[0].label
        extra = len(self.configs) - 1
        return label if extra == 0 else f"{label} (+{extra} on its warm-up)"


def _run_batch(run_fn, configs: list, kwargs: dict) -> list:
    """Execute one prefix batch in a single task (top level: picklable).

    The configs run in order, one ``run_fn`` call each (sharing ``warm``
    if given).  A ``timeout_s`` budget covers the whole batch: each run
    gets what is left of it, so a member that overruns leaves its
    successors less time, never more.
    """
    if "timeout_s" not in kwargs:
        return [run_fn(config, **kwargs) for config in configs]
    deadline = time.perf_counter() + kwargs["timeout_s"]
    return [
        run_fn(config, **{**kwargs, "timeout_s": deadline - time.perf_counter()})
        for config in configs
    ]


class CampaignScheduler:
    """Run configs through the cache, an executor, and retry logic.

    Args:
        workers: how many dispatch units may be outstanding: the
            process-pool width, or 1 to run in this process.
        store: optional :class:`RunStore`; enables caching, result
            persistence, and checkpointing.
        retries: extra attempts per run after the first failure.
        backoff_base: first retry delay, seconds (doubles per attempt).
        backoff_cap: upper bound on any single retry delay.
        timeout: per-run wall-clock budget, seconds.  Handed to
            ``run_fn`` as ``timeout_s`` when it accepts one (as
            :func:`~repro.experiments.runner.run_single` does with its
            cooperative deadline guard); pool workers still running at
            the deadline are killed outright.  Timed-out runs are
            retryable failures.
        partial: record persistent failures instead of raising.
        use_cache: look configs up in the store before executing
            (disable to force re-simulation; results are still stored).
        checkpoint: write/load the per-campaign checkpoint (needs a
            store; resuming serves completed runs from the cache).
        resume: honour the checkpoint's failure record -- configs that
            already failed permanently are reported as failures without
            being re-executed (run without ``resume`` to retry them).
        on_result: callback ``(result, done, total, cached)`` invoked in
            completion order for every finished run.
        tracer: optional tracepoint bus for scheduler events.
        run_fn: the per-config executor (tests substitute fakes; must be
            picklable when ``workers > 1``).  If its signature accepts
            ``timeout_s`` and/or ``attempt`` keywords they are supplied
            per dispatch.
        sleep: injection point for the wait until the next retry is
            due (taken only when nothing is ready or in flight).
        clock: injection point for the wall clock (monotonic seconds).
        heartbeat_interval: minimum seconds between live-progress
            records appended to the store's campaign heartbeat
            (``<store>/campaigns/<id>/heartbeat.jsonl``; see
            :mod:`repro.store.heartbeat`).  ``None`` disables the
            heartbeat; without a store there is nowhere to write one.
        seed_batch: the largest prefix batch: cache-missing configs
            that differ only in their competitor (identity minus cca)
            are grouped into batches of up to this many runs, each one
            task calling ``run_fn`` per config, in order, with one
            shared :class:`~repro.experiments.runner.Warmup` when it
            takes ``warm`` (see :func:`_run_batch`).  Store writes,
            fingerprints, and checkpoint marks stay per run; a batch's
            ``timeout`` budget is the per-run budget times its size,
            shared by its runs.  Retries re-dispatch the whole batch.
    """

    def __init__(
        self,
        workers: int = 1,
        store=None,
        retries: int = 0,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        timeout: float | None = None,
        partial: bool = False,
        use_cache: bool = True,
        checkpoint: bool = True,
        resume: bool = False,
        on_result=None,
        tracer=NULL_TRACER,
        run_fn=run_single,
        sleep=time.sleep,
        clock=time.monotonic,
        heartbeat_interval: float | None = 1.0,
        seed_batch: int = 1,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if seed_batch < 1:
            raise ValueError(f"seed_batch must be >= 1, got {seed_batch}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if backoff_base < 0 or backoff_cap < 0:
            raise ValueError("backoff delays must be >= 0")
        if heartbeat_interval is not None and heartbeat_interval < 0:
            raise ValueError(
                f"heartbeat_interval must be >= 0, got {heartbeat_interval}"
            )
        self.workers = workers
        self.store = store
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.timeout = timeout
        self.partial = partial
        self.use_cache = use_cache
        self.checkpoint = checkpoint and store is not None
        self.resume = resume
        self.on_result = on_result
        self.tracer = tracer
        self.run_fn = run_fn
        self._sleep = sleep
        self._clock = clock
        self.heartbeat_interval = heartbeat_interval
        self.seed_batch = seed_batch
        self._run_kwargs = _supported_kwargs(run_fn)
        self.counters = CounterSet()
        self._seq = 0
        self._abandoned: list[str] = []

    # ------------------------------------------------------------------
    def run(self, configs: list) -> CampaignReport:
        self.counters = CounterSet()
        self._abandoned = []
        report = CampaignReport()
        fingerprints = [config_fingerprint(c) for c in configs]
        report.campaign_id = campaign_id(fingerprints)
        total = len(configs)
        done = 0
        state = self._load_checkpoint(report.campaign_id, total)
        heartbeat = self._open_heartbeat(report.campaign_id, total)
        try:
            # Phase 1: serve whatever the store already has.
            pending: list[_Pending] = []
            for config, fp in zip(configs, fingerprints):
                cached = self._lookup(config, fp)
                if cached is not None:
                    done += 1
                    report.cache_hits += 1
                    self.counters.inc("store.hits")
                    self._emit("store.hit", fp=fp, label=config.label)
                    self._checkpoint_clear_failure(state, report.campaign_id, fp)
                    if self.on_result is not None:
                        self.on_result(cached, done, total, True)
                    report.results.append(cached)
                    if heartbeat is not None:
                        heartbeat.beat(done, self.counters)
                elif (
                    self.resume
                    and state is not None
                    and fp in state["failed"]
                ):
                    # A resumed campaign reports recorded permanent
                    # failures instead of burning time re-failing them.
                    # They still count toward progress, or done could
                    # never reach total (a stalled CLI progress line).
                    done += 1
                    info = state["failed"][fp]
                    report.failures.append(
                        RunFailure(
                            config=config,
                            fingerprint=fp,
                            error=info.get("error", "recorded failure"),
                            attempts=info.get("attempts", 0),
                        )
                    )
                    self.counters.inc("sched.failures")
                    self._emit("sched.skip_failed", fp=fp, label=config.label)
                    if heartbeat is not None:
                        heartbeat.beat(done, self.counters)
                else:
                    self.counters.inc("store.misses")
                    self._emit("store.miss", fp=fp, label=config.label)
                    pending.append(_Pending([config], [fp]))

            if self.seed_batch > 1:
                pending = self._group_batches(pending)

            # Phase 2: execute the misses, completion order, with
            # retries.  The loop yields one result list (or one error)
            # per dispatch unit; accounting below stays per run.
            try:
                for item, results, error in self._completion_loop(pending):
                    if results is not None:
                        for config, fp, result in zip(
                            item.configs, item.fingerprints, results,
                            strict=True,
                        ):
                            if self.store is not None:
                                self.store.put(config, result)
                                self._emit("store.put", fp=fp)
                            done += 1
                            report.executed += 1
                            self.counters.inc("sched.executed")
                            self._checkpoint_clear_failure(
                                state, report.campaign_id, fp,
                            )
                            if self.on_result is not None:
                                self.on_result(result, done, total, False)
                            report.results.append(result)
                    else:
                        for config, fp in zip(item.configs, item.fingerprints):
                            done += 1
                            failure = RunFailure(
                                config=config,
                                fingerprint=fp,
                                error=error,
                                attempts=item.attempts,
                            )
                            report.failures.append(failure)
                            self.counters.inc("sched.failures")
                            self._emit(
                                "sched.fail", fp=fp,
                                attempts=item.attempts, error=error,
                            )
                            self._checkpoint_fail(
                                state, report.campaign_id, fp,
                                error=error, attempts=item.attempts,
                            )
                    if heartbeat is not None:
                        heartbeat.beat(done, self.counters)
            except KeyboardInterrupt:
                report.interrupted = True
                report.abandoned = list(self._abandoned)
                self.counters.inc("sched.interrupted")
                self._emit(
                    "sched.interrupted",
                    done=done, total=total, abandoned=len(report.abandoned),
                )
                self._checkpoint_flush(
                    state, report.campaign_id,
                    interrupted=True, abandoned=report.abandoned,
                )
            else:
                # A clean pass clears any stale interrupt marks left by
                # an earlier aborted invocation of the same campaign.
                if pending and state is not None and (
                    state.get("interrupted") or state.get("abandoned")
                ):
                    self._checkpoint_flush(
                        state, report.campaign_id,
                        interrupted=False, abandoned=[],
                    )
        except BaseException:
            # Whatever ends the campaign early (CampaignError, a store
            # that cannot write) ends the heartbeat too: a stream left
            # at "running" reads as a live campaign with an ETA.
            if heartbeat is not None:
                heartbeat.finish(done, self.counters, phase="failed")
            raise
        report.retries = self.counters.get("sched.retries")
        report.timeouts = self.counters.get("sched.timeouts")
        report.pool_breaks = self.counters.get("sched.pool_breaks")
        if heartbeat is not None:
            heartbeat.finish(
                done, self.counters,
                phase="interrupted" if report.interrupted else "done",
            )
        return report

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _group_batches(self, pending: list[_Pending]) -> list[_Pending]:
        """Merge single-run items that share a warm-up into prefix batches.

        Grouping key is the config identity minus the cca; groups keep
        first-occurrence order and members keep config order, so batched
        dispatch is deterministic.  Configs without a full identity
        (test fakes) stay unbatched.
        """
        groups: dict[str, _Pending] = {}
        batched: list[_Pending] = []
        for item in pending:
            config = item.configs[0]
            try:
                identity = config_identity(config)
                identity.pop("cca", None)
                key = canonical_json(identity)
            except Exception:
                batched.append(item)
                continue
            group = groups.get(key)
            if group is not None and len(group.configs) < self.seed_batch:
                group.configs.append(config)
                group.fingerprints.append(item.fingerprints[0])
            else:
                groups[key] = item
                batched.append(item)
        return batched

    def _new_executor(self):
        if self.workers == 1:
            return _InlineExecutor()
        return ProcessPoolExecutor(max_workers=self.workers)

    def _completion_loop(self, pending: list[_Pending]):
        """Dispatch ``pending`` and yield ``(item, results | None, error |
        None)`` in completion order.

        ``results`` is one result per config in the dispatch unit; None
        is a persistent failure (only possible in partial mode --
        otherwise :class:`CampaignError` is raised).  A
        ``KeyboardInterrupt`` records what was abandoned and propagates
        to :meth:`run`, which turns it into a partial report.
        """
        ready: deque[_Pending] = deque(pending)
        retry_heap: list = []  # (due, tiebreak, item)
        retry_seq = itertools.count()
        inflight: dict = {}  # Future -> _Pending
        pool = self._new_executor()

        def schedule_retry(item: _Pending, delay: float) -> None:
            heapq.heappush(
                retry_heap, (self._clock() + delay, next(retry_seq), item)
            )

        def live_fingerprints() -> list[str]:
            return (
                [fp for it in inflight.values() for fp in it.fingerprints]
                + [fp for it in ready for fp in it.fingerprints]
                + [fp for entry in retry_heap for fp in entry[2].fingerprints]
            )

        def recover(expired: set | None = None):
            """Replace a crashed pool (``expired is None``) or one with
            hung workers (``expired``: ids of the items past deadline)
            and settle what was in flight.  Futures that finished
            cleanly before the teardown are yielded first, so a
            :class:`CampaignError` from a casualty cannot lose a result.
            """
            nonlocal pool
            if expired is None:
                self.counters.inc("sched.pool_breaks")
                self._emit("sched.pool_broken", inflight=len(inflight))
            _kill_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            pool = self._new_executor()
            finished, casualties = [], []
            for future, item in inflight.items():
                if (
                    future.done()
                    and not future.cancelled()
                    and future.exception() is None
                ):
                    finished.append((item, future.result()))
                else:
                    item.deadline = None
                    casualties.append(item)
            inflight.clear()
            for item, results in finished:
                self._emit("sched.done", fp=item.fingerprint)
                yield item, results, None
            for item in casualties:
                if expired is None:
                    exc = WorkerCrash(
                        "worker process died while the run was in flight"
                    )
                elif id(item) in expired:
                    exc = RunTimeout(
                        f"run {item.label} exceeded the "
                        f"{self.timeout * len(item.configs):g}s "
                        "wall-clock limit"
                    )
                else:
                    # One hung worker cannot be killed in isolation:
                    # innocent bystanders are requeued free of charge.
                    item.free_pass = True
                    self._emit(
                        "sched.requeue", fp=item.fingerprint,
                        reason="timeout_kill",
                    )
                    ready.append(item)
                    continue
                outcome = self._settle_failure(item, exc, schedule_retry)
                if outcome is not None:
                    yield outcome

        try:
            while ready or retry_heap or inflight:
                now = self._clock()
                while retry_heap and retry_heap[0][0] <= now:
                    ready.append(heapq.heappop(retry_heap)[2])

                # Capping outstanding futures at `workers` means every
                # submitted run is actually executing, so its deadline
                # measures real run time and a pool break touches at
                # most `workers` runs.
                dispatched = []
                while ready and len(inflight) < self.workers:
                    item = ready.popleft()
                    charged = not item.free_pass
                    if charged:
                        item.attempts += 1
                    item.free_pass = False
                    # Before submit: an in-process run is finished (and
                    # its sched.done emitted) by the time submit returns.
                    self._emit(
                        "sched.dispatch", fp=item.fingerprint,
                        attempt=item.attempts, label=item.label,
                    )
                    try:
                        future = pool.submit(
                            _run_batch, self.run_fn, item.configs,
                            self._call_kwargs(item),
                        )
                    except BrokenProcessPool:
                        # The pool died between collections (e.g. a
                        # worker crashed while idle).  Undo the charge,
                        # requeue, recover, and let the loop re-dispatch.
                        if charged:
                            item.attempts -= 1
                        item.free_pass = not charged
                        ready.appendleft(item)
                        yield from recover()
                        continue
                    except KeyboardInterrupt:
                        # Interrupted inside an in-process run: the item
                        # is in no queue; put it back to be abandoned.
                        ready.appendleft(item)
                        raise
                    inflight[future] = item
                    dispatched.append(item)
                if self.timeout is not None and dispatched:
                    # One clock read for the whole pass: runs dispatched
                    # together expire together.  Stamped one `submit`
                    # apart, the later of two hung runs could be a few
                    # milliseconds short of its deadline when the first
                    # one's kill took the pool down, and be requeued as
                    # a bystander instead of counted as a timeout.
                    started = self._clock()
                    for item in dispatched:
                        item.deadline = started + self.timeout * len(item.configs)

                if not inflight:
                    # Everything live is waiting out a retry backoff:
                    # sleep to the nearest deadline, then force it due
                    # (guarantees progress under injected fake clocks).
                    due, _, item = heapq.heappop(retry_heap)
                    self._sleep(max(0.0, due - self._clock()))
                    ready.append(item)
                    continue

                budget = None
                wakeups = [
                    it.deadline for it in inflight.values()
                    if it.deadline is not None
                ]
                if retry_heap:
                    wakeups.append(retry_heap[0][0])
                if wakeups:
                    budget = max(0.0, min(wakeups) - self._clock())
                completed, _ = wait(
                    inflight, timeout=budget, return_when=FIRST_COMPLETED
                )

                broke = False
                for future in completed:
                    item = inflight.pop(future)
                    exc = future.exception()
                    if exc is None:
                        self._emit("sched.done", fp=item.fingerprint)
                        yield item, future.result(), None
                    elif isinstance(exc, BrokenProcessPool):
                        # Handled wholesale below so the rebuild sees one
                        # consistent in-flight set.
                        inflight[future] = item
                        broke = True
                    else:
                        outcome = self._settle_failure(item, exc, schedule_retry)
                        if outcome is not None:
                            yield outcome

                if broke:
                    yield from recover()
                elif self.timeout is not None:
                    # A finished future is never expired: in-process
                    # runs time out cooperatively (``timeout_s``) only.
                    now = self._clock()
                    expired = {
                        id(it)
                        for f, it in inflight.items()
                        if it.deadline is not None
                        and it.deadline <= now
                        and not f.done()
                    }
                    if expired:
                        yield from recover(expired)
        except CampaignError as fail:
            fail.abandoned = self._abandon(live_fingerprints())
            _kill_workers(pool)
            raise
        except KeyboardInterrupt:
            self._abandon(live_fingerprints())
            _kill_workers(pool)
            raise
        finally:
            # Never wait: on the success path the executor is already
            # idle, and on every abort path waiting would block on runs
            # we just decided to walk away from.
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # Failure plumbing
    # ------------------------------------------------------------------
    def _call_kwargs(self, item: _Pending) -> dict:
        kwargs = {}
        if self.timeout is not None and "timeout_s" in self._run_kwargs:
            # A batch gets the per-run budget times its size, and
            # _run_batch hands each of its runs what is left of it.
            kwargs["timeout_s"] = self.timeout * len(item.configs)
        if "attempt" in self._run_kwargs:
            kwargs["attempt"] = item.attempts
        if "warm" in self._run_kwargs:
            kwargs["warm"] = Warmup(len(item.configs))
        return kwargs

    def _settle_failure(self, item: _Pending, exc: Exception, schedule_retry):
        """Route one failed attempt: reschedule it (returns None; the
        backoff becomes its due time on the retry heap, never a sleep),
        or, with the retry budget spent, return the outcome tuple to
        yield -- in partial mode; otherwise raise :class:`CampaignError`.
        """
        if isinstance(exc, RunTimeout):
            self.counters.inc("sched.timeouts")
            self._emit(
                "sched.timeout", fp=item.fingerprint,
                attempt=item.attempts, error=_describe(exc),
            )
        if item.attempts <= self.retries:
            delay = min(
                self.backoff_cap,
                self.backoff_base * 2 ** (item.attempts - 1),
            )
            self.counters.inc("sched.retries")
            self._emit(
                "sched.retry", fp=item.fingerprint,
                attempt=item.attempts, delay=delay, error=_describe(exc),
            )
            schedule_retry(item, delay)
            return None
        if self.partial:
            return item, None, _describe(exc)
        raise CampaignError(
            f"run {item.label} failed after {item.attempts} "
            f"attempt(s): {_describe(exc)}"
        ) from exc

    def _abandon(self, fingerprints: list[str]) -> list[str]:
        self._abandoned = list(fingerprints)
        if fingerprints:
            self._emit("sched.abandon", count=len(fingerprints))
        return self._abandoned

    # ------------------------------------------------------------------
    # Store / checkpoint / trace plumbing
    # ------------------------------------------------------------------
    def _open_heartbeat(self, cid: str, total: int):
        """The campaign's live-telemetry writer, when a store can host one.

        Heartbeats need an on-disk home (tests substituting bare fake
        stores have none) and are disabled with
        ``heartbeat_interval=None``.
        """
        if (
            self.store is None
            or self.heartbeat_interval is None
            or not hasattr(self.store, "heartbeat_path")
        ):
            return None
        return CampaignHeartbeat(
            self.store, cid, total,
            interval_s=self.heartbeat_interval, clock=self._clock,
        )

    def _lookup(self, config, fp: str):
        if self.store is None or not self.use_cache:
            return None
        return self.store.get_fp(fp)

    def _load_checkpoint(self, cid: str, total: int) -> dict | None:
        """The campaign's failure/interrupt record, written once up front.

        Finished runs are not listed: resume serves them from the store.
        The initial write makes the store list the campaign from its
        first run on and resets a record whose ``total`` no longer
        matches; afterwards the file is rewritten only when ``failed``,
        ``interrupted`` or ``abandoned`` change.
        """
        if not self.checkpoint:
            return None
        saved = self.store.load_checkpoint(cid)
        if saved is None or saved.get("total") != total:
            saved = {}
        state = {
            "id": cid,
            "total": total,
            "failed": dict(saved.get("failed", {})),
            "abandoned": list(saved.get("abandoned", [])),
            "interrupted": bool(saved.get("interrupted", False)),
        }
        self.store.save_checkpoint(cid, state)
        return state

    def _checkpoint_fail(self, state, cid: str, fp: str, **info) -> None:
        if state is None:
            return
        state["failed"][fp] = info
        self.store.save_checkpoint(cid, state)

    def _checkpoint_clear_failure(self, state, cid: str, fp: str) -> None:
        """A run that finished no longer counts as a recorded failure."""
        if state is None or state["failed"].pop(fp, None) is None:
            return
        self.store.save_checkpoint(cid, state)

    def _checkpoint_flush(
        self, state, cid: str, interrupted: bool, abandoned: list[str]
    ) -> None:
        """Persist interrupt bookkeeping so ``--resume`` sees it."""
        if state is None:
            return
        state["interrupted"] = interrupted
        state["abandoned"] = list(abandoned)
        self.store.save_checkpoint(cid, state)

    def _emit(self, ev: str, **fields) -> None:
        if self.tracer.enabled:
            self._seq += 1
            self.tracer.emit(ev, float(self._seq), **fields)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"
