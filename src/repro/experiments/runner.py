"""Run one experiment configuration end to end.

Mirrors the paper's per-round procedure (Section 3.4): configure the
router, start captures and probes, play the game, start iperf three
minutes in, stop it three minutes later, keep playing three more
minutes, then collect all measurements into a
:class:`~repro.experiments.results.RunResult`.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import threading
from math import inf, nextafter
from time import perf_counter

import numpy as np

from repro.experiments.config import RunConfig
from repro.experiments.results import RunResult
from repro.obs.metrics import MetricsRecorder
from repro.obs.profiler import SimProfiler
from repro.obs.trace import Tracer
from repro.testbed.tc import RouterConfig
from repro.testbed.topology import IPERF_FLOW, GameStreamingTestbed

__all__ = ["run_single", "RunTimeout", "Warmup"]


class RunTimeout(RuntimeError):
    """A run exceeded its cooperative wall-clock or event budget.

    Raised from inside the event loop by the deadline guard that
    :func:`run_single` installs when ``timeout_s`` or ``max_events`` is
    given.  The campaign scheduler treats it as a retryable failure.
    """


class Warmup:
    """The shared first third of a prefix batch: runs that differ only in
    their competitor simulate identical traffic until ``iperf_start``.

    Each of the batch's ``members`` :func:`run_single` calls gets this
    object, in order.  The first simulates the warm-up; every call then
    continues it in an ``os.fork()``ed child, one at a time, and the
    last drops it.  The run's guard reads the current member's label
    and budgets here, and a child's parent.
    """

    def __init__(self, members: int = 1):
        self.left = members       # run_single calls still to come
        self.testbed = None       # parked just before iperf_start
        self.seqs = (None, None)  # the competitor's reserved tie-breaks
        self.wall_s = 0.0         # host time the warm-up took
        # What the guard enforces; ``parent`` is a child's parent pid.
        self.label, self.deadline, self.max_events, self.parent = "", None, None, None


def run_single(
    config: RunConfig,
    tracer: Tracer | None = None,
    metrics: MetricsRecorder | None = None,
    sim_profiler: SimProfiler | None = None,
    store=None,
    timeout_s: float | None = None,
    max_events: int | None = None,
    warm: Warmup | None = None,
) -> RunResult:
    """Execute one run and return its measurements.

    Args:
        config: the run to execute.
        tracer: optional tracepoint bus; trace records carry sim time
            only, so identical configs produce identical traces.
        metrics: optional unbound metrics recorder; bound and started
            by the testbed.
        sim_profiler: optional event-loop profiler, attached for the
            duration of the run.
        store: optional :class:`~repro.store.runstore.RunStore`; a
            stored result for this config is returned without
            simulating (only when no tracer/metrics/profiler is
            requested -- those need the run to actually happen), and a
            fresh result is persisted before returning.
        timeout_s: cooperative wall-clock budget for the whole run
            (setup included); when exceeded, a guard event raises
            :class:`RunTimeout` from inside the event loop.  The guard
            is a no-op callback on the simulation clock, so it never
            perturbs traffic dynamics or measurements.
        max_events: like ``timeout_s`` but bounding the number of
            dispatched simulation events (a runaway-run backstop that
            is deterministic across hosts).
        warm: the :class:`Warmup` of the prefix batch this run belongs
            to.  An observed run, one in a process running other threads
            or on a platform without ``os.fork``, warms up alone.
    """
    observed = tracer is not None or metrics is not None or sim_profiler is not None
    if store is not None and not observed:
        cached = store.get(config)
        if cached is not None:
            return cached
    if (warm is None or observed or not hasattr(os, "fork")
            or threading.active_count() > 1):  # forking threads is unsafe
        warm = Warmup()
    warm.left -= 1
    start = perf_counter()
    timeline = config.timeline
    testbed = warm.testbed
    fresh = testbed is None
    if fresh:
        testbed = GameStreamingTestbed(
            config.system,
            RouterConfig(rate_bps=config.capacity_bps, queue_mult=config.queue_mult),
            seed=config.seed,
            qdisc=config.qdisc,
            tracer=tracer,
            metrics=metrics,
        )
        if tracer is not None and tracer.enabled:
            tracer.emit(
                "run.config", 0.0,
                system=config.system, cca=config.cca,
                capacity_bps=config.capacity_bps, queue_mult=config.queue_mult,
                seed=config.seed, qdisc=config.qdisc,
                timeline_scale=timeline.scale, end=timeline.end,
            )
        if sim_profiler is not None:
            testbed.sim.attach_profiler(sim_profiler)
    else:
        start -= warm.wall_s  # a member's wall time includes the warm-up
    warm.label, warm.max_events = config.label, max_events
    warm.deadline = None if timeout_s is None else start + timeout_s
    try:
        if fresh:
            # Every event before iperf_start.  Every run reserves the
            # competitor's start/stop seqs here (unused ones reorder
            # nothing), so it fires where a constructor-built one would.
            if timeout_s is not None or max_events is not None or warm.left:
                _install_deadline_guard(testbed.sim, timeline, warm)
            testbed.start_game()
            warm.seqs = (testbed.sim.reserve_seq(), testbed.sim.reserve_seq())
            testbed.sim.run(until=nextafter(timeline.iperf_start, -inf))
            warm.testbed, warm.wall_s = testbed, perf_counter() - start
        if warm.left or not fresh:
            # The last member too: continuing after a fork ran ~20 % slower.
            result = _forked(warm, config, start)
        else:
            result = _finish(testbed, warm.seqs, config, start, tracer)
    finally:
        if sim_profiler is not None:
            testbed.sim.detach_profiler()
            sim_profiler.finish()

    if sim_profiler is not None:
        result.profile = sim_profiler.summary()
    if store is not None:
        store.put(config, result)
    if not warm.left:
        warm.testbed = None
        # What the testbed owns is one reference cycle (sim <-> events
        # <-> bound methods), so dropping the name frees almost nothing,
        # and Simulator.run keeps the cyclic collector off for the whole
        # of the next run: without an explicit collection a finished
        # run's ~21k objects overlap the next run's and peak memory is
        # set by gen-2 timing.
        del testbed
        gc.collect()
    return result


def _finish(testbed: GameStreamingTestbed, seqs: tuple, config: RunConfig,
            start: float, tracer) -> RunResult:
    """Attach ``config``'s competitor to a warm testbed, run on, collect."""
    timeline = config.timeline
    if config.competing:
        testbed.attach_competitor(config.cca).schedule(
            timeline.iperf_start, timeline.iperf_stop, seqs
        )
    testbed.run(until=timeline.end)
    if tracer is not None and tracer.enabled:
        tracer.emit(
            "run.end", testbed.sim.now,
            events=testbed.sim.events_processed,
            frames=testbed.server.frames_sent,
        )
    result = _collect(config, testbed)
    result.wall_time_s = perf_counter() - start
    return result


def _forked(warm: Warmup, config: RunConfig, start: float) -> RunResult:
    """:func:`_finish` ``config`` in a forked child, leaving ``warm`` as
    it was, and return its result or raise its exception.  The child is
    reaped before this returns (killed first if the wait is interrupted)."""
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            warm.parent = parent
            try:
                outcome = (True, _finish(warm.testbed, warm.seqs, config, start, None))
            except BaseException as exc:  # re-raised by the parent
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(outcome))
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    try:
        ok, value = pickle.loads(payload)
    except Exception:
        raise RuntimeError(
            f"run {config.label}: its forked continuation died "
            f"(exit status {os.waitstatus_to_exitcode(status)})"
        ) from None
    if ok:
        return value
    raise value


def _install_deadline_guard(sim, timeline, warm: Warmup) -> None:
    """Schedule a recurring in-loop check of what ``warm`` holds.

    The guard piggybacks on the simulation clock (a few hundred checks
    per run) because the event loop is synchronous: nothing else gets a
    chance to notice a blown budget, or a forked continuation's dead
    parent, while a run is executing.  The callback touches no
    simulation state, so runs with and without a guard produce identical
    measurements.
    """
    interval = max(timeline.end / 256.0, 1e-3)

    def guard() -> None:
        if warm.parent is not None and os.getppid() != warm.parent:
            os._exit(1)
        if warm.deadline is not None and perf_counter() >= warm.deadline:
            raise RunTimeout(f"run {warm.label} exceeded its wall-clock budget")
        if warm.max_events is not None and sim.events_processed >= warm.max_events:
            raise RunTimeout(
                f"run {warm.label} exceeded its {warm.max_events}-event budget"
            )
        sim.schedule(interval, guard)

    sim.schedule(interval, guard)


def _collect(config: RunConfig, testbed: GameStreamingTestbed) -> RunResult:
    timeline = config.timeline
    game_flow = testbed.game_flow
    times, game_bps = testbed.capture.bitrate_series(
        game_flow, 0.0, timeline.end, timeline.bin_width
    )
    _, iperf_bps = testbed.capture.bitrate_series(
        IPERF_FLOW, 0.0, timeline.end, timeline.bin_width
    )

    baseline_lo, baseline_hi = timeline.baseline_window
    fair_lo, fair_hi = timeline.fairness_window
    solo_lo, solo_hi = timeline.solo_window
    cont_lo, cont_hi = timeline.contention_window

    client = testbed.client
    return RunResult(
        system=config.system,
        cca=config.cca,
        capacity_bps=config.capacity_bps,
        queue_mult=config.queue_mult,
        seed=config.seed,
        timeline_scale=timeline.scale,
        times=times,
        game_bps=game_bps,
        iperf_bps=iperf_bps,
        baseline_bps=testbed.capture.throughput_bps(game_flow, baseline_lo, baseline_hi),
        fairness_game_bps=testbed.capture.throughput_bps(game_flow, fair_lo, fair_hi),
        fairness_iperf_bps=testbed.capture.throughput_bps(IPERF_FLOW, fair_lo, fair_hi),
        solo_bps=testbed.capture.throughput_bps(game_flow, solo_lo, solo_hi),
        rtt_samples=np.asarray(testbed.prober.samples).reshape(-1, 2),
        game_loss_rate=testbed.game_loss_rate(),
        displayed_fps_contention=client.displayed_fps(cont_lo, cont_hi),
        displayed_fps_solo=client.displayed_fps(solo_lo, solo_hi),
        frames_displayed=client.frames_displayed,
        frames_dropped=client.frames_dropped,
        target_log=np.asarray(testbed.server.target_log).reshape(-1, 2),
        qdisc=config.qdisc,
    )
