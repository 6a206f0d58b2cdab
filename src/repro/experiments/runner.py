"""Run one experiment configuration end to end.

Mirrors the paper's per-round procedure (Section 3.4): configure the
router, start captures and probes, play the game, start iperf three
minutes in, stop it three minutes later, keep playing three more
minutes, then collect all measurements into a
:class:`~repro.experiments.results.RunResult`.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

from repro.experiments.config import RunConfig
from repro.experiments.results import RunResult
from repro.obs.metrics import MetricsRecorder
from repro.obs.profiler import SimProfiler
from repro.obs.trace import Tracer
from repro.testbed.tc import RouterConfig
from repro.testbed.topology import IPERF_FLOW, GameStreamingTestbed

__all__ = ["run_single", "RunTimeout"]


class RunTimeout(RuntimeError):
    """A run exceeded its cooperative wall-clock or event budget.

    Raised from inside the event loop by the deadline guard that
    :func:`run_single` installs when ``timeout_s`` or ``max_events`` is
    given.  The campaign scheduler treats it as a retryable failure.
    """


def run_single(
    config: RunConfig,
    tracer: Tracer | None = None,
    metrics: MetricsRecorder | None = None,
    sim_profiler: SimProfiler | None = None,
    store=None,
    timeout_s: float | None = None,
    max_events: int | None = None,
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
    """
    if store is not None:
        observed = tracer is not None or metrics is not None or sim_profiler is not None
        if not observed:
            cached = store.get(config)
            if cached is not None:
                return cached
    wall_start = perf_counter()
    timeline = config.timeline
    testbed = GameStreamingTestbed(
        config.system,
        RouterConfig(rate_bps=config.capacity_bps, queue_mult=config.queue_mult),
        seed=config.seed,
        competing_cca=config.cca,
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
    if timeout_s is not None or max_events is not None:
        _install_deadline_guard(
            testbed.sim, config, timeline,
            None if timeout_s is None else wall_start + timeout_s,
            max_events,
        )

    try:
        testbed.start_game()
        if config.competing:
            testbed.schedule_iperf(timeline.iperf_start, timeline.iperf_stop)
        testbed.run(until=timeline.end)
    finally:
        if sim_profiler is not None:
            testbed.sim.detach_profiler()
            sim_profiler.finish()

    if tracer is not None and tracer.enabled:
        tracer.emit(
            "run.end", testbed.sim.now,
            events=testbed.sim.events_processed,
            frames=testbed.server.frames_sent,
        )

    result = _collect(config, testbed)
    result.wall_time_s = perf_counter() - wall_start
    if sim_profiler is not None:
        result.profile = sim_profiler.summary()
    if store is not None:
        store.put(config, result)
    # What the testbed owns is one reference cycle (sim <-> events <->
    # bound methods), so dropping the name frees almost nothing, and
    # Simulator.run keeps the cyclic collector off for the whole of the
    # next run: without an explicit collection a finished run's ~21k
    # objects overlap the next run's and peak memory is set by gen-2
    # timing.
    del testbed
    gc.collect()
    return result


def _install_deadline_guard(
    sim, config: RunConfig, timeline, deadline: float | None,
    max_events: int | None,
) -> None:
    """Schedule a recurring in-loop budget check.

    The guard piggybacks on the simulation clock (a few hundred checks
    per run) because the event loop is synchronous: nothing else gets a
    chance to notice a blown budget while a run is executing.  The
    callback touches no simulation state, so runs with and without a
    guard produce identical measurements.
    """
    interval = max(timeline.end / 256.0, 1e-3)

    def guard() -> None:
        if deadline is not None and perf_counter() >= deadline:
            raise RunTimeout(
                f"run {config.label} exceeded its wall-clock budget"
            )
        if max_events is not None and sim.events_processed >= max_events:
            raise RunTimeout(
                f"run {config.label} exceeded its {max_events}-event budget"
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
