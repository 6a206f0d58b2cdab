"""Tests for the event-loop profiler."""

from repro.obs.profiler import SimProfiler
from repro.sim.engine import Simulator


def _noop():
    pass


def _busy():
    sum(range(200))


def test_profiler_counts_every_dispatched_event():
    sim = Simulator()
    profiler = SimProfiler()
    sim.attach_profiler(profiler)
    for i in range(5):
        sim.schedule(i * 0.1, _noop)
    sim.run()
    profiler.finish()
    assert profiler.events == 5
    assert sim.events_processed == 5


def test_profiler_categorises_by_qualname():
    sim = Simulator()
    profiler = SimProfiler()
    sim.attach_profiler(profiler)
    sim.schedule(0.0, _noop)
    sim.schedule(0.1, _noop)
    sim.schedule(0.2, _busy)
    sim.run()
    summary = profiler.summary()
    by_name = {row["callback"]: row for row in summary["categories"]}
    assert by_name["_noop"]["count"] == 2
    assert by_name["_busy"]["count"] == 1
    assert summary["events"] == 3
    assert summary["wall_in_callbacks_s"] >= 0.0


def test_profiler_tracks_heap_depth():
    sim = Simulator()
    profiler = SimProfiler()
    sim.attach_profiler(profiler)
    for i in range(10):
        sim.schedule(1.0 + i * 0.01, _noop)
    sim.schedule(0.0, _noop)  # dispatched while 10 events remain queued
    sim.run()
    assert profiler.max_heap_depth == 10


def test_heap_depth_counts_rearmed_events():
    """A self-rearming timer (the recycled-event fast path) re-enters
    the heap in place; depth accounting must see it like any fresh
    schedule."""
    sim = Simulator()
    profiler = SimProfiler()
    sim.attach_profiler(profiler)

    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) < 5:
            sim.rearm(timer, sim.now + 0.1)

    timer = sim.schedule(0.1, tick)
    # Park a far-future event so the heap never empties: every tick
    # should observe a depth of exactly 1 (the parked event), because
    # the rearmed timer is popped before dispatch and re-pushed after.
    sim.schedule(100.0, _noop)
    sim.run()
    assert len(fired) == 5
    assert profiler.max_heap_depth == 2  # parked event + rearmed timer


def test_heap_depth_ignores_cancelled_tombstones():
    """Depth is live entries, not raw heap length: tombstones from
    cancelled events must not inflate the reading."""
    sim = Simulator()
    profiler = SimProfiler()
    sim.attach_profiler(profiler)
    doomed = [sim.schedule(5.0 + i, _noop) for i in range(4)]
    sim.schedule(0.0, _noop)
    sim.schedule(10.0, _noop)  # keeps the run going past the tombstones

    def cancel_all():
        for event in doomed:
            event.cancel()

    sim.schedule(0.1, cancel_all)
    sim.run()
    # After cancel_all fires, only the 10.0s event is live; the peak
    # was observed earlier, while all 4 doomed events were queued.
    summary = profiler.summary()
    assert summary["max_heap_depth"] == 6
    assert summary["events"] == 3  # 0.0 noop, cancel_all, 10.0 noop


def test_heap_depth_peak_during_burst():
    sim = Simulator()
    profiler = SimProfiler()
    sim.attach_profiler(profiler)

    def fan_out():
        for i in range(20):
            sim.schedule(1.0 + i * 0.01, _noop)

    sim.schedule(0.0, fan_out)
    sim.run()
    assert profiler.max_heap_depth == 20


def test_detach_stops_accounting():
    sim = Simulator()
    profiler = SimProfiler()
    sim.attach_profiler(profiler)
    sim.schedule(0.0, _noop)
    sim.run()
    sim.detach_profiler()
    sim.schedule(0.0, _noop)
    sim.run()
    assert profiler.events == 1
    assert sim.events_processed == 2


def test_empty_profiler_summary_is_safe():
    summary = SimProfiler().summary()
    assert summary["events"] == 0
    assert summary["events_per_sec"] == 0.0
    assert summary["categories"] == []


def test_render_mentions_top_categories():
    sim = Simulator()
    profiler = SimProfiler()
    sim.attach_profiler(profiler)
    sim.schedule(0.0, _busy)
    sim.run()
    profiler.finish()
    text = profiler.render()
    assert "sim profile" in text
    assert "_busy" in text

