"""Unit tests for the discrete-event engine, and a property test
against a reference model of its dispatch order."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.delayline import DelayLine
from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_run_until_stops_and_sets_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert fired == ["early", "late"]


def test_run_until_boundary_event_fires():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "x")
    sim.run(until=2.0)
    assert fired == ["x"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 1)
    sim.run()
    assert fired == [1, 2, 3]
    assert sim.now == 3.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_run_until_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1.0, lambda: None)
    cancelled = sim.schedule(2.0, lambda: None)
    cancelled.cancel()
    sim.run()
    assert sim.events_processed == 4


def test_zero_delay_event_runs_after_current_instant_events():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, fired.append, "zero")

    sim.schedule(1.0, first)
    sim.schedule(1.0, fired.append, "second")
    sim.run()
    assert fired == ["first", "second", "zero"]


# ----------------------------------------------------------------------
# Tombstone accounting and heap compaction
# ----------------------------------------------------------------------
def test_live_pending_excludes_cancelled_tombstones():
    sim = Simulator()
    events = [sim.schedule(1.0, lambda: None) for _ in range(10)]
    for event in events[:4]:
        event.cancel()
    # The raw heap still holds the tombstones; live_pending does not.
    assert sim.pending == 10
    assert sim.live_pending == 6


def test_compaction_triggers_under_cancel_churn():
    sim = Simulator()
    keeper = sim.schedule(10.0, lambda: None)
    events = [sim.schedule(5.0, lambda: None) for _ in range(1000)]
    for event in events:
        event.cancel()
    assert sim.compactions >= 1
    # The heap shrank back to (roughly) the live set.
    assert sim.pending < 1000
    assert sim.live_pending == 1
    keeper.cancel()


def test_compaction_preserves_dispatch_order(monkeypatch):
    def workload(sim):
        fired = []
        for i in range(600):
            # Times in a scrambled order, so the heap list is not sorted
            # and filtering it alone would break the heap invariant.
            event = sim.schedule(1.0 + (i * 7919 % 600) * 1e-4, fired.append, i)
            if i % 3:  # two in three: tombstones outnumber live entries
                event.cancel()
        sim.schedule(2.0, fired.append, "late")
        sim.run()
        return fired, sim.events_processed

    compacted = Simulator()
    baseline = Simulator()
    # Disable compaction on the control simulator only.
    monkeypatch.setattr(baseline, "COMPACT_MIN_CANCELLED", 10**9)
    assert workload(compacted) == workload(baseline)
    assert compacted.compactions >= 1 and baseline.compactions == 0


def test_compaction_inside_running_loop_keeps_future_events():
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(50.0, lambda: None) for _ in range(600)]

    def mass_cancel():
        for event in doomed:
            event.cancel()

    sim.schedule(1.0, mass_cancel)
    sim.schedule(2.0, fired.append, "survivor")
    sim.run()
    assert fired == ["survivor"]
    assert sim.compactions >= 1


def test_cancel_after_fire_does_not_corrupt_accounting():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    event.cancel()  # already fired: must not count as a tombstone
    assert sim.live_pending == 1
    sim.run()
    assert sim.live_pending == 0
    assert sim.pending == 0


def test_repr_reports_live_pending():
    sim = Simulator()
    sim.schedule(1.0, lambda: None).cancel()
    sim.schedule(1.0, lambda: None)
    assert "pending=1" in repr(sim)


# ----------------------------------------------------------------------
# Property test: the engine against a reference model
# ----------------------------------------------------------------------
class _Model:
    """The engine's specification: live ``(time, seq, fn, args)`` entries
    in a plain list, sorted on every pop.  No heap, no tombstones, no
    compaction; a delay-line item is an entry that took its seq when it
    was pushed, and a line counts as one pending entry while it holds
    any."""

    def __init__(self):
        self.now, self._seq, self.events_processed = 0.0, 0, 0
        self.live = []
        self.lines = set()  # the deliver callables of delay lines

    def schedule_at(self, time, fn, *args):
        self._seq += 1
        entry = (time, self._seq, fn, args)
        self.live.append(entry)
        return SimpleNamespace(
            cancel=lambda: entry in self.live and self.live.remove(entry)
        )

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def step(self):
        self.live.sort()  # seqs are unique: fn and args never compare
        if not self.live:
            return False
        time, _, fn, args = self.live.pop(0)
        self.now = time
        self.events_processed += 1
        fn(*args)
        return True

    def run(self, until=None):
        horizon = math.inf if until is None else until
        while self.live and min(self.live)[0] <= horizon:
            self.step()
        if until is not None:
            self.now = until

    @property
    def live_pending(self):
        fns = [entry[2] for entry in self.live]
        return sum(fn not in self.lines for fn in fns) + len(set(fns) & self.lines)


def _model_line(model, deliver):
    model.lines.add(deliver)
    return SimpleNamespace(
        push=lambda release, item: model.schedule_at(release, deliver, item)
    )


def _engine():
    sim = Simulator()
    sim.COMPACT_MIN_CANCELLED = 4  # make compaction reachable
    return sim


# Exact binary fractions tie often: the same delay from the same instant,
# or sums that land on one float from different instants.
_DELAYS = st.one_of(
    st.sampled_from([0.0, 2.0**-11, 2.0**-10, 0.25, 1.0, 10.0, 24.0]),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False,
              allow_infinity=False),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), _DELAYS,
                  st.lists(_DELAYS, max_size=2)),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("dlpush"), _DELAYS),
        st.tuples(st.just("run"), _DELAYS),
        st.tuples(st.just("step"),),
    ),
    min_size=1,
    max_size=40,
)


def _execute(sim, make_line, ops) -> tuple:
    """Interpret one op program against ``sim`` (engine or model)."""
    log: list = []
    events: list = []
    tags = iter(range(10**9))

    def make_cb(tag, child_delays):
        def cb():
            log.append((tag, sim.now))
            for delay in child_delays:
                # re-entrant push from inside dispatch
                events.append(sim.schedule(delay, make_cb(next(tags), ())))
        return cb

    line = make_line(sim, lambda item: log.append(("dl", item, sim.now)))
    last_release = 0.0
    cursor = 0.0
    for op in ops:
        kind = op[0]
        if kind == "sched":
            events.append(sim.schedule(op[1], make_cb(next(tags), op[2])))
        elif kind == "cancel":
            if events:
                events[op[1] % len(events)].cancel()  # post-fire cancels too
        elif kind == "dlpush":
            # reserved-seq path: releases are monotone by contract
            last_release = max(last_release, sim.now + op[1])
            line.push(last_release, next(tags))
        elif kind == "run":
            # step() may have advanced past the cursor; run(until) in
            # the past is a SimulationError
            cursor = max(cursor + op[1], sim.now)
            sim.run(until=cursor)
        elif kind == "step":
            log.append(("step", sim.step()))
        log.append(("live", sim.live_pending))
    sim.run()  # drain everything
    return log, sim.events_processed, sim._seq, sim.live_pending


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_dispatch_matches_reference_model(ops):
    assert _execute(_engine(), DelayLine, ops) == _execute(_Model(), _model_line, ops)


def test_property_harness_smoke():
    """The interpreter fires events and reaches the delay line and
    compaction (guards against a vacuous property test)."""
    ops = [("sched", 0.5, [0.0]), ("dlpush", 0.25), ("run", 1.0)]
    # Six timers, all cancelled: the fourth cancel compacts the heap.
    ops += [("sched", 2.0, [])] * 6 + [("cancel", k) for k in range(2, 8)]
    sim = _engine()
    out = _execute(sim, DelayLine, ops)
    assert out == _execute(_Model(), _model_line, ops)
    log, processed, _, live = out
    fired = [entry for entry in log if entry[0] != "live"]
    assert fired == [("dl", 1, 0.25), (0, 0.5), (2, 0.5)]
    assert processed == 3 and live == 0
    assert sim.compactions == 1
