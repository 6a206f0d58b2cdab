"""Discrete-event simulation engine.

A minimal, fast event loop: events are ``(time, sequence, Event)``
entries in one binary heap.  The sequence number breaks ties so that
events scheduled at the same instant fire in FIFO order, which keeps
packet processing deterministic.

The heap stays shallow because the components that would fill it keep
one entry each: order-preserving stages (delay lines, the client's frame
deadlines) and timers (links, the TCP sender's deadline timers) recycle
one Event and push it through ``sim._push(time, seq, event)``, cached at
wiring time.  The tie-break contract (:meth:`Simulator.reserve_seq`,
:meth:`Simulator.rearm`, tombstone compaction) is what lets them do so
without changing the dispatch order.

The engine is deliberately free of any networking knowledge; links,
queues, and protocol endpoints schedule callbacks on it.
"""

from __future__ import annotations

import gc
import heapq
from math import inf
from time import perf_counter
from typing import Any, Callable

__all__ = ["Event", "Simulator", "SimulationError", "DEFAULT_SCHEDULER"]

#: Name of the one scheduler (the binary heap), for records that say
#: which backend produced a run.
DEFAULT_SCHEDULER = "heap"

# Bound once: the scheduling and dispatch paths run for every event, and
# a module-level name saves the heapq attribute lookup on each of them.
_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` so callers can
    :meth:`cancel` them.  A cancelled event stays in the heap as a
    tombstone and is skipped when popped; this is O(1) and avoids heap
    surgery.  The engine counts tombstones and compacts the heap when
    they dominate.  Nothing on the packet path cancels: the TCP sender's
    RTO and pacer are deadline timers
    (:class:`~repro.tcp.base.DeadlineTimer`), which cancel only when a
    deadline moves earlier (about once a flow), and the client's frame
    deadlines ride a :class:`~repro.sim.delayline.DelayLine`, which
    never cancels.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Simulator | None" = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} #{self.seq} {name}{state}>"


class Simulator:
    """The event loop and simulation clock.

    Time is a float in seconds, starting at 0.  Typical use::

        sim = Simulator()
        sim.schedule(1.0, print, "one second in")
        sim.run(until=10.0)
    """

    #: Compaction floor: below this many tombstones the rebuild is not
    #: worth its O(n) cost, whatever fraction of the backlog they are.
    COMPACT_MIN_CANCELLED = 256

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq: int = 0
        self._events_processed: int = 0
        self._cancelled: int = 0
        self._compactions: int = 0
        self._profiler = None
        # Entries are (time, seq, Event) tuples, so ordering is resolved
        # by C-level float/int comparison without ever invoking Python
        # code on the Event itself.
        self._heap: list[tuple[float, int, Event]] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which may be cancelled.  ``delay``
        must be non-negative; zero-delay events run after all events
        already scheduled for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        # Inlined bookkeeping (not a schedule_at call): this is the
        # hottest entry point -- every packet and timer comes through
        # here -- and the extra frame costs more than the lines save.
        time = self.now + delay
        seq = self._seq = self._seq + 1
        event = Event(time, seq, fn, args, self)
        self._push(time, seq, event)
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} (now is {self.now:.6f})"
            )
        seq = self._seq = self._seq + 1
        event = Event(time, seq, fn, args, self)
        self._push(time, seq, event)
        return event

    def reserve_seq(self) -> int:
        """Allocate and return a tie-break sequence number, scheduling
        nothing.

        A coalescing stage (:class:`~repro.sim.delayline.DelayLine`)
        reserves, at enqueue time, the exact heap position its item
        would have held under per-item :meth:`schedule_at`; passing the
        reserved number to :meth:`rearm` later reproduces that dispatch
        order bit-for-bit, including same-instant ties against
        unrelated events.
        """
        seq = self._seq = self._seq + 1
        return seq

    def rearm(self, event: Event, time: float, seq: int | None = None) -> Event:
        """Re-insert a timer :class:`Event` at an absolute time, in place.

        The allocation-free sibling of :meth:`schedule_at` for
        self-rearming timers (delay lines, pacers): the same Event
        object is recycled across firings instead of constructing a new
        one per arm.  The caller must guarantee the event is NOT
        currently in the heap -- i.e. it has already fired or has never
        been armed.  Rearming an event that is still queued would make
        it fire twice.

        ``seq`` recycles a tie-break number previously taken with
        :meth:`reserve_seq` (it must not still be in the heap); by
        default a fresh number is allocated.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot rearm at t={time:.6f} (now is {self.now:.6f})"
            )
        if seq is None:
            seq = self._seq = self._seq + 1
        event.time = time
        event.seq = seq
        event.cancelled = False
        event._sim = self
        self._push(time, seq, event)
        return event

    def _push(self, time: float, seq: int, event: Event) -> None:
        """Queue ``event`` at ``(time, seq)``: the one insertion point.

        Links, delay lines and deadline timers cache this bound method at
        wiring time and push their recycled Event through it.
        """
        _heappush(self._heap, (time, seq, event))

    # ------------------------------------------------------------------
    # Tombstone accounting
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` for events still queued.

        When tombstones outnumber live events (and exceed a fixed
        floor), the backlog is rebuilt without them, so a caller that
        cancels and re-arms a timer per event cannot inflate every later
        push and pop (the simulator's own components do not).
        """
        self._cancelled += 1
        if (
            self._cancelled >= self.COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        # In place (``heap[:] =``), so the dispatch loop's heap alias
        # stays valid even when a callback's cancel() triggers
        # compaction mid-run.  Order is a pure (time, seq) comparison,
        # so filtering reproduces the exact same dispatch order.
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, until: float, max_events: int) -> int:
        """The dispatch loop behind both :meth:`step` and :meth:`run`.

        Pops and fires events with ``time <= until``, at most
        ``max_events`` of them (-1 for unlimited), and returns how many
        fired.  Every dispatched event passes the profiler hook here, so
        neither entry point can bypass instrumentation and
        ``events_processed`` stays consistent between them.

        The loop is written ``while True: if heap: ... continue`` and
        ``break`` rather than ``while heap:`` on purpose: on CPython 3.11
        that shape dispatched identical heap contents ~25 % faster in a
        micro-benchmark (docs/PERFORMANCE.md, "One scheduler").
        """
        heap = self._heap
        heappop = _heappop
        # Profilers attach/detach only between dispatch calls, so the
        # lookup is hoisted out of the loop.
        profiler = self._profiler
        dispatched = 0
        while True:
            if heap:
                time = heap[0][0]
                if time > until:
                    break
                _, _, event = heappop(heap)
                if event.cancelled:
                    if self._cancelled > 0:
                        self._cancelled -= 1
                    continue
                # A fired event must not count as a tombstone if someone
                # cancels it afterwards (cancel is documented as
                # idempotent).
                event._sim = None
                self.now = time
                self._events_processed += 1
                if profiler is None:
                    event.fn(*event.args)
                else:
                    start = perf_counter()
                    event.fn(*event.args)
                    profiler.on_event(
                        event, perf_counter() - start, len(heap) - self._cancelled
                    )
                dispatched += 1
                if dispatched == max_events:
                    break
                continue
            break
        return dispatched

    def step(self) -> bool:
        """Run the next pending event.  Returns False when none remain."""
        return self._dispatch(inf, 1) > 0

    def run(self, until: float | None = None) -> None:
        """Run events until the heap empties or the clock passes ``until``.

        When ``until`` is given, the clock is left exactly at ``until``
        even if the last event fired earlier, so subsequent scheduling is
        relative to the requested horizon.

        The cyclic garbage collector is suspended for the duration of
        the dispatch: the per-packet objects (packets, metadata, ledger
        entries, heap tuples) are reference-counted and acyclic, so
        generation-0 scans triggered every ~700 allocations find nothing
        to free and only add latency.  The few genuine cycles (a stage's
        self-referencing timer event) are per-component singletons that
        the re-enabled collector reaps after the run.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until t={until:.6f} (now is {self.now:.6f})"
            )
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if until is None:
                self._dispatch(inf, -1)
                return
            self._dispatch(until, -1)
            self.now = until
        finally:
            if gc_was_enabled:
                gc.enable()

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def attach_profiler(self, profiler) -> None:
        """Time every dispatched callback through ``profiler.on_event``.

        The hook receives ``(event, elapsed_seconds, heap_depth)``; see
        :class:`repro.obs.profiler.SimProfiler`.  Detach (or never
        attach) to keep the dispatch loop free of timing calls.
        """
        self._profiler = profiler

    def detach_profiler(self) -> None:
        self._profiler = None

    @property
    def pending(self) -> int:
        """Heap entries still queued, cancelled tombstones included.

        A component that coalesces its events (a delay line, a deadline
        timer) counts once however many items it holds; use
        :attr:`live_pending` for the number of entries that will
        actually fire.
        """
        return len(self._heap)

    @property
    def live_pending(self) -> int:
        """Number of queued events that will actually fire.

        Excludes cancelled tombstones awaiting their pop (or the next
        compaction), so it is the truthful backlog figure -- the one the
        profiler reports as heap depth.
        """
        live = self.pending - self._cancelled
        return live if live > 0 else 0

    @property
    def compactions(self) -> int:
        """Times the heap was rebuilt to shed cancelled tombstones."""
        return self._compactions

    @property
    def events_processed(self) -> int:
        """Total events executed so far (for performance reporting)."""
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} pending={self.live_pending}>"
