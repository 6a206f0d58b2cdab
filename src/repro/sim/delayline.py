"""Coalesced FIFO delay lines.

Several stages of a run are *provably order-preserving*: a netem delay
stage clamps each release to the previous one, a link's propagation leg
adds a fixed delay to strictly increasing transmission completions, and
the streaming client gives every frame the same repair deadline from
the instant its first packet arrives.  Scheduling one engine event per
item through such a stage is wasteful twice over: every item costs a
fresh :class:`~repro.sim.engine.Event` allocation, and a
bandwidth-delay product worth of queued deliveries (or a quarter second
of open frames) inflates the heap that every *other* push and pop must
sift through.  (A stage that feeds a :class:`~repro.sim.link.Link`
needs no timer at all: see the link's timestamped hand-off.)

A :class:`DelayLine` replaces that with an internal
``(release, seq, item)`` deque drained by a single self-rearming head
timer: one live heap entry per stage regardless of occupancy, and one
recycled Event object for the stage's lifetime (via
:meth:`Simulator.rearm`).

Determinism is exact, not approximate.  Each push *reserves* the
engine tie-break sequence number that per-item ``schedule_at`` would
have consumed at that same moment (:meth:`Simulator.reserve_seq`), and
the head timer is always armed with the head item's reserved number.
The heap therefore pops the timer at precisely the (time, seq) slot
the item's own event would have occupied -- so even events from
*unrelated* sources landing on the same float instant interleave
exactly as before coalescing.  That is why the timer delivers one item
per firing instead of batch-draining everything due: a batch could
leapfrog a same-instant foreign event whose reserved slot falls
between two queued items.

Ordering contract: callers must push items with non-decreasing release
times and never need to cancel one (the stages above guarantee both by
construction).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.sim.engine import Event, Simulator

__all__ = ["DelayLine"]


class DelayLine:
    """FIFO release schedule drained by one self-rearming timer.

    Args:
        sim: the event loop.
        deliver: callable invoked with each item at its release time.

    The timer is armed exactly while the line is non-empty.  ``deliver``
    may push new items into the same line re-entrantly; they are
    appended behind the items already queued (the timer owns the line
    for the whole firing, so a re-entrant push never double-arms it).
    """

    __slots__ = ("sim", "deliver", "_q", "_timer", "_armed", "_sched_push")

    def __init__(self, sim: Simulator, deliver: Callable[[Any], None]):
        self.sim = sim
        self.deliver = deliver
        self._q: deque[tuple[float, int, Any]] = deque()
        self._timer = Event(0.0, 0, self._fire, ())
        self._armed = False
        # The engine's insertion point, cached at wiring time (one
        # attribute hop per arm instead of two).
        self._sched_push = sim._push

    # Both hot methods below inline the engine's reserve_seq/rearm pair
    # (they run once per packet per stage).  The shortcuts are safe
    # because the timer is never cancelled and releases are monotone, so
    # the rearm-time validation (`time >= now`) holds by construction.
    # The owning stage may remove queued entries (NetemDelay.withdraw);
    # a timer armed for a removed head delivers nothing and moves on.

    def push(self, release: float, item: Any) -> None:
        """Queue ``item`` for delivery at ``release`` (>= previous push)."""
        sim = self.sim
        seq = sim._seq = sim._seq + 1
        self._q.append((release, seq, item))
        if not self._armed:
            self._armed = True
            timer = self._timer
            timer.time = release
            timer.seq = seq
            self._sched_push(release, seq, timer)

    def _fire(self) -> None:
        q = self._q
        if q and q[0][1] == self._timer.seq:
            self.deliver(q.popleft()[2])
        if q:
            release, seq, _ = q[0]
            timer = self._timer
            timer.time = release
            timer.seq = seq
            self._sched_push(release, seq, timer)
        else:
            self._armed = False

    def __len__(self) -> int:
        return len(self._q)

    @property
    def next_release(self) -> float | None:
        """Release time of the head item, or None when empty."""
        return self._q[0][0] if self._q else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = self.next_release
        at = f" head@{head:.6f}" if head is not None else ""
        return f"<DelayLine {len(self._q)} queued{at}>"
