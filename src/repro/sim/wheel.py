"""Hybrid timing-wheel scheduler backend.

The simulation's event population is bimodal: packet events
(serialisation completions, delay-line releases, ACK clocks) cluster
within one RTT of ``now``, while a thin tail of RTO and session timers
sits hundreds of milliseconds to seconds out.  A single binary heap
pays O(log n) comparisons for every member of that tail twice -- once
on push and once on pop -- and a timer that is cancelled and re-armed
fills it with tombstones that every later operation wades through.

The hybrid keeps each population where it is cheapest:

* A **near heap** (plain ``heapq``) holds events due within
  ``near_slots`` wheel slots (default 256 x 1/1024 s = 0.25 s).  The
  packet path therefore runs at C speed, exactly as the pure-heap
  backend, but over a heap that never contains the far-timer tail.
* A **wheel** of ``nslots`` buckets, each ``slot_s`` wide (defaults:
  8192 slots of 1/1024 s -- an 8 s horizon at sub-millisecond grain),
  absorbs far timers with a plain ``list.append`` -- O(1), no
  comparisons.  Slot index is ``int(time * 1024.0)``; the scale is a
  power of two, so the float multiply is exact and the bucket function
  is a true monotone floor.  A timer that is cancelled before its
  slot opens is dropped at cascade time without ever touching the heap.
* An **occupancy heap** of absolute slot indices records which buckets
  hold entries, so finding the next busy slot is a heap-pop, not a scan
  over empty buckets.
* An **overflow heap** takes the rare event beyond the wheel horizon.

``boundary`` is the start time of the earliest occupied slot (wheel or
overflow); every wheel/overflow entry is at or after it.  The engine's
dispatch loop pops the near heap while its head is strictly below
``boundary`` and calls :meth:`cascade_next` to merge the earliest slot
into the heap before crossing it.

**Ordering is byte-identical to the heap backend.**  The proof has two
halves.  (1) While ``cur`` (the last cascaded slot) is fixed, every
near-heap entry has slot index ``< cur + near_slots`` -- the push rule
guarantees it at push time and ``cur`` only grows -- while every newly
bucketed entry has slot ``>= cur + near_slots`` and every overflow
entry has slot ``>= cur + nslots``: nothing filed outside the heap can
ever sort before anything inside it.  (2) Before the dispatch loop pops
an entry at or past ``boundary``, the boundary slot is cascaded into
the heap, so same-instant ties across the two stores are resolved by
the heap's own ``(time, seq)`` order -- the same total order a single
heap would have produced.  Re-entrant pushes (zero-delay events,
``rearm`` with a reserved tie-break from
:meth:`~repro.sim.engine.Simulator.reserve_seq`) land in the near heap
and are ordered by the same comparison.

Cancelled events are tombstones exactly as in the heap backend: they
are skipped at dispatch, counted by the engine, and removed either by
:meth:`compact` or -- for bucketed timers -- silently at cascade time
(the engine adjusts its tombstone count by :meth:`cascade_next`'s
return value).
"""

from __future__ import annotations

import heapq
from math import inf

__all__ = [
    "TimingWheel",
    "DEFAULT_SLOT_S",
    "DEFAULT_NSLOTS",
    "DEFAULT_NEAR_SLOTS",
]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Slot width in seconds.  1/1024 s (~0.98 ms) is well under the paper's
#: 16.5 ms target RTT, so far timers spread across many buckets.  A
#: power of two keeps ``time * inv_w`` exact (no float rounding at the
#: boundary).
DEFAULT_SLOT_S = 1.0 / 1024.0

#: Wheel size (power of two).  8192 slots x 1/1024 s = an 8 s horizon,
#: which covers every recurring timer in the testbed (RTO ceilings
#: included) -- the overflow heap only sees one-shot session timers.
DEFAULT_NSLOTS = 8192

#: Near-heap horizon in slots.  256 x 1/1024 s = 0.25 s: comfortably
#: past every packet-scale event (sub-RTT) yet below the shortest RTO,
#: so packet events take the C heap and timer churn takes the buckets.
DEFAULT_NEAR_SLOTS = 256


class TimingWheel:
    """Bucketed far-timer store in front of a near-event ``heapq``.

    Entries are the engine's ``(time, seq, Event)`` tuples; the wheel
    never looks inside the Event beyond its ``cancelled`` flag.  The
    engine owns ``now`` and the tie-break sequence; the wheel owns only
    *where* an entry waits.

    Attributes:
        heap: the near heap the dispatch loop pops from.
        boundary: start time of the earliest occupied wheel/overflow
            slot (``inf`` when none) -- no wheel or overflow entry is
            earlier.  The dispatch loop must :meth:`cascade_next`
            before consuming the heap at or past this time.
    """

    __slots__ = (
        "slot_s",
        "inv_w",
        "nslots",
        "mask",
        "near",
        "near_limit",
        "slots",
        "occ",
        "cur",
        "heap",
        "boundary",
        "wheel_count",
        "overflow",
    )

    def __init__(
        self,
        slot_s: float = DEFAULT_SLOT_S,
        nslots: int = DEFAULT_NSLOTS,
        near_slots: int = DEFAULT_NEAR_SLOTS,
    ) -> None:
        if slot_s <= 0:
            raise ValueError(f"slot_s must be positive, got {slot_s}")
        if nslots < 2 or nslots & (nslots - 1):
            raise ValueError(f"nslots must be a power of two >= 2, got {nslots}")
        if not 0 < near_slots < nslots:
            raise ValueError(
                f"near_slots must be in (0, {nslots}), got {near_slots}"
            )
        self.slot_s = slot_s
        self.inv_w = 1.0 / slot_s
        self.nslots = nslots
        self.mask = nslots - 1
        self.near = near_slots
        self.slots: list[list[tuple]] = [[] for _ in range(nslots)]
        #: Min-heap of absolute slot indices that (may) hold entries.
        #: Stale indices (bucket since emptied by compaction) are
        #: skipped lazily.
        self.occ: list[int] = []
        #: The last cascaded absolute slot; only grows.
        self.cur = 0
        #: Exclusive time bound of the near region: an entry is a near
        #: event iff ``time < near_limit``.  Equivalent to the slot test
        #: ``int(time * inv_w) < cur + near`` because the slot scale is
        #: a power of two (``floor(x) < k  <=>  x < k`` for integer k),
        #: but costs one float compare on the hot push path.
        self.near_limit = near_slots * slot_s
        self.heap: list[tuple] = []
        self.boundary = inf
        #: Entries waiting in wheel buckets (excludes heap and overflow).
        self.wheel_count = 0
        self.overflow: list[tuple] = []

    @property
    def size(self) -> int:
        """Total entries held, cancelled tombstones included -- the
        hybrid analogue of ``len(heap)`` on the pure-heap backend."""
        return len(self.heap) + self.wheel_count + len(self.overflow)

    # ------------------------------------------------------------------
    def push(self, time: float, seq: int, event) -> None:
        """File ``(time, seq, event)`` for dispatch.

        Near events (within ``near`` slots of the last cascaded slot)
        go straight to the heap; far events take a bucket append; the
        rare beyond-horizon event goes to the overflow heap.  The
        engine guarantees ``time >= now``.
        """
        if time < self.near_limit:
            _heappush(self.heap, (time, seq, event))
            return
        s = int(time * self.inv_w)
        if s - self.cur < self.nslots:
            bucket = self.slots[s & self.mask]
            if not bucket:
                _heappush(self.occ, s)
                b = s * self.slot_s
                if b < self.boundary:
                    self.boundary = b
            bucket.append((time, seq, event))
            self.wheel_count += 1
        else:
            _heappush(self.overflow, (time, seq, event))
            b = s * self.slot_s
            if b < self.boundary:
                self.boundary = b

    # ------------------------------------------------------------------
    def cascade_next(self) -> int:
        """Merge the earliest occupied slot into the near heap.

        Advances ``cur`` to that slot, moves its live entries (bucket
        and same-slot overflow) onto the heap, recomputes ``boundary``,
        and returns the number of cancelled tombstones dropped on the
        way (the engine deducts them from its tombstone count).  A
        stale occupancy index just advances past itself.
        """
        occ = self.occ
        cur = self.cur
        while occ and occ[0] <= cur:
            _heappop(occ)
        ov = self.overflow
        inv_w = self.inv_w
        if occ:
            target = occ[0]
            if ov:
                s = int(ov[0][0] * inv_w)
                if s < target:
                    target = s
        elif ov:
            target = int(ov[0][0] * inv_w)
        else:
            self.boundary = inf
            return 0
        self.cur = target
        self.near_limit = (target + self.near) * self.slot_s
        heap = self.heap
        dropped = 0
        if occ and occ[0] == target:
            _heappop(occ)
            i = target & self.mask
            bucket = self.slots[i]
            self.slots[i] = []
            self.wheel_count -= len(bucket)
            for entry in bucket:
                if entry[2].cancelled:
                    dropped += 1
                else:
                    _heappush(heap, entry)
        if ov:
            # All overflow entries in the target slot: the comparison
            # boundary is exact because slot_s is a power of two.
            limit = (target + 1) * self.slot_s
            while ov and ov[0][0] < limit:
                entry = _heappop(ov)
                if entry[2].cancelled:
                    dropped += 1
                else:
                    _heappush(heap, entry)
        while occ and occ[0] <= target:
            _heappop(occ)
        boundary = occ[0] * self.slot_s if occ else inf
        if ov:
            b = int(ov[0][0] * inv_w) * self.slot_s
            if b < boundary:
                boundary = b
        self.boundary = boundary
        return dropped

    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Drop cancelled tombstones from every backlog region.

        The near heap is filtered and re-heapified in place (so the
        dispatch loop's alias stays valid when a callback's ``cancel``
        triggers compaction mid-run); occupied wheel buckets are
        filtered bucket by bucket -- the occupancy heap says which ones
        to visit, so the cost scales with the backlog, not the wheel
        size, and the heap is rebuilt without stale indices as a side
        effect; the overflow is filtered and re-heapified.  Relative
        order of live entries is untouched, so dispatch order is
        unchanged -- the same argument as the pure-heap backend's
        filter-plus-heapify compaction.
        """
        heap = self.heap
        heap[:] = [e for e in heap if not e[2].cancelled]
        heapq.heapify(heap)
        slots = self.slots
        mask = self.mask
        cur = self.cur
        count = 0
        occ = []
        for s in set(self.occ):
            if s <= cur:
                continue
            i = s & mask
            bucket = slots[i]
            if bucket:
                kept = [e for e in bucket if not e[2].cancelled]
                slots[i] = kept
                count += len(kept)
                if kept:
                    occ.append(s)
        heapq.heapify(occ)
        self.occ = occ
        self.wheel_count = count
        ov = [e for e in self.overflow if not e[2].cancelled]
        heapq.heapify(ov)
        self.overflow = ov
        boundary = occ[0] * self.slot_s if occ else inf
        if ov:
            b = int(ov[0][0] * self.inv_w) * self.slot_s
            if b < boundary:
                boundary = b
        self.boundary = boundary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TimingWheel slot={self.slot_s * 1e3:.3f}ms x{self.nslots} "
            f"near={len(self.heap)} wheel={self.wheel_count} "
            f"overflow={len(self.overflow)}>"
        )
