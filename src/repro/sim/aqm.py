"""Active Queue Management: CoDel and FQ-CoDel.

The paper's router is drop-tail only and its future-work section calls out
AQM (specifically Flow Queue CoDel, RFC 8290) as the natural follow-on
experiment.  We implement both CoDel (RFC 8289) and FQ-CoDel so the
ablation benchmarks can re-run the paper's scenarios with smarter queues.

CoDel drops at *dequeue* time based on packet sojourn: once the standing
queue delay exceeds ``target`` for at least ``interval``, packets are
dropped at increasing frequency (``interval / sqrt(count)``) until the
delay falls below target.  FQ-CoDel hashes flows into separate CoDel
queues served by deficit round-robin, with new flows given priority.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.obs.trace import Tracer
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import Queue

__all__ = ["CoDelQueue", "FQCoDelQueue"]

_MTU = 1514


class _CoDelState:
    """Per-queue CoDel control-law state (RFC 8289 pseudocode)."""

    __slots__ = ("first_above_time", "drop_next", "count", "lastcount", "dropping")

    def __init__(self) -> None:
        self.first_above_time = 0.0
        self.drop_next = 0.0
        self.count = 0
        self.lastcount = 0
        self.dropping = False


def _control_law(t: float, interval: float, count: int) -> float:
    return t + interval / (count**0.5)


class CoDelQueue(Queue):
    """A CoDel-managed FIFO (RFC 8289).

    Args:
        sim: the event loop.
        limit_bytes: hard byte cap (drop-tail backstop, as in Linux).
        target: acceptable standing queue delay (default 5 ms).
        interval: sliding window for the delay estimate (default 100 ms).
        on_drop: optional callback for dropped packets.
    """

    def __init__(
        self,
        sim: Simulator,
        limit_bytes: int,
        target: float = 0.005,
        interval: float = 0.100,
        on_drop: Callable[[Packet], None] | None = None,
        tracer: Tracer | None = None,
    ):
        if limit_bytes <= 0:
            raise ValueError(f"limit_bytes must be positive, got {limit_bytes}")
        super().__init__(sim, on_drop, tracer)
        self.limit_bytes = limit_bytes
        self.target = target
        self.interval = interval
        self._state = _CoDelState()

    def enqueue(self, pkt: Packet, now: float) -> bool:
        if self.bytes + pkt.size > self.limit_bytes:
            self._drop(pkt, now)
            return False
        self._admit(pkt, now)
        return True

    # -- CoDel dequeue machinery ----------------------------------------
    def _should_drop(self, pkt: Packet, now: float, state: _CoDelState) -> bool:
        sojourn = now - pkt.enqueued_at
        if sojourn < self.target or self.bytes < _MTU:
            state.first_above_time = 0.0
            return False
        if state.first_above_time == 0.0:
            state.first_above_time = now + self.interval
            return False
        return now >= state.first_above_time

    def _codel_pop(self, state: _CoDelState) -> Packet | None:
        now = self.sim.now
        pkt = self._pop_fifo()
        if pkt is None:
            state.dropping = False
            return None
        drop = self._should_drop(pkt, now, state)
        if state.dropping:
            if not drop:
                state.dropping = False
            else:
                while state.dropping and now >= state.drop_next:
                    self._drop(pkt, now)
                    state.count += 1
                    pkt = self._pop_fifo()
                    if pkt is None:
                        state.dropping = False
                        return None
                    if not self._should_drop(pkt, now, state):
                        state.dropping = False
                    else:
                        state.drop_next = _control_law(
                            state.drop_next, self.interval, state.count
                        )
        elif drop:
            self._drop(pkt, now)
            pkt = self._pop_fifo()
            if pkt is None:
                return None
            state.dropping = True
            # Start the next drop sooner if we were recently dropping.
            delta = state.count - state.lastcount
            state.count = (
                delta if delta > 1 and now - state.drop_next < 16 * self.interval else 1
            )
            state.drop_next = _control_law(now, self.interval, state.count)
            state.lastcount = state.count
        return pkt

    def pop(self) -> Packet | None:
        return self._codel_pop(self._state)


class _FlowQueue:
    """One FQ-CoDel sub-queue: its own FIFO, CoDel state, and DRR deficit."""

    __slots__ = ("fifo", "state", "deficit", "active")

    def __init__(self) -> None:
        self.fifo: deque[Packet] = deque()
        self.state = _CoDelState()
        self.deficit = 0
        self.active = False


class FQCoDelQueue(Queue):
    """Flow Queue CoDel (RFC 8290), simplified but faithful in structure.

    Flows (keyed by ``Packet.flow``) get individual CoDel queues served by
    deficit round-robin with quantum one MTU; queues that become active
    join the *new* list and are served before *old* queues, giving sparse
    flows (pings, ACKs, feedback) low latency even under bulk load.
    """

    def __init__(
        self,
        sim: Simulator,
        limit_bytes: int,
        target: float = 0.005,
        interval: float = 0.100,
        quantum: int = _MTU,
        on_drop: Callable[[Packet], None] | None = None,
        tracer: Tracer | None = None,
    ):
        if limit_bytes <= 0:
            raise ValueError(f"limit_bytes must be positive, got {limit_bytes}")
        super().__init__(sim, on_drop, tracer)
        self.limit_bytes = limit_bytes
        self.target = target
        self.interval = interval
        self.quantum = quantum
        self._flows: dict[str, _FlowQueue] = {}
        self._new: deque[_FlowQueue] = deque()
        self._old: deque[_FlowQueue] = deque()

    # -- helpers ---------------------------------------------------------
    def _flow_queue(self, flow: str) -> _FlowQueue:
        fq = self._flows.get(flow)
        if fq is None:
            fq = _FlowQueue()
            self._flows[flow] = fq
        return fq

    def _drop_from_longest(self, now: float) -> None:
        """On overflow, drop from the fattest flow (RFC 8290 section 4.1.3)."""
        fattest = max(
            (fq for fq in self._flows.values() if fq.fifo),
            key=lambda fq: sum(p.size for p in fq.fifo),
            default=None,
        )
        if fattest is None:
            return
        victim = fattest.fifo.popleft()
        self.bytes -= victim.size
        self._drop(victim, now)

    def enqueue(self, pkt: Packet, now: float) -> bool:
        if self.bytes + pkt.size > self.limit_bytes:
            self._drop_from_longest(now)
            if self.bytes + pkt.size > self.limit_bytes:
                self._drop(pkt, now)
                return False
        fq = self._flow_queue(pkt.flow)
        pkt.enqueued_at = now
        fq.fifo.append(pkt)
        self.bytes += pkt.size
        self.enqueues += 1
        if self.bytes > self.peak_bytes:
            self.peak_bytes = self.bytes
        if self.tracer.enabled:
            self.tracer.emit(
                "queue.enqueue", now,
                flow=pkt.flow, size=pkt.size, q=self.bytes,
            )
        if not fq.active:
            fq.active = True
            fq.deficit = self.quantum
            self._new.append(fq)
        return True

    # -- CoDel applied per flow queue -------------------------------------
    def _codel_pop_flow(self, fq: _FlowQueue) -> Packet | None:
        now = self.sim.now
        state = fq.state
        while fq.fifo:
            pkt = fq.fifo.popleft()
            self.bytes -= pkt.size
            sojourn = now - pkt.enqueued_at
            if sojourn < self.target or not fq.fifo:
                state.first_above_time = 0.0
                state.dropping = False
                return pkt
            if state.first_above_time == 0.0:
                state.first_above_time = now + self.interval
                return pkt
            if now < state.first_above_time:
                return pkt
            if not state.dropping:
                state.dropping = True
                state.count = 1
                state.drop_next = _control_law(now, self.interval, state.count)
                self._drop(pkt, now)
                continue
            if now >= state.drop_next:
                state.count += 1
                state.drop_next = _control_law(
                    state.drop_next, self.interval, state.count
                )
                self._drop(pkt, now)
                continue
            return pkt
        state.dropping = False
        return None

    def pop(self) -> Packet | None:
        while self._new or self._old:
            from_new = bool(self._new)
            queue_list = self._new if from_new else self._old
            fq = queue_list[0]
            if fq.deficit <= 0:
                fq.deficit += self.quantum
                queue_list.popleft()
                self._old.append(fq)
                continue
            pkt = self._codel_pop_flow(fq)
            if pkt is None:
                queue_list.popleft()
                if from_new and fq.fifo:
                    self._old.append(fq)  # pragma: no cover - defensive
                else:
                    fq.active = False
                continue
            fq.deficit -= pkt.size
            if self.tracer.enabled:
                self.tracer.emit(
                    "queue.dequeue", self.sim.now,
                    flow=pkt.flow, size=pkt.size, q=self.bytes,
                    sojourn=self.sim.now - pkt.enqueued_at,
                )
            return pkt
        return None
