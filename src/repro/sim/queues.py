"""Bottleneck queues.

The paper's router buffers packets in a drop-tail queue whose size is set
relative to the bandwidth-delay product (0.5x, 2x, or 7x BDP).  Queue depth
is what turns competing traffic into added round-trip time (Table 4) and,
when exhausted, into packet loss.

:class:`Queue` is the abstract interface shared with the AQM variants in
:mod:`repro.sim.aqm`; a :class:`~repro.sim.link.Link` drains whichever
queue it is given.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.engine import Simulator
from repro.sim.packet import Packet

__all__ = ["Queue", "DropTailQueue", "UnboundedQueue"]


class Queue:
    """FIFO queue interface drained by a :class:`~repro.sim.link.Link`.

    Subclasses decide the admission policy (:meth:`enqueue`) and the drain
    policy (:meth:`pop`).  Dropped packets are reported to ``on_drop`` so
    flow statistics and tests can observe loss, and every
    enqueue/dequeue/drop fires a tracepoint when a tracer is attached.
    """

    def __init__(
        self,
        sim: Simulator,
        on_drop: Callable[[Packet], None] | None = None,
        tracer: Tracer | None = None,
    ):
        self.sim = sim
        self.on_drop = on_drop
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._fifo: deque[Packet] = deque()
        self.bytes = 0
        self.drops = 0
        self.enqueues = 0
        self.peak_bytes = 0

    def __len__(self) -> int:
        return len(self._fifo)

    def enqueue(self, pkt: Packet, now: float) -> bool:
        """Admit ``pkt``, which arrived at ``now``.

        Returns False (and counts a drop) if refused.  The arrival time
        is an argument because a link admits arrivals when it next
        serves the queue, which can be later than they arrived (see
        :class:`~repro.sim.link.Link`); ``enqueued_at``, sojourn times
        and tracepoints carry the arrival time either way.
        """
        raise NotImplementedError

    def pop(self) -> Packet | None:
        """Remove and return the next packet to transmit, or None."""
        raise NotImplementedError

    # Shared helpers -----------------------------------------------------
    def _admit(self, pkt: Packet, now: float) -> None:
        pkt.enqueued_at = now
        self._fifo.append(pkt)
        self.bytes += pkt.size
        self.enqueues += 1
        if self.bytes > self.peak_bytes:
            self.peak_bytes = self.bytes
        if self.tracer.enabled:
            self.tracer.emit(
                "queue.enqueue", now,
                flow=pkt.flow, size=pkt.size, q=self.bytes,
            )

    def _drop(self, pkt: Packet, now: float) -> None:
        self.drops += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "queue.drop", now,
                flow=pkt.flow, size=pkt.size, q=self.bytes, drops=self.drops,
            )
        if self.on_drop is not None:
            self.on_drop(pkt)

    def _pop_fifo(self) -> Packet | None:
        if not self._fifo:
            return None
        pkt = self._fifo.popleft()
        self.bytes -= pkt.size
        if self.tracer.enabled:
            self.tracer.emit(
                "queue.dequeue", self.sim.now,
                flow=pkt.flow, size=pkt.size, q=self.bytes,
                sojourn=self.sim.now - pkt.enqueued_at,
            )
        return pkt


class DropTailQueue(Queue):
    """Byte-limited drop-tail FIFO -- the paper's bottleneck buffer.

    A packet is dropped on arrival when admitting it would push the queue
    past ``limit_bytes``.  This matches the ``limit`` parameter of the
    ``tc tbf`` command the paper configures on its Raspberry Pi router.
    """

    def __init__(
        self,
        sim: Simulator,
        limit_bytes: int,
        on_drop: Callable[[Packet], None] | None = None,
        tracer: Tracer | None = None,
    ):
        if limit_bytes <= 0:
            raise ValueError(f"limit_bytes must be positive, got {limit_bytes}")
        super().__init__(sim, on_drop, tracer)
        self.limit_bytes = limit_bytes

    def enqueue(self, pkt: Packet, now: float) -> bool:
        # Inlined _admit: under contention every packet pays this path.
        occupied = self.bytes + pkt.size
        if occupied > self.limit_bytes:
            self._drop(pkt, now)
            return False
        pkt.enqueued_at = now
        self._fifo.append(pkt)
        self.bytes = occupied
        self.enqueues += 1
        if occupied > self.peak_bytes:
            self.peak_bytes = occupied
        if self.tracer.enabled:
            self.tracer.emit(
                "queue.enqueue", now, flow=pkt.flow, size=pkt.size, q=occupied,
            )
        return True

    # The drain policy is exactly the base FIFO pop; binding it as
    # ``pop`` saves the wrapper frame the link pays per transmission.
    pop = Queue._pop_fifo


class UnboundedQueue(Queue):
    """FIFO with no limit, for links that are never the bottleneck."""

    def enqueue(self, pkt: Packet, now: float) -> bool:
        self._admit(pkt, now)
        return True

    pop = Queue._pop_fifo
