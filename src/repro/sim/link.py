"""Links: serialisation plus propagation.

A :class:`Link` models a transmission line of a given rate: packets are
serialised one at a time (``size * 8 / rate`` seconds each) and then
delivered to the downstream sink after a fixed propagation delay.  The
link drains an attached :class:`~repro.sim.queues.Queue`; the bottleneck
in our testbed is a 15/25/35 Mb/s link fed by a drop-tail queue sized in
multiples of the BDP, exactly mirroring the paper's ``tbf`` setup.
"""

from __future__ import annotations

from heapq import heappop
from math import inf

from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.delayline import DelayLine
from repro.sim.engine import Event, Simulator
from repro.sim.packet import Packet
from repro.sim.queues import Queue, UnboundedQueue

__all__ = ["Link"]


class Link:
    """A fixed-rate transmission link drained from a queue.

    Serialisation completions are strictly increasing, so the fixed
    propagation leg behind them is provably FIFO and rides a coalesced
    :class:`~repro.sim.delayline.DelayLine` -- one live heap entry for
    the whole leg instead of one per packet in flight.

    Args:
        sim: the event loop.
        rate_bps: line rate in bits per second.
        delay: one-way propagation delay in seconds.
        sink: downstream object with a ``receive(pkt)`` method.
        queue: the buffer feeding this link; defaults to an unbounded FIFO.
        tracer: optional tracepoint bus (``link.tx`` per transmission;
            utilisation is the cumulative ``sent`` field over time).

    Timestamped hand-off.  A delay stage in front of the link does not
    schedule a delivery per packet: at hand-off it reserves the tie-break
    seq that event would have taken, pushes ``(time, seq, pkt, stage)``
    onto :attr:`arrivals` and, if the link is idle or observed, calls
    :meth:`expect_arrival` (:class:`~repro.sim.netem.NetemDelay` does).
    A busy link schedules nothing: :meth:`_tx_done` admits what arrived
    during a transmission before taking the next packet -- in the
    ``(time, seq)`` order, and with the arrival times, of one event per
    arrival.

    Attributes:
        arrivals: heap of the packets handed over and not yet admitted.
        observed: admit every arrival in an event of its own, so the
            queue is exact *between* transmissions too.  Set when a
            tracer is attached, and by whoever else reads it mid-run.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        delay: float,
        sink,
        queue: Queue | None = None,
        tracer: Tracer | None = None,
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate_bps must be positive, got {rate_bps}")
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay = delay
        self.sink = sink
        self.queue = queue if queue is not None else UnboundedQueue(sim)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.observed = self.tracer.enabled
        self.busy = False
        self.bytes_sent = 0
        self.packets_sent = 0
        # The dispatch path runs twice per packet (admission + tx
        # completion); queue, sink and scheduler are fixed at wiring
        # time, so their bound methods are cached once here instead of
        # being re-resolved through two attribute hops per call.
        self._enqueue = self.queue.enqueue
        self._pop = self.queue.pop
        self._sink_receive = sink.receive
        self._sched_push = sim._push
        self._prop_push = DelayLine(sim, sink.receive).push if delay > 0 else None
        # The serialisation timer is one recycled Event: the busy flag
        # guarantees it is out of the scheduler whenever it is re-armed,
        # and it is never cancelled, so the inlined arming below (a
        # fresh tie-break seq plus a scheduler push, exactly what
        # sim.schedule does) replaces an Event allocation per
        # transmission.
        self._tx_event = Event(0.0, 0, self._tx_done, ())
        # While the link is idle (or observed) a wake stands in the head
        # arrival's (time, seq) slot; _wakes holds the seqs with one pending.
        self.arrivals: list[tuple[float, int, Packet, object]] = []
        self._wakes: set[int] = set()

    # ------------------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        """Entry point: enqueue a packet arriving now, transmit if idle."""
        self.settle()
        if self._enqueue(pkt, self.sim.now) and not self.busy:
            self._kick()

    def expect_arrival(self) -> None:
        """Have a wake pending in the head arrival's reserved slot."""
        time, seq, _, _ = self.arrivals[0]
        if seq not in self._wakes:
            self._wakes.add(seq)
            self._sched_push(time, seq, Event(time, seq, self._wake, (seq,)))

    def _wake(self, seq: int) -> None:
        # A stage may have withdrawn the arrival this wake was for; then
        # nothing is due and the wake moves on to the new head.
        self._wakes.discard(seq)
        self._admit_due((self.sim.now, seq + 1))
        if not self.busy:
            self._kick()
        if self.arrivals and (not self.busy or self.observed):
            self.expect_arrival()

    def _admit_due(self, bound: tuple[float, float]) -> None:
        """Enqueue, in order, the arrivals before slot ``bound = (time, seq)``."""
        arrivals = self.arrivals
        while arrivals and arrivals[0] < bound:
            time, _, pkt, _ = heappop(arrivals)
            self._enqueue(pkt, time)

    def settle(self) -> None:
        """Admit what has arrived by now (call before reading the queue)."""
        if self.arrivals:
            self._admit_due((self.sim.now, inf))

    def _kick(self) -> None:
        pkt = self._pop()
        if pkt is None:
            return
        self.busy = True
        sim = self.sim
        time = sim.now + pkt.size * 8.0 / self.rate_bps
        seq = sim._seq = sim._seq + 1
        event = self._tx_event
        event.time = time
        event.seq = seq
        event.args = (pkt,)
        self._sched_push(time, seq, event)

    def _tx_done(self, pkt: Packet) -> None:
        now = self.sim.now
        # Whatever arrived during this transmission joins the queue
        # first, strictly before this event's own (time, seq) slot.
        arrivals = self.arrivals
        if arrivals and arrivals[0][0] <= now:
            bound = (now, self._tx_event.seq)  # _admit_due, inlined
            enqueue = self._enqueue
            while arrivals and arrivals[0] < bound:
                time, _, nxt, _ = heappop(arrivals)
                enqueue(nxt, time)
        self.bytes_sent += pkt.size
        self.packets_sent += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "link.tx", now,
                flow=pkt.flow, size=pkt.size, sent=self.bytes_sent,
            )
        if self._prop_push is not None:
            self._prop_push(now + self.delay, pkt)
        else:
            self._sink_receive(pkt)
        # Inlined _kick for the completion path (it runs once per
        # transmitted packet).  The sink call above happens while the
        # link still reads as busy, exactly as in the two-step path.
        nxt = self._pop()
        if nxt is None:
            self.busy = False
            if arrivals:
                self.expect_arrival()
            return
        sim = self.sim
        time = now + nxt.size * 8.0 / self.rate_bps
        seq = sim._seq = sim._seq + 1
        event = self._tx_event
        event.time = time
        event.seq = seq
        event.args = (nxt,)
        self._sched_push(time, seq, event)

    # ------------------------------------------------------------------
    def serialization_time(self, size_bytes: int) -> float:
        """Seconds needed to put ``size_bytes`` on the wire."""
        return size_bytes * 8.0 / self.rate_bps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.rate_bps / 1e6:.1f}Mb/s delay={self.delay * 1e3:.2f}ms "
            f"queued={len(self.queue)}>"
        )
