"""TCP sender machinery shared by every congestion control algorithm.

Implements the transport behaviours that shape the paper's competing
iperf flow, independent of the congestion control algorithm:

- ACK-clocked transmission with an optional pacing rate (BBR paces;
  Cubic sends on ACK arrival).
- SACK-style loss detection: the receiver effectively SACKs every
  arriving segment, and a segment with three or more SACKed segments
  above it is marked lost (dup threshold 3, FACK-style).
- Fast retransmit with one congestion response per recovery episode
  (NewReno semantics: the window is reduced once per round trip of
  losses, not once per lost packet).
- Retransmission timeout per RFC 6298 with go-back-N resynchronisation.
- Per-segment delivery-rate sampling (the machinery behind Linux's
  ``tcp_rate_gen``), which BBR consumes to estimate bottleneck bandwidth.

Congestion control algorithms plug in through :class:`CongestionControl`
and manipulate ``cwnd`` (segments), ``pacing_rate`` (bytes/second or
None), and ``inflight_cap`` (segments or None -- BBR's 2xBDP cap).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.engine import Event, Simulator
from repro.sim.packet import ACK, DATA, Packet, PacketPool
from repro.tcp.receiver import AckInfo
from repro.tcp.rtt import RttEstimator

__all__ = ["TcpSender", "CongestionControl", "DeadlineTimer", "RateSample", "SEGMENT_SIZE"]

#: Wire size of a full data segment in bytes (1448 MSS + headers).
SEGMENT_SIZE = 1500

_DUP_THRESH = 3
_INITIAL_CWND = 10.0  # RFC 6928

#: Shared, read-only marker for retransmitted segments: the receiver
#: only reads ``meta.get("retx")``, so one dict serves every retransmit.
_RETX_META = {"retx": True}


class RateSample:
    """Delivery-rate sample computed on each ACK (tcp_rate_gen analogue).

    A sender fills one instance in place on every delivering ACK, so a
    congestion control algorithm may read its fields during ``on_ack``
    but must not keep the object.
    """

    __slots__ = (
        "delivery_rate",
        "rtt",
        "delivered",
        "prior_delivered",
        "interval",
        "is_app_limited",
    )

    def __init__(
        self,
        delivery_rate: float,
        rtt: float | None,
        delivered: int,
        prior_delivered: int,
        interval: float,
        is_app_limited: bool,
    ):
        self.delivery_rate = delivery_rate  # bytes per second
        self.rtt = rtt  # seconds, None when Karn-excluded
        self.delivered = delivered  # total bytes delivered so far
        self.prior_delivered = prior_delivered  # delivered when seg was sent
        self.interval = interval  # sampling interval, seconds
        self.is_app_limited = is_app_limited


class CongestionControl:
    """Interface congestion control algorithms implement.

    The sender calls these hooks; implementations adjust the sender's
    ``cwnd``, ``pacing_rate`` and ``inflight_cap`` attributes directly.
    """

    name = "base"

    def on_init(self, sender: "TcpSender") -> None:
        """Called once when attached, before any transmission."""

    def on_ack(self, sender: "TcpSender", acked: int, sample: RateSample) -> None:
        """Called for every ACK that advances delivery state.

        ``acked`` is the number of segments newly delivered (cumulative
        plus newly SACKed).
        """

    def on_loss(self, sender: "TcpSender") -> None:
        """Called once per recovery episode (fast retransmit)."""

    def on_recovery_exit(self, sender: "TcpSender") -> None:
        """Called when the recovery point is cumulatively ACKed."""

    def on_rto(self, sender: "TcpSender") -> None:
        """Called when the retransmission timer fires."""


class DeadlineTimer:
    """A one-shot timer whose deadline moves without cancelling an event.

    It owns one recycled :class:`~repro.sim.engine.Event`, the way
    ``Link._tx_event`` and ``DelayLine._timer`` do.  A later deadline
    only records itself: the queued firing finds ``now < deadline`` and
    re-pushes at the deadline.  Only an *earlier* one abandons the
    queued event (one tombstone).  After :meth:`clear` the queued firing
    does nothing; a firing at the deadline clears it and calls ``fn``.
    So the RTO, pushed back by every ACK, costs an entry per elapsed
    deadline instead of a cancel and a push per ACK.
    """

    __slots__ = ("sim", "fn", "deadline", "_event", "_queued_at", "_sched_push")

    def __init__(self, sim: Simulator, fn: Callable[[], None]):
        self.sim = sim
        self.fn = fn
        self.deadline: float | None = None
        self._event = Event(0.0, 0, self._fire, ())
        self._queued_at: float | None = None  # time of the queued firing
        self._sched_push = sim._push

    def set(self, t: float) -> None:
        """Fire ``fn`` at absolute time ``t`` (``>= now``) instead."""
        self.deadline = t
        queued = self._queued_at
        if queued is None:
            self._push(t)
        elif t < queued:
            self._event.cancel()
            self._event = Event(0.0, 0, self._fire, ())
            self._push(t)

    def clear(self) -> None:
        """Drop the deadline; nothing fires until the next :meth:`set`."""
        self.deadline = None

    def _push(self, t: float) -> None:
        # sim.rearm, inlined (``_sim``: an abandoning cancel() counts).
        sim = self.sim
        seq = sim._seq = sim._seq + 1
        event = self._event
        event.time = t
        event.seq = seq
        event._sim = sim
        self._queued_at = t
        self._sched_push(t, seq, event)

    def _fire(self) -> None:
        self._queued_at = None
        deadline = self.deadline
        if deadline is None:
            return
        if self.sim.now < deadline:
            self._push(deadline)
            return
        self.deadline = None
        self.fn()


class _SegState:
    """Bookkeeping for one outstanding segment."""

    __slots__ = ("sent_at", "delivered", "delivered_time", "sacked", "lost", "retx")

    def __init__(self, sent_at: float, delivered: int, delivered_time: float):
        self.sent_at = sent_at
        self.delivered = delivered
        self.delivered_time = delivered_time
        self.sacked = False
        self.lost = False
        self.retx = 0


class TcpSender:
    """A bulk TCP sender.

    Args:
        sim: event loop.
        flow: flow id stamped on every packet.
        path: downstream sink for data segments.
        cca: congestion control algorithm instance.
        segment_size: wire bytes per segment.
        on_send: optional hook invoked with each transmitted packet
            (used by the stats registry).
        min_rto: RTO floor (Linux default 200 ms).
        tracer: optional tracepoint bus; the sender emits ``tcp.cwnd``
            on every delivering ACK plus ``tcp.start`` / ``tcp.stop`` /
            ``tcp.loss`` / ``tcp.rto``, and the attached CCA emits its
            own events (e.g. ``bbr.state``) through ``sender.tracer``.
        pool: optional packet free list shared with the flow's receiver;
            DATA segments are drawn from it and consumed ACK packets are
            recycled into it (the sender is their terminal consumer).
    """

    def __init__(
        self,
        sim: Simulator,
        flow: str,
        path,
        cca: CongestionControl,
        segment_size: int = SEGMENT_SIZE,
        on_send: Callable[[Packet], None] | None = None,
        min_rto: float = 0.2,
        tracer: Tracer | None = None,
        pool: PacketPool | None = None,
    ):
        self.sim = sim
        self.flow = flow
        self.path = path
        self.cca = cca
        self.segment_size = segment_size
        self.on_send = on_send
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pool = pool
        self.rtt = RttEstimator(min_rto=min_rto)

        # Window state (segments).
        self.cwnd = _INITIAL_CWND
        self.ssthresh = float("inf")
        self.pacing_rate: float | None = None  # bytes/s
        self.inflight_cap: float | None = None  # segments

        # Sequence state.  The segment ledger is an ordered, contiguous
        # array: ``self._segs[seq - self._seg_base]`` is the state of
        # segment ``seq``, covering exactly [_seg_base, snd_next).  New
        # segments append on the right; cumulative ACKs consume from the
        # left (entries are overwritten with None and the dead prefix is
        # shed in amortised O(1) by _trim_ledger), so per-ACK work is
        # proportional to *newly acked* data, never the whole window.
        self.snd_una = 0
        self.snd_next = 0
        self.pipe = 0  # segments believed in flight
        self._segs: list[_SegState | None] = []
        self._seg_base = 0
        self._highest_sacked = 0
        self._hole_scan = 0
        self._retx_queue: deque[int] = deque()

        # Delivery accounting (tcp_rate_gen).
        self.delivered = 0  # bytes
        self.delivered_time = 0.0
        self.app_limited = False

        self._sample = RateSample(0.0, None, 0, 0, 0.0, False)  # refilled per ACK

        # Recovery / timers.
        self.in_recovery = False
        self.recovery_point = 0
        self._rto = DeadlineTimer(sim, self._on_rto)
        self._rto_backoff = 1.0
        self._pacer = DeadlineTimer(sim, self._pump)
        self._next_send_time = 0.0

        # Lifecycle / stats.
        self.running = False
        self.segments_sent = 0
        self.retransmits = 0
        self.loss_events = 0
        self.rto_events = 0
        self.start_time: float | None = None
        self.stop_time: float | None = None

        cca.on_init(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the bulk transfer."""
        if self.running:
            return
        self.running = True
        self.start_time = self.sim.now
        self.delivered_time = self.sim.now
        if self.tracer.enabled:
            self.tracer.emit(
                "tcp.start", self.sim.now, flow=self.flow, cca=self.cca.name
            )
        self._pump()

    def stop(self) -> None:
        """Halt transmission (the paper stops iperf at 370 s)."""
        if not self.running:
            return
        self.running = False
        self.stop_time = self.sim.now
        if self.tracer.enabled:
            self.tracer.emit(
                "tcp.stop", self.sim.now,
                flow=self.flow, delivered=self.delivered,
                retransmits=self.retransmits, loss_events=self.loss_events,
            )
        self._rto.clear()
        self._pacer.clear()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Send what the window allows: all of it, or one per pace gap."""
        if not self.running:
            return
        pipe = self.pipe
        quota = self.cwnd - pipe
        cap = self.inflight_cap
        if cap is not None and cap - pipe < quota:
            quota = cap - pipe
        if quota < 1.0:
            return
        rate = self.pacing_rate
        if rate is None:
            # Each send is pipe + 1 and nothing else (the path never
            # calls back into the sender), so the quota drops by one.
            while quota >= 1.0:
                self._send()
                quota -= 1.0
            return
        now = self.sim.now
        next_send = self._next_send_time
        if now < next_send:
            if self._pacer.deadline != next_send:  # else the last send set it
                self._pacer.set(next_send)
            return
        self._send()
        gap = self.segment_size / rate
        base = now - 4 * gap  # bounded catch-up burst
        if next_send > base:
            base = next_send
        next_send = self._next_send_time = base + gap
        if quota >= 2.0:  # one segment left after this send
            self._pacer.set(next_send if next_send > now else now)

    def _trim_ledger(self) -> None:
        """Shed the ledger's dead prefix once it dominates.

        Cumulative ACKs overwrite consumed entries with None; the list
        itself shrinks only when the dead prefix is both sizeable and
        the majority (the caller checks), so the O(n) slice amortises to
        O(1) per segment.  Only the None prefix is shed: stale pre-RTO
        entries below ``snd_una`` (go-back-N resync) stay.
        """
        segs = self._segs
        dead = 0
        n = len(segs)
        while dead < n and segs[dead] is None:
            dead += 1
        if dead:
            del segs[:dead]
            self._seg_base += dead

    def _send(self) -> None:
        """Send one segment: a queued retransmission, else new data."""
        now = self.sim.now
        meta = None
        segs = self._segs
        retx_queue = self._retx_queue
        while retx_queue:
            seq = retx_queue.popleft()
            idx = seq - self._seg_base
            seg = segs[idx] if 0 <= idx < len(segs) else None
            if seg is None or seg.sacked or seq < self.snd_una:
                continue  # delivered in the meantime
            seg.sent_at = now
            seg.delivered = self.delivered
            seg.delivered_time = self.delivered_time
            seg.retx += 1
            seg.lost = False
            self.retransmits += 1
            meta = _RETX_META
            break
        else:
            # Contiguity invariant: snd_next == _seg_base + len(_segs), so
            # appending is the ledger entry for exactly this sequence number.
            seq = self.snd_next
            segs.append(_SegState(now, self.delivered, self.delivered_time))
            self.snd_next = seq + 1
        if self.pool is not None:
            pkt = self.pool.acquire(self.flow, seq, self.segment_size, DATA, now, meta)
        else:
            pkt = Packet(self.flow, seq, self.segment_size, DATA, now, meta)
        self.pipe += 1
        self.segments_sent += 1
        if self.on_send is not None:
            self.on_send(pkt)
        self.path.receive(pkt)
        if self._rto.deadline is None:
            self._arm_rto()

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        """Entry point for ACK packets returning from the receiver."""
        info = pkt.meta
        if not isinstance(info, AckInfo):
            return
        now = self.sim.now
        ack = info.ack
        newly_delivered = 0
        rtt_sample: float | None = None
        rate_seg: _SegState | None = None
        segs = self._segs
        base = self._seg_base

        # SACK the triggering segment.
        sacked_seq = info.sacked_seq
        idx = sacked_seq - base
        if sacked_seq >= ack and 0 <= idx < len(segs):
            seg = segs[idx]
            if seg is not None and not seg.sacked:
                seg.sacked = True
                if not seg.lost or seg.retx:
                    self.pipe -= 1
                newly_delivered += 1
                rate_seg = seg
                if sacked_seq > self._highest_sacked:
                    self._highest_sacked = sacked_seq

        # Cumulative advance: O(newly acked), never the whole window.
        if ack > self.snd_una:
            stop = min(ack, base + len(segs))
            for idx in range(self.snd_una - base, stop - base):
                acked_seg = segs[idx]
                if acked_seg is None:
                    continue
                segs[idx] = None
                if not acked_seg.sacked:
                    if not acked_seg.lost or acked_seg.retx:
                        self.pipe -= 1
                    newly_delivered += 1
                    rate_seg = acked_seg
            self.snd_una = ack
            bound = ack - base
            if bound >= 64 and bound * 2 >= len(segs):
                self._trim_ledger()
            # Restart on forward progress (RFC 6298 5.3), backoff reset.
            self._rto_backoff = 1.0
            self._rto.set(now + self.rtt.rto)
            if self._hole_scan < ack:
                self._hole_scan = ack
            if self._highest_sacked < ack:
                self._highest_sacked = ack

        if self.pipe < 0:
            self.pipe = 0

        # RTT sample (Karn: skip echoes of retransmitted copies).
        if not info.is_retransmit_echo and info.ts_echo > 0:
            rtt_sample = now - info.ts_echo
            if rtt_sample > 0:
                self.rtt.update(rtt_sample)
            else:
                rtt_sample = None

        if newly_delivered:
            self.delivered += newly_delivered * self.segment_size
            self.delivered_time = now

        # Recovery bookkeeping.
        if self.in_recovery and self.snd_una >= self.recovery_point:
            self.in_recovery = False
            self.cca.on_recovery_exit(self)
        highest_sacked = self._highest_sacked
        if self._hole_scan < highest_sacked - (_DUP_THRESH - 1):
            self._detect_losses()
        if highest_sacked > self.snd_una:
            self._check_head_of_line(now)

        if newly_delivered:
            # rate_seg is the last segment this ACK delivered.
            interval = max(now - rate_seg.delivered_time, 1e-9)
            sample = self._sample
            sample.delivery_rate = (self.delivered - rate_seg.delivered) / interval
            sample.rtt = rtt_sample
            sample.delivered = self.delivered
            sample.prior_delivered = rate_seg.delivered
            sample.interval = interval
            sample.is_app_limited = self.app_limited
            self.cca.on_ack(self, newly_delivered, sample)
            if self.tracer.enabled:
                self.tracer.emit(
                    "tcp.cwnd", now,
                    flow=self.flow, cwnd=self.cwnd, ssthresh=self.ssthresh,
                    pipe=self.pipe, inflight_bytes=self.pipe * self.segment_size,
                    pacing_rate=self.pacing_rate, delivered=self.delivered,
                    srtt=self.rtt.srtt,
                )

        if self.pipe == 0 and not self._retx_queue and self.snd_una == self.snd_next:
            self._rto.clear()
        elif self._rto.deadline is None:
            self._arm_rto()
        self._pump()
        if self.pool is not None and pkt.kind is ACK:
            self.pool.release(pkt)

    # ------------------------------------------------------------------
    # Loss detection and recovery
    # ------------------------------------------------------------------
    def _detect_losses(self) -> None:
        """FACK-style: segments >=3 below the highest SACK are lost
        (the caller checks that ``_hole_scan`` is below that limit)."""
        limit = self._highest_sacked - (_DUP_THRESH - 1)
        found = False
        segs = self._segs
        base = self._seg_base
        start = max(self._hole_scan, self.snd_una, base)
        for idx in range(start - base, min(limit - base, len(segs))):
            seg = segs[idx]
            if seg is not None and not seg.sacked and not seg.lost and not seg.retx:
                seg.lost = True
                self.pipe -= 1
                self._retx_queue.append(base + idx)
                found = True
        self._hole_scan = limit
        if self.pipe < 0:
            self.pipe = 0
        if found and not self.in_recovery:
            self.in_recovery = True
            self.recovery_point = self.snd_next
            self.loss_events += 1
            self.cca.on_loss(self)
            if self.tracer.enabled:
                # Emitted after the CCA reacted: cwnd is post-backoff.
                self.tracer.emit(
                    "tcp.loss", self.sim.now,
                    flow=self.flow, cwnd=self.cwnd, ssthresh=self.ssthresh,
                    recovery_point=self.recovery_point,
                    loss_events=self.loss_events,
                )

    def _check_head_of_line(self, now: float) -> None:
        """RACK-style rescue for a retransmission that was itself lost.

        ``_detect_losses`` never re-marks a segment that was already
        retransmitted, so if the retransmission is dropped the hole at
        ``snd_una`` would otherwise sit until the RTO.  When SACKs keep
        arriving well past one RTT after the retransmission, declare the
        retransmitted copy lost and send it again.  The caller checks
        that something above ``snd_una`` has been SACKed.
        """
        segs = self._segs
        idx = self.snd_una - self._seg_base
        seg = segs[idx] if 0 <= idx < len(segs) else None
        if seg is None or not seg.retx or seg.lost or seg.sacked:
            return
        srtt = self.rtt.srtt or 0.1
        if now - seg.sent_at > 1.5 * srtt:
            seg.lost = True
            self.pipe -= 1
            if self.pipe < 0:
                self.pipe = 0
            self._retx_queue.appendleft(self.snd_una)

    # ------------------------------------------------------------------
    # RTO
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        self._rto.set(self.sim.now + self.rtt.rto * self._rto_backoff)

    def _on_rto(self) -> None:
        """Timeout: collapse and resynchronise (go-back-N)."""
        if not self.running or self.pipe == 0:
            return
        self.rto_events += 1
        self._rto_backoff = min(self._rto_backoff * 2, 64.0)
        self._segs.clear()
        self._seg_base = self.snd_una
        self._retx_queue.clear()
        self.snd_next = self.snd_una
        self.pipe = 0
        self._highest_sacked = self.snd_una
        self._hole_scan = self.snd_una
        self.in_recovery = False
        self._next_send_time = 0.0
        self.cca.on_rto(self)
        if self.tracer.enabled:
            self.tracer.emit(
                "tcp.rto", self.sim.now,
                flow=self.flow, cwnd=self.cwnd, backoff=self._rto_backoff,
                rto_events=self.rto_events,
            )
        self._pump()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpSender {self.flow} {self.cca.name} cwnd={self.cwnd:.1f} "
            f"pipe={self.pipe} una={self.snd_una} next={self.snd_next}>"
        )
