"""Game-streaming server: encode, packetise, pace, adapt.

One instance is one cloud gaming session: a frame tick drives the
encoder at the current adaptive frame rate, each frame is packetised
into ~1200-byte media packets paced at a small headroom above the
target bitrate (so keyframes do not burst the bottleneck queue), and
feedback reports from the client drive the GCC-family controller and
the per-system frame-rate policy.  NACKed packets are retransmitted
from a short frame history.

The pacer is arithmetic, not a timer: a packet's send time is known
when its frame is packetised, so it is built there with that ``sent_at``
and handed to the path at once (``path.receive(pkt, at)``).  It counts
as sent once the clock reaches ``sent_at`` (:meth:`GameStreamServer.settle`).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.engine import Simulator
from repro.sim.packet import FEEDBACK, MEDIA, Packet
from repro.streaming.encoder import Encoder
from repro.streaming.feedback import FeedbackReport, FrameMeta
from repro.streaming.frames import ComplexityProcess
from repro.streaming.gcc import GccController
from repro.streaming.systems import SystemProfile

__all__ = ["GameStreamServer"]

#: Pacing headroom over the target bitrate (amortises keyframes).
_PACE_HEADROOM = 1.15
#: Additive pacing margin so repair traffic drains even when the
#: multiplicative headroom is small (low targets).
_PACE_MARGIN = 0.8e6
#: Floor on the pacing rate so a collapsed target still drains frames.
_PACE_FLOOR = 2e6
#: EWMA factor (per frame tick) of the retransmission-rate estimate.
_RETX_EWMA = 0.05
#: The encoder never gives up more than this fraction of the target to
#: repair traffic.
_RETX_BUDGET_CAP = 0.4
#: How many packets of history are kept for NACK repair.
_RETX_HISTORY = 6000


class GameStreamServer:
    """Streams one game session into ``path``.

    Args:
        sim: the event loop.
        flow: flow id for all media packets.
        profile: the system under test (Stadia/GeForce/Luna profile).
        path: downstream delay stage toward the client, taking packets
            ahead of their send time: ``receive(pkt, at)`` and
            ``withdraw(after)`` (:class:`~repro.sim.netem.NetemDelay`).
        rng: seeded per-run generator (complexity, encoder noise).
        stats: optional :class:`~repro.sim.flowstats.FlowStats` whose
            sent counters follow the server's (see :meth:`settle`).
        tracer: optional tracepoint bus shared with the controller.
    """

    def __init__(
        self,
        sim: Simulator,
        flow: str,
        profile: SystemProfile,
        path,
        rng: np.random.Generator,
        stats=None,
        tracer: Tracer | None = None,
    ):
        self.sim = sim
        self.flow = flow
        self.profile = profile
        self.path = path
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.controller = GccController(profile, tracer=self.tracer, flow=flow)
        self.complexity = ComplexityProcess(
            rng, amplitude=profile.complexity_amplitude
        )
        self.encoder = Encoder(profile, self.complexity, rng)

        self.current_fps = profile.fps
        self._seq = 0
        # Frames covering the last _RETX_HISTORY seqs (NACK repair) and
        # the packets handed over but not yet counted as sent, in order.
        self._frames: deque[FrameMeta] = deque()
        self._unsent: deque[Packet] = deque()
        self._pace_next = 0.0
        self._retx_rate = 0.0  # bits/second spent on repairs (EWMA)
        self._retx_bytes_tick = 0  # repair bytes since the last frame tick
        self._running = False
        self._frame_event = None

        # Session statistics.
        self.frames_sent = 0
        self.packets_sent = 0
        self.bytes_sent = 0
        self.retransmitted = 0
        self.target_log: list[tuple[float, float]] = []  # (time, target bps)
        self.fps_log: list[tuple[float, float]] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin streaming."""
        if self._running:
            return
        self._running = True
        self._pace_next = self.sim.now
        self._frame_tick()

    def stop(self) -> None:
        """Stop streaming; packets paced for later are never sent."""
        if not self._running:
            return
        self._running = False
        if self._frame_event is not None:
            self._frame_event.cancel()
            self._frame_event = None
        self.settle()
        self._unsent.clear()
        self.path.withdraw(self.sim.now)

    def settle(self) -> None:
        """Count the packets whose send time has come as sent.

        Runs at every frame tick; call it before reading the sent
        counters (the server's or ``stats``') in between.
        """
        now = self.sim.now
        unsent = self._unsent
        packets = nbytes = 0
        while unsent and unsent[0].sent_at <= now:
            nbytes += unsent.popleft().size
            packets += 1
        self.packets_sent += packets
        self.bytes_sent += nbytes
        if self.stats is not None:
            self.stats.packets_sent += packets
            self.stats.bytes_sent += nbytes

    # ------------------------------------------------------------------
    # Media generation
    # ------------------------------------------------------------------
    def _frame_tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        self.settle()
        # Repair traffic is paid for out of the media budget (real-time
        # stacks do the same): estimate the recent retransmission rate
        # and encode below the controller target by that much, so total
        # send stays on target and the pacer queue cannot build up.
        tick = 1.0 / self.current_fps
        retx_sample = self._retx_bytes_tick * 8.0 / tick
        self._retx_bytes_tick = 0
        self._retx_rate += _RETX_EWMA * (retx_sample - self._retx_rate)
        target = self.controller.target
        encoder_target = max(
            target - self._retx_rate, (1.0 - _RETX_BUDGET_CAP) * target
        )
        frame = self.encoder.encode(now, encoder_target, self.current_fps)
        self.frames_sent += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "encoder.frame", now,
                flow=self.flow, size=frame.size, keyframe=frame.keyframe,
                encoder_target=encoder_target, fps=self.current_fps,
            )
        self._packetise(frame)
        self._frame_event = self.sim.schedule(tick, self._frame_tick)

    def _packetise(self, frame) -> None:
        # The per-packet schedule path (_schedule_send) is inlined into
        # this loop: a frame is packetised in one event, so ``now`` and
        # the pace rate are loop invariants, and the saved frames add up
        # (every media packet of the run is born here).  The retx path
        # keeps the readable method.
        size = frame.size
        psize = self.profile.packet_size
        count = max(1, (size + psize - 1) // psize)
        remaining = size
        first_seq = self._seq
        self._seq = end_seq = first_seq + count
        meta = FrameMeta(frame.frame_id, first_seq, count, frame.keyframe, size)
        frames = self._frames
        frames.append(meta)
        while frames[0].first_seq + frames[0].count <= end_seq - _RETX_HISTORY:
            frames.popleft()
        target = self.controller.target
        pace_rate = max(_PACE_HEADROOM * target, target + _PACE_MARGIN, _PACE_FLOOR)
        now = self.sim.now
        pace_next = self._pace_next
        flow = self.flow
        hand_over = self.path.receive
        unsent_append = self._unsent.append
        for seq in range(first_seq, end_seq):
            chunk = psize if remaining > psize else remaining
            remaining -= chunk
            at = pace_next if pace_next > now else now
            pace_next = at + chunk * 8.0 / pace_rate
            # Positional Packet construction: keyword passing costs ~40%
            # more on this, the busiest constructor call in a streaming run.
            pkt = Packet(flow, seq, chunk, MEDIA, at, meta)
            unsent_append(pkt)
            hand_over(pkt, at)
        self._pace_next = pace_next

    def _schedule_send(self, seq: int, size: int, meta: FrameMeta) -> None:
        """Pace one repair packet behind everything already scheduled."""
        self._retx_bytes_tick += size
        target = self.controller.target
        pace_rate = max(_PACE_HEADROOM * target, target + _PACE_MARGIN, _PACE_FLOOR)
        at = max(self.sim.now, self._pace_next)
        self._pace_next = at + size * 8.0 / pace_rate
        pkt = Packet(self.flow, seq, size, MEDIA, at, meta)
        self._unsent.append(pkt)
        self.path.receive(pkt, at)

    def _frame_of(self, seq: int) -> FrameMeta | None:
        """The frame ``seq`` belongs to, while it is still in the history."""
        if self._seq - _RETX_HISTORY <= seq < self._seq:
            for meta in reversed(self._frames):  # NACKs name recent packets
                if meta.first_seq <= seq:
                    return meta
        return None

    # ------------------------------------------------------------------
    # Feedback handling
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        if pkt.kind != FEEDBACK or not self._running:
            return
        report = pkt.meta
        if not isinstance(report, FeedbackReport):
            return
        now = self.sim.now
        if not report.nack_only:
            target = self.controller.on_feedback(report, now)
            self.target_log.append((now, target))
            if self.tracer.enabled:
                self.tracer.emit(
                    "gcc.target", now,
                    flow=self.flow, target=target,
                    loss=self.controller.smoothed_loss,
                    qdelay=report.qdelay_avg, rate=report.receive_rate,
                )
            self._update_fps(now)
        psize = self.profile.packet_size
        for seq in report.nacks:
            meta = self._frame_of(seq)
            if meta is not None:
                last = meta.first_seq + meta.count - 1
                size = psize if seq < last else meta.size - (meta.count - 1) * psize
                self.retransmitted += 1
                self._schedule_send(seq, size, meta)

    def _update_fps(self, now: float) -> None:
        profile = self.profile
        loss = self.controller.smoothed_loss
        fps = profile.fps
        if loss > profile.fps_loss_severe:
            fps = profile.fps_severe
        elif loss > profile.fps_loss_mild:
            fps = profile.fps_mild
        if profile.fps_follows_rate and loss > profile.fps_loss_mild:
            frac = self.controller.target / (profile.fps_rate_ref * profile.max_bitrate)
            fps = min(fps, max(20.0, profile.fps * min(1.0, frac)))
        if fps != self.current_fps and self.tracer.enabled:
            self.tracer.emit(
                "server.fps", now, flow=self.flow, fps=fps,
                prev=self.current_fps, loss=loss,
            )
        self.current_fps = fps
        self.fps_log.append((now, fps))
