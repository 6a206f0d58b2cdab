"""Game-streaming client: reassembly, feedback, NACK repair, display.

The client plays the role of the Chrome tab in the paper's testbed: it
receives the media stream, reconstructs video frames, presents complete
frames (what PresentMon measures), and sends periodic feedback reports
upstream, including NACKs for missing packets so the server can repair
frames in flight.

Queuing delay is measured as one-way delay above a sliding 30-second
minimum -- the simulation analogue of the arrival-time filtering real
WebRTC stacks perform, with the min-filter standing in for clock-offset
estimation.  BBR's periodic PROBE_RTT drains are what keep this
baseline honest even under a persistent standing queue.
"""

from __future__ import annotations

from repro.sim.delayline import DelayLine
from repro.sim.engine import Simulator
from repro.sim.packet import FEEDBACK, MEDIA, Packet
from repro.streaming.feedback import FeedbackReport
from repro.streaming.systems import SystemProfile
from repro.tcp.windowed_filter import WindowedMinFilter

__all__ = ["GameStreamClient"]

#: Seconds a frame may wait for repair before being abandoned.
FRAME_DEADLINE = 0.25
#: One-way-delay baseline window, seconds.
_OWD_WINDOW = 30.0
#: A gap must be at least this old before it is NACKed.
_NACK_MIN_AGE = 0.01
#: Minimum interval between NACKs of the same sequence number.
_NACK_RETRY_INTERVAL = 0.15
_NACK_MAX_TRIES = 3
#: Give up on a missing packet after this long.
_MISSING_EXPIRY = 0.6
#: Cap on tracked missing packets (safety valve on pathological gaps).
_MAX_MISSING = 4000
#: Minimum spacing of out-of-band (immediate) NACK feedback packets.
_INSTANT_NACK_SPACING = 0.02
#: Frames whose state is retained after resolution (prevents a late
#: retransmission from resurrecting -- and double-counting -- a frame).
_FRAME_HISTORY = 256


class _FrameState:
    __slots__ = ("count", "indices", "first_arrival", "done")

    def __init__(self, count: int, first_arrival: float):
        self.count = count
        self.indices: set[int] = set()
        self.first_arrival = first_arrival
        self.done = False


class _MissingState:
    __slots__ = ("detected", "tries", "last_nack")

    def __init__(self, detected: float):
        self.detected = detected
        self.tries = 0
        self.last_nack = -1.0


class GameStreamClient:
    """Receives the media stream; sends feedback via ``feedback_path``."""

    def __init__(
        self,
        sim: Simulator,
        flow: str,
        profile: SystemProfile,
        feedback_path,
    ):
        self.sim = sim
        self.flow = flow
        self.profile = profile
        self.feedback_path = feedback_path

        self._owd_min = WindowedMinFilter(_OWD_WINDOW)
        self._max_seq = -1
        self._frames: dict[int, _FrameState] = {}
        self._frames_pruned_below = -1
        self._missing: dict[int, _MissingState] = {}
        self._last_instant_nack = -1.0

        # Interval accumulators for the next feedback report.
        self._iv_start = 0.0
        self._iv_start_max_seq = -1
        self._iv_received_new = 0
        self._iv_bytes = 0
        self._iv_qdelay_sum = 0.0
        self._iv_qdelay_n = 0
        self._iv_qdelay_max = 0.0

        # Session statistics.
        self.packets_received = 0
        self.bytes_received = 0
        self.frames_displayed = 0
        self.frames_dropped = 0
        self.display_times: list[float] = []  # PresentMon-style present log
        self.feedback_sent = 0
        self._running = False
        self._feedback_event = None
        # Frame deadlines are never cancelled and release in arrival
        # order (``now`` is monotone, the delay constant), so they share
        # one delay line: one scheduler entry, not one per open frame.
        self._deadlines = DelayLine(sim, self._frame_deadline)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the feedback timer."""
        if self._running:
            return
        self._running = True
        self._iv_start = self.sim.now
        self._feedback_event = self.sim.schedule(
            self.profile.feedback_interval, self._feedback_tick
        )

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self._feedback_event is not None:
            self._feedback_event.cancel()
            self._feedback_event = None

    # ------------------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        if pkt.kind != MEDIA:
            return
        now = self.sim.now
        meta = pkt.meta
        size = pkt.size
        self.packets_received += 1
        self.bytes_received += size
        self._iv_bytes += size

        # One-way delay above baseline.
        owd = now - pkt.sent_at
        base = self._owd_min.update(now, owd)
        qdelay = max(0.0, owd - base)
        self._iv_qdelay_sum += qdelay
        self._iv_qdelay_n += 1
        if qdelay > self._iv_qdelay_max:
            self._iv_qdelay_max = qdelay

        # Sequence tracking and gap detection.
        seq = pkt.seq
        if seq > self._max_seq:
            gap_first = self._max_seq + 1
            if seq > gap_first and len(self._missing) < _MAX_MISSING:
                for missing_seq in range(gap_first, seq):
                    self._missing[missing_seq] = _MissingState(now)
                self._maybe_instant_nack(now)
            self._max_seq = seq
            self._iv_received_new += 1
        else:
            self._missing.pop(seq, None)

        # Frame reassembly, inlined (it runs once per media packet; the
        # new-frame branch keeps its helpers -- it fires once per frame).
        frame_id = meta.frame_id
        frame = self._frames.get(frame_id)
        if frame is None:
            if frame_id <= self._frames_pruned_below:
                return  # ancient frame, state already pruned
            frame = _FrameState(meta.count, now)
            self._frames[frame_id] = frame
            self._deadlines.push(now + FRAME_DEADLINE, frame_id)
            self._prune_frames(frame_id)
        if frame.done:
            return
        indices = frame.indices
        indices.add(seq - meta.first_seq)
        if len(indices) >= frame.count:
            frame.done = True
            self.frames_displayed += 1
            self.display_times.append(now)

    def _frame_deadline(self, frame_id: int) -> None:
        frame = self._frames.get(frame_id)
        if frame is not None and not frame.done:
            frame.done = True  # resolved: a late repair cannot revive it
            self.frames_dropped += 1

    def _prune_frames(self, newest_id: int) -> None:
        horizon = newest_id - _FRAME_HISTORY
        if horizon <= self._frames_pruned_below:
            return
        for frame_id in range(self._frames_pruned_below + 1, horizon + 1):
            self._frames.pop(frame_id, None)
        self._frames_pruned_below = horizon

    def _maybe_instant_nack(self, now: float) -> None:
        """WebRTC-style out-of-band NACK: repair without waiting for the
        next scheduled report."""
        if not self._running or now - self._last_instant_nack < _INSTANT_NACK_SPACING:
            return
        nacks = self._collect_nacks(now, min_age=0.0)
        if not nacks:
            return
        self._last_instant_nack = now
        report = FeedbackReport(
            t_start=now, t_end=now, expected=0, received=0, bytes_received=0,
            qdelay_avg=0.0, qdelay_max=0.0, nacks=nacks, nack_only=True,
        )
        pkt = Packet(
            self.flow, self.feedback_sent, report.wire_size,
            kind=FEEDBACK, sent_at=now, meta=report,
        )
        self.feedback_sent += 1
        self.feedback_path.receive(pkt)

    # ------------------------------------------------------------------
    def _feedback_tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        report = self._build_report(now)
        pkt = Packet(
            self.flow,
            self.feedback_sent,
            report.wire_size,
            kind=FEEDBACK,
            sent_at=now,
            meta=report,
        )
        self.feedback_sent += 1
        self.feedback_path.receive(pkt)
        self._feedback_event = self.sim.schedule(
            self.profile.feedback_interval, self._feedback_tick
        )

    def _build_report(self, now: float) -> FeedbackReport:
        expected = self._max_seq - self._iv_start_max_seq
        report = FeedbackReport(
            t_start=self._iv_start,
            t_end=now,
            expected=max(expected, 0),
            received=self._iv_received_new,
            bytes_received=self._iv_bytes,
            qdelay_avg=(
                self._iv_qdelay_sum / self._iv_qdelay_n if self._iv_qdelay_n else 0.0
            ),
            qdelay_max=self._iv_qdelay_max,
            nacks=self._collect_nacks(now),
        )
        self._iv_start = now
        self._iv_start_max_seq = self._max_seq
        self._iv_received_new = 0
        self._iv_bytes = 0
        self._iv_qdelay_sum = 0.0
        self._iv_qdelay_n = 0
        self._iv_qdelay_max = 0.0
        return report

    def _collect_nacks(self, now: float, min_age: float = _NACK_MIN_AGE) -> list[int]:
        nacks = []
        expired = []
        for seq, state in self._missing.items():
            if now - state.detected > _MISSING_EXPIRY or state.tries >= _NACK_MAX_TRIES:
                expired.append(seq)
                continue
            if now - state.detected < min_age:
                continue
            if state.last_nack >= 0 and now - state.last_nack < _NACK_RETRY_INTERVAL:
                continue
            state.tries += 1
            state.last_nack = now
            nacks.append(seq)
        for seq in expired:
            del self._missing[seq]
        return nacks

    # ------------------------------------------------------------------
    def displayed_fps(self, start: float, end: float) -> float:
        """Frames presented per second in [start, end) -- PresentMon's metric."""
        if end <= start:
            raise ValueError("end must be after start")
        shown = sum(1 for t in self.display_times if start <= t < end)
        return shown / (end - start)
