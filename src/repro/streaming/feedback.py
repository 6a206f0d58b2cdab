"""Receiver feedback: the RTCP-like report the client sends every 100 ms.

Real WebRTC-based services send transport-wide congestion control
feedback (per-packet arrival times) plus receiver reports (loss,
jitter).  Our report carries the digested form the server-side
controller consumes: counts, receive rate, queuing-delay statistics,
and the NACK list for repair.
"""

from __future__ import annotations

__all__ = ["FeedbackReport", "FrameMeta", "FEEDBACK_BASE_SIZE"]

#: Wire size of a feedback packet before NACK entries (bytes).
FEEDBACK_BASE_SIZE = 80


class FrameMeta:
    """Metadata shared by every media packet of one video frame.

    A frame is a train of ``count`` packets with consecutive sequence
    numbers from ``first_seq`` (a retransmission keeps the original's),
    so the RTP-header analogue is per frame: a packet's index within
    the frame is ``pkt.seq - first_seq`` and only the last packet is
    shorter than the profile's packet size.
    """

    __slots__ = ("frame_id", "first_seq", "count", "keyframe", "size")

    def __init__(
        self, frame_id: int, first_seq: int, count: int,
        keyframe: bool = False, size: int = 0,
    ):
        self.frame_id = frame_id  # which video frame
        self.first_seq = first_seq  # sequence number of its first packet
        self.count = count  # packets in the frame
        self.keyframe = keyframe
        self.size = size  # encoded frame size, bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FrameMeta f{self.frame_id} seq {self.first_seq}+{self.count}>"


class FeedbackReport:
    """Digest of one feedback interval."""

    __slots__ = (
        "t_start",
        "t_end",
        "expected",
        "received",
        "bytes_received",
        "qdelay_avg",
        "qdelay_max",
        "nacks",
        "nack_only",
    )

    def __init__(
        self,
        t_start: float,
        t_end: float,
        expected: int,
        received: int,
        bytes_received: int,
        qdelay_avg: float,
        qdelay_max: float,
        nacks: list[int],
        nack_only: bool = False,
    ):
        self.t_start = t_start
        self.t_end = t_end
        self.expected = expected
        self.received = received
        self.bytes_received = bytes_received
        self.qdelay_avg = qdelay_avg
        self.qdelay_max = qdelay_max
        self.nacks = nacks
        # True for out-of-band repair requests (WebRTC-style immediate
        # NACK): the server retransmits but skips the rate controller.
        self.nack_only = nack_only

    @property
    def interval(self) -> float:
        return self.t_end - self.t_start

    @property
    def loss_fraction(self) -> float:
        """Fraction of expected packets that did not arrive, in [0, 1]."""
        if self.expected <= 0:
            return 0.0
        lost = self.expected - self.received
        if lost <= 0:
            return 0.0
        return min(1.0, lost / self.expected)

    @property
    def receive_rate(self) -> float:
        """Bits per second delivered during the interval."""
        if self.interval <= 0:
            return 0.0
        return self.bytes_received * 8.0 / self.interval

    @property
    def wire_size(self) -> int:
        return FEEDBACK_BASE_SIZE + 2 * len(self.nacks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FeedbackReport [{self.t_start:.2f},{self.t_end:.2f}] "
            f"loss={self.loss_fraction:.3f} rate={self.receive_rate / 1e6:.2f}Mb/s "
            f"qdelay={self.qdelay_avg * 1e3:.1f}ms nacks={len(self.nacks)}>"
        )
