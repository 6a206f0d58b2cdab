"""The iperf bulk-download competitor.

In the paper an iperf client bulk-downloads from an iperf server over
TCP (Cubic or BBR) for the middle three minutes of each nine-minute
run.  :class:`IperfFlow` bundles our TCP sender/receiver pair with
scheduled start/stop times.
"""

from __future__ import annotations

from repro.obs.trace import Tracer
from repro.sim.engine import Event, Simulator
from repro.sim.packet import PacketPool
from repro.tcp import TcpSender, make_cca
from repro.tcp.receiver import TcpReceiver

__all__ = ["IperfFlow"]


class IperfFlow:
    """A bulk TCP download with a scheduled lifetime.

    Wire the flow's sender output into the downlink path and give the
    receiver's ACK stream the uplink path; then call :meth:`schedule`.

    The pair shares a :class:`~repro.sim.packet.PacketPool`: the flow
    owns both ends of every DATA and ACK packet's lifecycle, so segments
    the receiver consumes come back as fresh ACKs and consumed ACKs come
    back as fresh segments instead of garbage.
    """

    def __init__(
        self,
        sim: Simulator,
        flow: str,
        cca: str,
        downlink_path,
        uplink_path,
        on_send=None,
        tracer: Tracer | None = None,
    ):
        self.sim = sim
        self.flow = flow
        self.cca_name = cca
        self.pool = PacketPool()
        self.receiver = TcpReceiver(sim, flow, ack_path=uplink_path, pool=self.pool)
        self.sender = TcpSender(
            sim, flow, path=downlink_path, cca=make_cca(cca), on_send=on_send,
            tracer=tracer, pool=self.pool,
        )

    def schedule(
        self, start: float, stop: float, seqs: tuple = (None, None)
    ) -> None:
        """Start the bulk download at ``start``, stop it at ``stop``, with
        tie-break ``seqs`` reserved earlier (by default, fresh ones)."""
        if stop <= start:
            raise ValueError("stop must be after start")
        for time, fn, seq in zip(
            (start, stop), (self.sender.start, self.sender.stop), seqs
        ):
            self.sim.rearm(Event(time, 0, fn, ()), time, seq)

    @property
    def bytes_delivered(self) -> int:
        return self.sender.delivered
