"""Per-flow send/receive/drop accounting.

Loss rates in the paper (Section 4.3) are computed from Wireshark traces
as the fraction of sent packets that never reach the client.  A
:class:`StatsRegistry` aggregates per-flow counters fed by sender hooks,
drop callbacks, and receive taps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FlowStats", "StatsRegistry"]


@dataclass
class FlowStats:
    """Counters for one flow.

    The ``on_*`` methods are per-flow hooks: a component that serves
    exactly one flow (a TCP sender) takes the bound method directly --
    via :meth:`StatsRegistry.send_hook` -- and skips the per-packet
    flow-id lookup of the registry-level hooks.  The streaming server
    takes the object itself and adds to the sent counters in bulk.
    """

    flow: str
    packets_sent: int = 0
    bytes_sent: int = 0
    packets_received: int = 0
    bytes_received: int = 0
    packets_dropped: int = 0
    bytes_dropped: int = 0

    def on_send(self, pkt) -> None:
        self.packets_sent += 1
        self.bytes_sent += pkt.size

    def on_receive(self, pkt) -> None:
        self.packets_received += 1
        self.bytes_received += pkt.size

    def on_drop(self, pkt) -> None:
        self.packets_dropped += 1
        self.bytes_dropped += pkt.size

    @property
    def loss_rate(self) -> float:
        """Fraction of sent packets dropped in the network (0 when idle)."""
        if self.packets_sent == 0:
            return 0.0
        return self.packets_dropped / self.packets_sent


@dataclass
class StatsRegistry:
    """Keyed collection of :class:`FlowStats`."""

    flows: dict[str, FlowStats] = field(default_factory=dict)

    def for_flow(self, flow: str) -> FlowStats:
        stats = self.flows.get(flow)
        if stats is None:
            stats = FlowStats(flow)
            self.flows[flow] = stats
        return stats

    def send_hook(self, flow: str):
        """Bound per-flow send counter for single-flow components."""
        return self.for_flow(flow).on_send

    # Registry-level hooks for taps that see every flow (the client
    # arrival tap, the shared bottleneck queue's drop callback).
    def on_send(self, pkt) -> None:
        self.for_flow(pkt.flow).on_send(pkt)

    def on_receive(self, pkt) -> None:
        self.for_flow(pkt.flow).on_receive(pkt)

    def on_drop(self, pkt) -> None:
        self.for_flow(pkt.flow).on_drop(pkt)

    def snapshot(self) -> dict[str, dict[str, int]]:
        """One batched read of every flow's counters.

        Benchmarks and reports want all counters at a consistent point;
        this gathers them in a single pass instead of per-metric
        attribute walks.
        """
        return {
            flow: {
                "packets_sent": s.packets_sent,
                "bytes_sent": s.bytes_sent,
                "packets_received": s.packets_received,
                "bytes_received": s.bytes_received,
                "packets_dropped": s.packets_dropped,
                "bytes_dropped": s.bytes_dropped,
            }
            for flow, s in sorted(self.flows.items())
        }
