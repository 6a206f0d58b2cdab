"""Wireshark-style packet capture.

The paper captures the game stream at the router and the iperf flow at
the client, then computes per-0.5 s bitrates from the traces.  Our
capture is a tap observer that records, per flow, each packet's arrival
time and size in two typed buffers (``array('d')`` and ``array('q')``:
16 bytes per packet, no Python object per packet), so bitrate binning
is a cheap numpy pass over float64 copies of them.
"""

from __future__ import annotations

from array import array

import numpy as np

__all__ = ["PacketCapture"]


class _FlowTrace:
    __slots__ = ("times", "sizes")

    def __init__(self) -> None:
        self.times = array("d")
        self.sizes = array("q")


class PacketCapture:
    """Accumulates packet arrivals per flow.

    Use ``capture.tap`` as the observer argument of
    :class:`repro.sim.node.Tap`; it needs the simulator for timestamps.
    """

    def __init__(self, sim):
        self.sim = sim
        self._flows: dict[str, _FlowTrace] = {}

    def tap(self, pkt) -> None:
        trace = self.flow_trace(pkt.flow)
        trace.times.append(self.sim.now)
        trace.sizes.append(pkt.size)

    def flow_trace(self, flow: str) -> _FlowTrace:
        """The per-flow record buffers, created on demand.

        Fused arrival paths append to ``times``/``sizes`` directly (one
        C-level append each) instead of routing every packet through
        :meth:`tap`; the records are identical either way.
        """
        trace = self._flows.get(flow)
        if trace is None:
            trace = _FlowTrace()
            self._flows[flow] = trace
        return trace

    # ------------------------------------------------------------------
    @property
    def flows(self) -> list[str]:
        return sorted(self._flows)

    def packet_count(self, flow: str) -> int:
        trace = self._flows.get(flow)
        return len(trace.times) if trace else 0

    def byte_count(self, flow: str) -> int:
        trace = self._flows.get(flow)
        return sum(trace.sizes) if trace else 0

    def arrays(self, flow: str) -> tuple[np.ndarray, np.ndarray]:
        """(times, sizes) float64 arrays for a flow; empty if unseen.

        Both are copies: the capture's buffers stay appendable (a live
        view would pin them with a ``BufferError`` on the next append).
        """
        trace = self._flows.get(flow)
        if trace is None:
            return np.empty(0), np.empty(0)
        return (
            np.array(trace.times, dtype=np.float64),
            np.array(trace.sizes, dtype=np.float64),
        )

    def bitrate_series(
        self, flow: str, t_start: float, t_end: float, bin_width: float = 0.5
    ) -> tuple[np.ndarray, np.ndarray]:
        """Binned bitrate (bits/s): returns (bin_centres, rates).

        This is the paper's "bitrate computed every 0.5 seconds".
        """
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {bin_width}")
        if t_end <= t_start:
            raise ValueError("t_end must be after t_start")
        times, sizes = self.arrays(flow)
        edges = np.arange(t_start, t_end + bin_width / 2, bin_width)
        if len(edges) < 2:
            raise ValueError("window shorter than one bin")
        if len(times) == 0:
            centres = (edges[:-1] + edges[1:]) / 2
            return centres, np.zeros(len(edges) - 1)
        byte_sums, _ = np.histogram(times, bins=edges, weights=sizes)
        centres = (edges[:-1] + edges[1:]) / 2
        return centres, byte_sums * 8.0 / bin_width

    def throughput_bps(self, flow: str, t_start: float, t_end: float) -> float:
        """Mean bitrate over a window."""
        if t_end <= t_start:
            raise ValueError("t_end must be after t_start")
        times, sizes = self.arrays(flow)
        if len(times) == 0:
            return 0.0
        mask = (times >= t_start) & (times < t_end)
        return float(sizes[mask].sum()) * 8.0 / (t_end - t_start)

    def to_csv(self, path, flows: list[str] | None = None) -> int:
        """Export the trace as CSV (``time,flow,size``), Wireshark-style.

        Records are merged across flows in time order.  Returns the
        number of rows written.  ``flows`` restricts the export.
        """
        selected = self.flows if flows is None else flows
        rows: list[tuple[float, str, int]] = []
        for flow in selected:
            trace = self._flows.get(flow)
            if trace is None:
                continue
            rows.extend(zip(trace.times, [flow] * len(trace.times), trace.sizes))
        rows.sort(key=lambda r: r[0])
        with open(path, "w") as handle:
            handle.write("time,flow,size\n")
            for time, flow, size in rows:
                handle.write(f"{time:.6f},{flow},{size}\n")
        return len(rows)
