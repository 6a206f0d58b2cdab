"""The dumbbell topology of the paper's Figure 1.

A game-streaming server and an iperf server sit behind a shared
bottleneck (the Raspberry Pi router's shaped egress) leading to the
game client and iperf client.  All downlink traffic -- media, TCP data,
and ping replies -- shares one bottleneck queue; the uplink (ACKs,
feedback, probes) is far below its capacity and is modelled as pure
delay.

Per-flow ``netem`` delay equalises every flow's base RTT at ~16.5 ms,
exactly as the paper does for Stadia (+4.5 ms), GeForce (+12 ms) and
iperf (+15 ms); we apply the equalised half-RTT directly on each
direction.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import MetricsRecorder
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.aqm import CoDelQueue, FQCoDelQueue
from repro.sim.engine import Simulator
from repro.sim.flowstats import StatsRegistry
from repro.sim.link import Link
from repro.sim.netem import NetemDelay, NetemLoss
from repro.sim.node import Demux
from repro.sim.queues import DropTailQueue
from repro.streaming.client import GameStreamClient
from repro.streaming.server import GameStreamServer
from repro.streaming.systems import SystemProfile, get_system
from repro.testbed.capture import PacketCapture
from repro.testbed.iperf import IperfFlow
from repro.testbed.ping import PingProber, PingReflector
from repro.testbed.tc import RouterConfig

__all__ = ["GameStreamingTestbed", "QUEUE_DISCIPLINES"]

#: Supported bottleneck queue disciplines.
QUEUE_DISCIPLINES = ("droptail", "codel", "fq_codel")

#: Flow id used for the RTT probe.
PING_FLOW = "ping"
#: Flow id used for the competing TCP download.
IPERF_FLOW = "iperf"


class _ClientIngress:
    """Fused client-side arrival point.

    Functionally a ``Tap`` whose observer feeds the packet capture and
    the stats registry before handing off to the client demux -- but
    that chain costs five frames per packet (observer, capture.tap,
    registry lookup, FlowStats.on_receive, Demux.receive), and every
    downlink packet of every flow pays it.  This sink interns, per
    flow, the capture buffer appenders, the flow's counter object and the
    routed endpoint's ``receive``, then does the whole arrival in one
    call.  Counters, capture records and routing semantics are
    identical to the unfused chain.

    Routes must be registered before the first packet of a flow arrives
    (the constructor wires the game and the probe, and a competitor is
    attached before its flow starts); re-routing a flow afterwards is not
    supported.
    """

    __slots__ = ("sim", "capture", "stats", "demux", "_fast")

    def __init__(self, sim, capture, stats, demux):
        self.sim = sim
        self.capture = capture
        self.stats = stats
        self.demux = demux
        self._fast: dict[str, tuple] = {}

    def _intern(self, flow: str) -> tuple:
        trace = self.capture.flow_trace(flow)
        entry = (
            trace.times.append,
            trace.sizes.append,
            self.stats.for_flow(flow),
            self.demux.sink_for(flow).receive,
        )
        self._fast[flow] = entry
        return entry

    def receive(self, pkt) -> None:
        entry = self._fast.get(pkt.flow)
        if entry is None:
            entry = self._intern(pkt.flow)
        times_append, sizes_append, stats, endpoint_receive = entry
        size = pkt.size
        times_append(self.sim.now)
        sizes_append(size)
        stats.packets_received += 1
        stats.bytes_received += size
        endpoint_receive(pkt)


class GameStreamingTestbed:
    """One fully wired experiment run.

    Args:
        system: game system name or profile (stadia / geforce / luna).
        router: bottleneck configuration (rate, queue multiple, RTT).
        seed: per-run seed driving complexity, noise and jitter.
        competing_cca: "cubic" / "bbr" / "reno" / "vegas", None for a
            solo run, or a sequence of CCA names for the multi-flow
            ablation (the paper's future work); flows are then named
            ``iperf``, ``iperf2``, ``iperf3``, ...
        qdisc: bottleneck queue discipline (the paper uses droptail;
            codel / fq_codel serve the future-work ablation).
        ping_interval: RTT probe period, seconds.
        random_loss: independent downlink loss probability
            (``netem loss P%``), for the loss-resilience ablation.
        tracer: tracepoint bus threaded through every instrumented
            component; when enabled a periodic ``queue.occupancy``
            sampler also runs.
        metrics: optional (unbound) metrics recorder; the testbed binds
            it to its simulator, registers the standard gauges and
            counters, and starts it on :meth:`start_game`.
        sample_interval: period of the occupancy sampler, seconds.
    """

    def __init__(
        self,
        system: str | SystemProfile,
        router: RouterConfig,
        seed: int = 0,
        competing_cca: str | list[str] | tuple[str, ...] | None = None,
        qdisc: str = "droptail",
        ping_interval: float = 0.2,
        random_loss: float = 0.0,
        tracer: Tracer | None = None,
        metrics: MetricsRecorder | None = None,
        sample_interval: float = 0.1,
    ):
        if qdisc not in QUEUE_DISCIPLINES:
            raise ValueError(
                f"unknown qdisc {qdisc!r}; options: {QUEUE_DISCIPLINES}"
            )
        self.profile = get_system(system) if isinstance(system, str) else system
        self.router = router
        self.seed = seed
        self.qdisc = qdisc
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.sample_interval = sample_interval

        self.sim = Simulator()
        self.stats = StatsRegistry()
        self.capture = PacketCapture(self.sim)

        one_way = router.rtt / 2.0

        # --- Downlink: shared bottleneck --------------------------------
        self.client_demux = Demux()
        client_ingress = _ClientIngress(
            self.sim, self.capture, self.stats, self.client_demux
        )
        downlink_sink = client_ingress
        self.loss_stage: NetemLoss | None = None
        if random_loss > 0:
            self.loss_stage = NetemLoss(
                self.sim, random_loss, sink=client_ingress, rng=self.rng,
                on_drop=self.stats.on_drop,
            )
            downlink_sink = self.loss_stage
        self.queue = self._make_queue()
        self.bottleneck = Link(
            self.sim,
            rate_bps=router.rate_bps,
            delay=0.0,
            sink=downlink_sink,
            queue=self.queue,
            tracer=self.tracer,
        )
        # Per-flow propagation ahead of the bottleneck.
        self._down_netem: dict[str, NetemDelay] = {}
        for flow in (self.profile.name, PING_FLOW):
            self._down_netem[flow] = NetemDelay(
                self.sim, delay=one_way, sink=self.bottleneck
            )

        # --- Uplink: pure delay to a server-side demux -------------------
        self.server_demux = Demux()
        self._uplink = NetemDelay(self.sim, delay=one_way, sink=self.server_demux)

        # --- Game session -------------------------------------------------
        self.server = GameStreamServer(
            self.sim,
            self.profile.name,
            self.profile,
            path=self._down_netem[self.profile.name],
            rng=self.rng,
            stats=self.stats.for_flow(self.profile.name),
            tracer=self.tracer,
        )
        self.client = GameStreamClient(
            self.sim, self.profile.name, self.profile, feedback_path=self._uplink
        )
        self.server_demux.route(self.profile.name, self.server)
        self.client_demux.route(self.profile.name, self.client)

        # --- RTT probe ----------------------------------------------------
        self.prober = PingProber(
            self.sim, PING_FLOW, uplink_path=self._uplink, interval=ping_interval
        )
        reflector = PingReflector(self._down_netem[PING_FLOW])
        self.server_demux.route(PING_FLOW, reflector)
        self.client_demux.route(PING_FLOW, self.prober)

        if self.metrics is not None:
            self._register_metrics()

        # --- Competing TCP flow(s) ------------------------------------------
        self.iperfs: list[IperfFlow] = []
        self.iperf: IperfFlow | None = None  # the first of them
        if competing_cca is not None:
            for cca in (
                [competing_cca] if isinstance(competing_cca, str) else competing_cca
            ):
                self.attach_competitor(cca)

    def attach_competitor(self, cca: str) -> IperfFlow:
        """Wire one more competing TCP flow (netem stage, iperf pair, demux
        routes, send counter, gauges) and return it, unscheduled.

        Nothing here schedules, draws a seq or a random number, so a flow
        attached mid-run, before its first packet, behaves exactly like
        one built by the constructor.
        """
        n = len(self.iperfs)
        flow = IPERF_FLOW if n == 0 else f"{IPERF_FLOW}{n + 1}"
        path = self._down_netem[flow] = NetemDelay(
            self.sim, delay=self.router.rtt / 2.0, sink=self.bottleneck
        )
        iperf = IperfFlow(
            self.sim,
            flow,
            cca=cca,
            downlink_path=path,
            uplink_path=self._uplink,
            on_send=self.stats.send_hook(flow),
            tracer=self.tracer,
        )
        self.server_demux.route(flow, iperf.sender)
        self.client_demux.route(flow, iperf.receiver)
        self.iperfs.append(iperf)
        self.iperf = self.iperf or iperf
        if self.metrics is not None:
            m, sender = self.metrics, iperf.sender
            m.gauge(f"{flow}.cwnd", lambda: sender.cwnd)
            m.gauge(f"{flow}.pipe", lambda: sender.pipe)
            m.gauge(f"{flow}.pacing_rate", lambda: sender.pacing_rate or 0.0)
        return iperf

    # ------------------------------------------------------------------
    def _sample_occupancy(self) -> None:
        """Periodic ``queue.occupancy`` tracepoint (bottleneck state)."""
        if self.tracer.enabled:
            self.tracer.emit(
                "queue.occupancy", self.sim.now,
                q=self.queue.bytes, pkts=len(self.queue),
                limit=self.queue.limit_bytes, drops=self.queue.drops,
            )
        self.sim.schedule(self.sample_interval, self._sample_occupancy)

    def _register_metrics(self) -> None:
        m = self.metrics
        m.bind(self.sim)
        queue = self.queue
        m.gauge("queue.bytes", lambda: queue.bytes)
        m.gauge("queue.pkts", lambda: len(queue))
        m.counter("queue.drops", lambda: queue.drops)
        m.counter("link.bytes_sent", lambda: self.bottleneck.bytes_sent)
        m.counter("sim.events", lambda: self.sim.events_processed)
        controller = self.server.controller
        m.gauge("gcc.target_bps", lambda: controller.target)
        m.gauge("server.fps", lambda: self.server.current_fps)

    # ------------------------------------------------------------------
    def _make_queue(self):
        limit = self.router.queue_bytes
        if self.qdisc == "codel":
            return CoDelQueue(
                self.sim, limit_bytes=limit, on_drop=self.stats.on_drop,
                tracer=self.tracer,
            )
        if self.qdisc == "fq_codel":
            return FQCoDelQueue(
                self.sim, limit_bytes=limit, on_drop=self.stats.on_drop,
                tracer=self.tracer,
            )
        return DropTailQueue(
            self.sim, limit_bytes=limit, on_drop=self.stats.on_drop,
            tracer=self.tracer,
        )

    # ------------------------------------------------------------------
    def start_game(self) -> None:
        """Start the streaming session, the RTT probe, and observers."""
        self.server.start()
        self.client.start()
        self.prober.start()
        if self.tracer.enabled:
            self._sample_occupancy()
        if self.metrics is not None:
            self.metrics.start()
        # The sampler and the gauges read the queue between transmissions.
        self.bottleneck.observed = self.tracer.enabled or self.metrics is not None

    def schedule_iperf(self, start: float, stop: float) -> None:
        """Schedule every competing flow's lifetime (paper: 185-370 s)."""
        if not self.iperfs:
            raise RuntimeError("testbed built without a competing flow")
        for iperf in self.iperfs:
            iperf.schedule(start, stop)

    def run(self, until: float) -> None:
        """Advance the simulation to ``until`` seconds.

        The downlink hands packets forward by timestamp; the two ledgers
        that trail the clock between events are brought up to it here.
        """
        self.sim.run(until=until)
        self.bottleneck.settle()
        self.server.settle()

    # ------------------------------------------------------------------
    @property
    def game_flow(self) -> str:
        return self.profile.name

    def game_loss_rate(self) -> float:
        """Network loss rate of the media stream (sent vs dropped)."""
        return self.stats.for_flow(self.profile.name).loss_rate
