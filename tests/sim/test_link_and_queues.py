"""Unit tests for links, drop-tail queues, token buckets, and netem delay."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.netem import NetemDelay
from repro.sim.node import CollectorSink, NullSink
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, UnboundedQueue
from repro.sim.token_bucket import TokenBucketFilter


def mk_pkt(seq=0, size=1000, flow="f"):
    return Packet(flow, seq, size)


class TestLink:
    def test_serialization_time(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8_000_000, delay=0.0, sink=NullSink())
        assert link.serialization_time(1000) == pytest.approx(0.001)

    def test_single_packet_delivery_time(self):
        sim = Simulator()
        sink = CollectorSink()
        link = Link(sim, rate_bps=8_000_000, delay=0.010, sink=sink)
        link.receive(mk_pkt(size=1000))
        sim.run()
        # 1 ms serialisation + 10 ms propagation
        assert sim.now == pytest.approx(0.011)
        assert len(sink.packets) == 1

    def test_back_to_back_packets_serialize_sequentially(self):
        sim = Simulator()
        arrivals = []
        sink = type("S", (), {"receive": lambda self, p: arrivals.append(sim.now)})()
        link = Link(sim, rate_bps=8_000_000, delay=0.0, sink=sink)
        for i in range(3):
            link.receive(mk_pkt(seq=i, size=1000))
        sim.run()
        assert arrivals == pytest.approx([0.001, 0.002, 0.003])

    def test_throughput_matches_rate(self):
        sim = Simulator()
        sink = NullSink()
        link = Link(sim, rate_bps=10_000_000, delay=0.0, sink=sink)
        n, size = 1000, 1250
        for i in range(n):
            link.receive(mk_pkt(seq=i, size=size))
        sim.run()
        # 1000 * 1250B * 8 = 10 Mbit at 10 Mb/s -> exactly 1 second
        assert sim.now == pytest.approx(1.0)
        assert sink.bytes == n * size

    def test_delivery_preserves_order(self):
        sim = Simulator()
        sink = CollectorSink()
        link = Link(sim, rate_bps=1_000_000, delay=0.005, sink=sink)
        for i in range(10):
            link.receive(mk_pkt(seq=i))
        sim.run()
        assert [p.seq for p in sink.packets] == list(range(10))

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, rate_bps=0, delay=0.0, sink=NullSink())
        with pytest.raises(ValueError):
            Link(sim, rate_bps=1e6, delay=-1.0, sink=NullSink())


class TestDropTailQueue:
    def test_drops_when_full(self):
        sim = Simulator()
        dropped = []
        q = DropTailQueue(sim, limit_bytes=2500, on_drop=dropped.append)
        assert q.enqueue(mk_pkt(0), sim.now) is True
        assert q.enqueue(mk_pkt(1), sim.now) is True
        assert q.enqueue(mk_pkt(2), sim.now) is False  # 3000 > 2500
        assert q.drops == 1
        assert [p.seq for p in dropped] == [2]

    def test_fifo_order(self):
        sim = Simulator()
        q = DropTailQueue(sim, limit_bytes=10_000)
        for i in range(5):
            q.enqueue(mk_pkt(i), sim.now)
        assert [q.pop().seq for _ in range(5)] == list(range(5))
        assert q.pop() is None

    def test_byte_accounting(self):
        sim = Simulator()
        q = DropTailQueue(sim, limit_bytes=10_000)
        q.enqueue(mk_pkt(0, size=400), sim.now)
        q.enqueue(mk_pkt(1, size=600), sim.now)
        assert q.bytes == 1000
        q.pop()
        assert q.bytes == 600
        q.pop()
        assert q.bytes == 0

    def test_peak_bytes_tracked(self):
        sim = Simulator()
        q = DropTailQueue(sim, limit_bytes=10_000)
        for i in range(5):
            q.enqueue(mk_pkt(i, size=1000), sim.now)
        for _ in range(5):
            q.pop()
        assert q.peak_bytes == 5000

    def test_space_freed_by_pop_allows_enqueue(self):
        sim = Simulator()
        q = DropTailQueue(sim, limit_bytes=1000)
        assert q.enqueue(mk_pkt(0, size=1000), sim.now)
        assert not q.enqueue(mk_pkt(1, size=1000), sim.now)
        q.pop()
        assert q.enqueue(mk_pkt(2, size=1000), sim.now)

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(Simulator(), limit_bytes=0)

    def test_link_drains_droptail_queue(self):
        sim = Simulator()
        sink = NullSink()
        q = DropTailQueue(sim, limit_bytes=5000)
        link = Link(sim, rate_bps=8_000_000, delay=0.0, sink=sink, queue=q)
        for i in range(10):
            link.receive(mk_pkt(seq=i, size=1000))
        sim.run()
        # Queue holds 5 packets; the one being transmitted occupies no queue
        # space, so 6 get through and 4 drop.
        assert sink.packets == 6
        assert q.drops == 4


class TestUnboundedQueue:
    def test_never_drops(self):
        sim = Simulator()
        q = UnboundedQueue(sim)
        for i in range(1000):
            assert q.enqueue(mk_pkt(i), sim.now)
        assert q.drops == 0
        assert len(q) == 1000


class TestTokenBucketFilter:
    def test_burst_passes_immediately(self):
        sim = Simulator()
        sink = CollectorSink()
        tbf = TokenBucketFilter(
            sim, rate_bps=8_000_000, burst_bytes=5000, limit_bytes=100_000, sink=sink
        )
        for i in range(5):
            tbf.receive(mk_pkt(seq=i, size=1000))
        # all five fit in the initial burst: delivered at t=0
        assert len(sink.packets) == 5
        assert sim.now == 0.0

    def test_sustained_rate_is_shaped(self):
        sim = Simulator()
        sink = NullSink()
        tbf = TokenBucketFilter(
            sim, rate_bps=8_000_000, burst_bytes=1000, limit_bytes=1_000_000, sink=sink
        )
        n, size = 101, 1000
        for i in range(n):
            tbf.receive(mk_pkt(seq=i, size=size))
        sim.run()
        # first packet consumes the initial burst; remaining 100 packets
        # drain at 1 ms each.
        assert sim.now == pytest.approx(0.100)
        assert sink.packets == n

    def test_drops_beyond_limit(self):
        sim = Simulator()
        dropped = []
        tbf = TokenBucketFilter(
            sim,
            rate_bps=8_000_000,
            burst_bytes=1000,
            limit_bytes=2000,
            sink=NullSink(),
            on_drop=dropped.append,
        )
        for i in range(5):
            tbf.receive(mk_pkt(seq=i, size=1000))
        assert tbf.drops >= 1
        assert dropped

    def test_tokens_refill_over_time(self):
        sim = Simulator()
        sink = CollectorSink()
        tbf = TokenBucketFilter(
            sim, rate_bps=8_000_000, burst_bytes=2000, limit_bytes=100_000, sink=sink
        )
        tbf.receive(mk_pkt(seq=0, size=2000))  # drains the bucket
        sim.run()
        sim.schedule(1.0, tbf.receive, mk_pkt(seq=1, size=2000))
        sim.run()
        # after 1 s the bucket is full again: immediate delivery
        assert len(sink.packets) == 2

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TokenBucketFilter(sim, 0, 1000, 1000, NullSink())
        with pytest.raises(ValueError):
            TokenBucketFilter(sim, 1e6, 0, 1000, NullSink())
        with pytest.raises(ValueError):
            TokenBucketFilter(sim, 1e6, 1000, 0, NullSink())


class TestNetemDelay:
    def test_fixed_delay(self):
        sim = Simulator()
        arrivals = []
        sink = type("S", (), {"receive": lambda self, p: arrivals.append(sim.now)})()
        stage = NetemDelay(sim, delay=0.004, sink=sink)
        stage.receive(mk_pkt())
        sim.run()
        assert arrivals == pytest.approx([0.004])

    def test_jitter_never_reorders(self):
        sim = Simulator()
        sink = CollectorSink()
        rng = np.random.default_rng(7)
        stage = NetemDelay(sim, delay=0.010, sink=sink, jitter=0.009, rng=rng)
        for i in range(200):
            sim.schedule(i * 0.0001, stage.receive, mk_pkt(seq=i))
        sim.run()
        assert [p.seq for p in sink.packets] == list(range(200))

    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            NetemDelay(Simulator(), delay=0.01, sink=NullSink(), jitter=0.001)

    def test_invalid_delay_rejected(self):
        with pytest.raises(ValueError):
            NetemDelay(Simulator(), delay=-0.01, sink=NullSink())
