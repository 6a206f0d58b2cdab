"""Unit tests for CoDel and FQ-CoDel queues."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.aqm import CoDelQueue, FQCoDelQueue
from repro.sim.link import Link
from repro.sim.node import NullSink
from repro.sim.packet import Packet


def mk_pkt(seq=0, size=1000, flow="f"):
    return Packet(flow, seq, size)


class TestCoDelQueue:
    def test_passes_traffic_below_target_delay(self):
        """Sparse traffic is never dropped."""
        sim = Simulator()
        sink = NullSink()
        queue = CoDelQueue(sim, limit_bytes=100_000)
        link = Link(sim, rate_bps=10e6, delay=0, sink=sink, queue=queue)
        for i in range(100):
            sim.schedule(i * 0.01, link.receive, mk_pkt(i))  # well below rate
        sim.run()
        assert queue.drops == 0
        assert sink.packets == 100

    def test_drops_under_sustained_overload(self):
        """A standing queue above target for > interval triggers drops."""
        sim = Simulator()
        sink = NullSink()
        queue = CoDelQueue(sim, limit_bytes=10**7)
        link = Link(sim, rate_bps=5e6, delay=0, sink=sink, queue=queue)

        def offer(i=0):
            link.receive(mk_pkt(i))
            sim.schedule(0.001, offer, i + 1)  # 8 Mb/s into a 5 Mb/s link

        offer()
        sim.run(until=3.0)
        assert queue.drops > 0

    def test_drop_rate_escalates_to_control_unresponsive_overload(self):
        """The control law ramps drops until they exceed the overload.

        Against an unresponsive 33% overload CoDel converges slowly (it
        is designed for responsive flows), but the drop frequency must
        escalate past the excess rate and the sojourn must be falling.
        """
        sim = Simulator()
        arrivals = []

        class _Sink:
            def receive(self, pkt):
                arrivals.append((sim.now, sim.now - pkt.enqueued_at))

        queue = CoDelQueue(sim, limit_bytes=10**7)
        link = Link(sim, rate_bps=5e6, delay=0, sink=_Sink(), queue=queue)

        def offer(i=0):
            link.receive(mk_pkt(i))
            sim.schedule(0.0012, offer, i + 1)  # ~6.7 Mb/s into 5 Mb/s

        offer()
        sim.run(until=15.0)
        mid = [d for t, d in arrivals if 4.0 < t < 5.0]
        late = [d for t, d in arrivals if 14.0 < t < 15.0]
        assert sum(late) / len(late) < 0.5 * (sum(mid) / len(mid))
        assert sum(late) / len(late) < 0.3  # far below the uncontrolled cap
        assert queue.drops > 500  # the control law escalated

    def test_hard_limit_still_enforced(self):
        sim = Simulator()
        queue = CoDelQueue(sim, limit_bytes=2500)
        assert queue.enqueue(mk_pkt(0), sim.now)
        assert queue.enqueue(mk_pkt(1), sim.now)
        assert not queue.enqueue(mk_pkt(2), sim.now)

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            CoDelQueue(Simulator(), limit_bytes=0)


class TestFQCoDelQueue:
    def test_flows_get_separate_queues(self):
        sim = Simulator()
        queue = FQCoDelQueue(sim, limit_bytes=10**6)
        for i in range(10):
            queue.enqueue(mk_pkt(i, flow="a"), sim.now)
        queue.enqueue(mk_pkt(0, flow="b"), sim.now)
        # the new flow ("b" arrived after "a" was active) is served from
        # the new list before "a" drains completely
        popped_flows = [queue.pop().flow for _ in range(3)]
        assert "b" in popped_flows

    def test_round_robin_shares_service(self):
        sim = Simulator()
        queue = FQCoDelQueue(sim, limit_bytes=10**7)
        for i in range(50):
            queue.enqueue(mk_pkt(i, flow="a", size=1000), sim.now)
            queue.enqueue(mk_pkt(i, flow="b", size=1000), sim.now)
        first_20 = [queue.pop().flow for _ in range(20)]
        assert 5 <= first_20.count("a") <= 15

    def test_sparse_flow_latency_protected(self):
        """A ping through FQ-CoDel bypasses a bulk flow's standing queue."""
        sim = Simulator()
        arrivals = {}

        class _Sink:
            def receive(self, pkt):
                arrivals.setdefault(pkt.flow, []).append(sim.now - pkt.enqueued_at)

        queue = FQCoDelQueue(sim, limit_bytes=10**7)
        link = Link(sim, rate_bps=5e6, delay=0, sink=_Sink(), queue=queue)

        def bulk(i=0):
            link.receive(mk_pkt(i, flow="bulk"))
            sim.schedule(0.0012, bulk, i + 1)

        def ping(i=0):
            link.receive(mk_pkt(i, flow="ping", size=64))
            sim.schedule(0.2, ping, i + 1)

        bulk()
        sim.schedule(1.0, ping)
        sim.run(until=5.0)
        ping_delay = sum(arrivals["ping"]) / len(arrivals["ping"])
        bulk_delay = sum(arrivals["bulk"][-100:]) / 100
        assert ping_delay < bulk_delay

    def test_overflow_drops_from_fattest_flow(self):
        sim = Simulator()
        dropped = []
        queue = FQCoDelQueue(sim, limit_bytes=10_000, on_drop=dropped.append)
        for i in range(9):
            queue.enqueue(mk_pkt(i, flow="fat", size=1000), sim.now)
        queue.enqueue(mk_pkt(0, flow="thin", size=1000), sim.now)
        queue.enqueue(mk_pkt(1, flow="thin", size=1000), sim.now)  # overflow
        assert dropped
        assert all(p.flow == "fat" for p in dropped)

    def test_packet_conservation(self):
        sim = Simulator()
        queue = FQCoDelQueue(sim, limit_bytes=10**7)
        n = 100
        for i in range(n):
            queue.enqueue(mk_pkt(i, flow=f"flow{i % 5}"), sim.now)
        popped = 0
        while queue.pop() is not None:
            popped += 1
        assert popped + queue.drops == n
        assert queue.bytes == 0

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            FQCoDelQueue(Simulator(), limit_bytes=0)
