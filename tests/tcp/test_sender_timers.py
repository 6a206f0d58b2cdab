"""The TCP sender's deadline timers (RTO and pacer) and its send path.

A :class:`DeadlineTimer` keeps one queued scheduler entry however often
its deadline moves: pushing the deadline back only records it, moving
it earlier abandons the queued entry, clearing it makes the queued
firing a no-op.  These tests pin that contract on the timer itself and
through the sender that uses it for both timers.
"""

import pytest

from repro.sim.engine import Simulator
from repro.sim.node import CollectorSink
from repro.sim.packet import ACK, Packet
from repro.tcp import TcpSender, make_cca
from repro.tcp.base import DeadlineTimer
from repro.tcp.receiver import AckInfo

from tests.helpers import make_tcp_testbed


def recording_timer(sim):
    fired = []
    return DeadlineTimer(sim, lambda: fired.append(sim.now)), fired


def record_rto(sim, sender):
    """Log the time of every RTO that reaches the sender."""
    fired = []
    on_rto = sender._rto.fn

    def record():
        fired.append(sim.now)
        on_rto()

    sender._rto.fn = record
    return fired


class TestDeadlineTimer:
    def test_deadline_moved_earlier_fires_at_the_earlier_time(self):
        sim = Simulator()
        timer, fired = recording_timer(sim)
        timer.set(5.0)
        timer.set(2.0)
        sim.run(until=10.0)
        assert fired == [2.0]
        # The abandoned entry was the one tombstone, and it is gone.
        assert sim._cancelled == 0
        assert sim.pending == 0

    def test_cleared_deadline_makes_the_queued_firing_a_no_op(self):
        sim = Simulator()
        timer, fired = recording_timer(sim)
        timer.set(1.0)
        timer.clear()
        sim.run(until=2.0)
        assert fired == []
        assert sim.events_processed == 1  # the queued firing, doing nothing
        timer.set(3.0)
        sim.run(until=4.0)
        assert fired == [3.0]

    def test_deadline_pushed_back_keeps_one_entry_and_fires_once(self):
        sim = Simulator()
        timer, fired = recording_timer(sim)
        timer.set(1.0)
        for k in range(1, 100):
            timer.set(1.0 + k * 0.5)
            assert sim.pending == 1
        sim.run(until=100.0)
        assert fired == [1.0 + 99 * 0.5]
        assert sim._cancelled == 0


class TestSenderRto:
    def test_rto_pushed_back_by_1000_acks_fires_once_at_the_last_deadline(self):
        sim = Simulator()
        sink = CollectorSink()
        # A 1 s RTO floor keeps the timeout constant, so every ACK moves
        # the deadline later and none abandons the queued entry.
        sender = TcpSender(sim, "f", path=sink, cca=make_cca("reno"), min_rto=1.0)
        fired = record_rto(sim, sender)
        deadlines = []
        queued = []

        def ack(k):
            seg = sink.packets[k]
            deadlines.append(sim.now + sender.rtt.rto * sender._rto_backoff)
            info = AckInfo(k + 1, k, seg.sent_at, False)
            sender.receive(Packet("f", k, 64, ACK, sim.now, info))
            queued.append(sim.pending)
            if k + 1 < 1000:
                sim.schedule(0.001, ack, k + 1)

        sender.start()
        sim.schedule(0.001, ack, 0)
        sim.run(until=2.5)  # past the last deadline, before a backed-off one
        assert len(deadlines) == 1000
        assert fired == [deadlines[-1]]
        assert sender.rto_events == 1
        # One queued entry for the RTO throughout (Reno never paces).
        assert max(queued) == 1
        assert sim._cancelled == 0

    def test_blackholed_path_fires_the_rto_and_goes_back_n(self):
        tb = make_tcp_testbed(cca="bbr")
        sim, sender = tb.sim, tb.sender
        sender.start()
        sim.run(until=2.0)
        assert sender.rto_events == 0 and sender.pacing_rate
        blackhole = CollectorSink()
        sender.path = blackhole  # nothing sent from now on is delivered
        sim.run(until=2.1)  # what was already on the path is ACKed
        deadline = sender._rto.deadline
        una = sender.snd_una
        assert deadline is not None and deadline > sim.now
        fired = record_rto(sim, sender)
        sim.run(until=deadline + 0.01)
        assert fired == [deadline]
        assert sender.rto_events == 1
        # Go-back-N: resend in order from snd_una, within BBR's RTO window.
        resent = [p for p in blackhole.packets if p.sent_at >= deadline]
        assert resent[0].sent_at == deadline
        assert [p.seq for p in resent] == list(range(una, una + len(resent)))
        assert 1 <= len(resent) <= 4
        assert sender.snd_next == una + len(resent)
        assert sender._rto_backoff == 2.0
        assert sender._rto.deadline == deadline + sender.rtt.rto * 2.0


class TestPacedTrain:
    def _paced_sender(self, cwnd=50):
        sim = Simulator()
        sink = CollectorSink()
        # A 5 s RTO floor: no timeout interrupts the train.
        sender = TcpSender(sim, "f", path=sink, cca=make_cca("cubic"), min_rto=5.0)
        sender.cwnd = cwnd
        sender.pacing_rate = 150_000.0  # bytes/s -> 10 ms per 1500 B segment
        return sim, sink, sender

    @pytest.mark.parametrize("acks", [False, True])
    def test_release_times_are_the_pace_series_bit_for_bit(self, acks):
        sim, sink, sender = self._paced_sender(cwnd=50)
        gap = sender.segment_size / sender.pacing_rate
        sender.start()
        if acks:
            # ACKs landing between releases open the window further but
            # must not move the pace schedule.
            def ack(k):
                info = AckInfo(k + 1, k, sink.packets[k].sent_at, False)
                sender.receive(Packet("f", k, 64, ACK, sim.now, info))

            for k in range(30):
                sim.schedule(k * gap + gap / 3, ack, k)
        sim.run(until=0.9)
        expected = [0.0]
        while len(expected) < len(sink.packets):
            expected.append(expected[-1] + gap)
        assert len(expected) >= 50
        assert [p.sent_at for p in sink.packets] == expected

    def test_stop_mid_train_sends_nothing_more(self):
        sim, sink, sender = self._paced_sender(cwnd=50)
        sender.start()
        sim.schedule(0.035, sender.stop)
        sim.run(until=6.0)
        assert sender.segments_sent == len(sink.packets) == 4  # t = 0 .. 30 ms
        assert max(p.sent_at for p in sink.packets) < 0.035
        # The pacer and RTO entries queued at the stop fired as no-ops.
        assert sim.pending == 0
        assert sender._pacer.deadline is None and sender._rto.deadline is None
