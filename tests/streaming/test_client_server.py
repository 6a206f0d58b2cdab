"""Unit tests for the streaming endpoints: packetisation, feedback,
frame assembly, NACK repair, and frame-rate policy."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.flowstats import FlowStats
from repro.sim.link import Link
from repro.sim.netem import NetemDelay
from repro.sim.node import CollectorSink
from repro.sim.packet import FEEDBACK, MEDIA, Packet
from repro.streaming.client import FRAME_DEADLINE, GameStreamClient
from repro.streaming.feedback import FeedbackReport, FrameMeta
from repro.streaming.server import GameStreamServer
from repro.streaming.systems import GEFORCE, LUNA, STADIA


def make_server(sim, sink, profile=STADIA, seed=1, **kwargs):
    # The server hands packets over ahead of their send time, so its
    # path is a delay stage; a zero-delay one releases each packet to
    # ``sink`` at exactly ``sent_at``.
    return GameStreamServer(
        sim, profile.name, profile, path=NetemDelay(sim, 0.0, sink),
        rng=np.random.default_rng(seed), **kwargs,
    )


def make_client(sim, sink, profile=STADIA):
    return GameStreamClient(sim, profile.name, profile, feedback_path=sink)


class _Wire:
    """Zero-delay connector assigned a destination after construction."""

    def __init__(self):
        self.dest = None

    def receive(self, pkt):
        self.dest.receive(pkt)


class TestServer:
    def test_emits_media_at_frame_cadence(self):
        sim = Simulator()
        sink = CollectorSink()
        server = make_server(sim, sink)
        server.start()
        sim.run(until=1.0)
        assert server.frames_sent == pytest.approx(60, abs=2)
        assert all(p.kind == MEDIA for p in sink.packets)

    def test_sequence_numbers_contiguous(self):
        sim = Simulator()
        sink = CollectorSink()
        server = make_server(sim, sink)
        server.start()
        sim.run(until=1.0)
        seqs = sorted(p.seq for p in sink.packets)
        assert seqs == list(range(len(seqs)))

    def test_packets_carry_frame_metadata(self):
        sim = Simulator()
        sink = CollectorSink()
        server = make_server(sim, sink)
        server.start()
        sim.run(until=0.5)
        by_frame = {}
        for p in sink.packets:
            by_frame.setdefault(p.meta.frame_id, []).append(p)
        for frame_id, pkts in by_frame.items():
            meta = pkts[0].meta
            assert all(p.meta is meta for p in pkts)  # one per frame
            assert len(pkts) <= meta.count
            indices = sorted(p.seq - meta.first_seq for p in pkts)
            assert indices == list(range(len(pkts)))
            if len(pkts) == meta.count:
                assert sum(p.size for p in pkts) == meta.size

    def test_stop_halts_stream(self):
        sim = Simulator()
        sink = CollectorSink()
        server = make_server(sim, sink)
        server.start()
        sim.run(until=0.5)
        server.stop()
        sent = len(sink.packets)
        sim.run(until=1.0)
        assert len(sink.packets) == sent

    def test_stop_mid_frame_withdraws_paced_packets(self):
        """Nothing paced for after the stop is sent, on either kind of
        path (into a link, or through a delay line to any other sink)."""
        for make_sink in (lambda sim, sink: Link(sim, 1e9, 0.0, sink), lambda sim, sink: sink):
            sim = Simulator()
            sink = CollectorSink()
            stats = FlowStats("stadia")
            server = make_server(sim, make_sink(sim, sink), stats=stats)
            server.start()
            # A frame is paced over most of its 1/60 s tick: stop 4 ms in.
            stop_at = 30 / 60 + 0.004
            sim.run(until=stop_at)
            handed_over = server._seq
            server.stop()
            sim.run(until=1.0)
            assert sink.packets and len(sink.packets) < handed_over
            assert max(p.sent_at for p in sink.packets) <= stop_at
            assert [p.seq for p in sink.packets] == list(range(len(sink.packets)))
            # The counters say what was sent, not what was paced.
            assert server.packets_sent == len(sink.packets) == stats.packets_sent
            assert server.bytes_sent == stats.bytes_sent
            assert server.bytes_sent == sum(p.size for p in sink.packets)
            assert len(server.path) == 0

    def test_restart_after_stop_is_not_clamped_to_withdrawn_packets(self):
        """Stop mid-frame and start again in the same instant: the first
        new packet leaves the delay stage at ``now + delay``, not behind
        the release time of a packet the stop withdrew."""
        delay = 0.005

        class _Arrivals:
            def __init__(self, sim):
                self.sim = sim
                self.log = []

            def receive(self, pkt):
                self.log.append((self.sim.now, pkt))

        for via_link in (True, False):
            sim = Simulator()
            sink = _Arrivals(sim)
            # 1 Tb/s: serialisation adds ~10 ns, far below the clamp
            # error (the rest of the withdrawn frame's pacing, ~14 ms).
            dest = Link(sim, 1e12, 0.0, sink) if via_link else sink
            server = GameStreamServer(
                sim, STADIA.name, STADIA, path=NetemDelay(sim, delay, dest),
                rng=np.random.default_rng(1),
            )
            server.start()
            restart_at = 30 / 60 + 0.004  # a frame is still being paced
            sim.run(until=restart_at)
            first_new = server._seq
            server.stop()
            server.start()
            sim.run(until=1.0)
            (arrived,) = [t for t, p in sink.log if p.seq == first_new]
            assert arrived == pytest.approx(restart_at + delay, abs=1e-6)

    def test_sending_rate_tracks_controller_target(self):
        sim = Simulator()
        sink = CollectorSink()
        server = make_server(sim, sink)
        server.controller.target = 8e6
        server.start()
        sim.run(until=3.0)
        sent_bits = sum(p.size for p in sink.packets if p.sent_at >= 1.0) * 8
        rate = sent_bits / 2.0
        assert rate == pytest.approx(8e6, rel=0.15)

    def test_nack_triggers_retransmission(self):
        sim = Simulator()
        sink = CollectorSink()
        server = make_server(sim, sink)
        server.start()
        sim.run(until=0.2)
        target_seq = sink.packets[3].seq
        report = FeedbackReport(0.0, 0.2, 100, 99, 100_000, 0.0, 0.0, [target_seq])
        server.receive(Packet(server.flow, 0, 80, kind=FEEDBACK, sent_at=0.2, meta=report))
        original = sink.packets[3]
        sim.run(until=0.4)
        # A retransmission is a second packet with an already-sent seq.
        seen, retx = set(), []
        for p in sink.packets:
            if p.seq in seen:
                retx.append(p)
            seen.add(p.seq)
        assert len(retx) == 1
        assert retx[0].seq == target_seq
        assert retx[0].size == original.size
        assert retx[0].meta is original.meta
        assert retx[0].sent_at > 0.2
        assert server.retransmitted == 1

    def test_nack_for_expired_seq_ignored(self):
        sim = Simulator()
        sink = CollectorSink()
        server = make_server(sim, sink)
        server.start()
        sim.run(until=0.2)
        report = FeedbackReport(0.0, 0.2, 100, 99, 100_000, 0.0, 0.0, [999_999])
        server.receive(Packet(server.flow, 0, 80, kind=FEEDBACK, sent_at=0.2, meta=report))
        assert server.retransmitted == 0

    def test_fps_policy_drops_under_loss(self):
        sim = Simulator()
        server = make_server(sim, CollectorSink())
        server.start()
        server.controller.smoothed_loss = STADIA.fps_loss_severe * 2
        server._update_fps(0.5)
        assert server.current_fps == STADIA.fps_severe

    def test_geforce_defends_frame_rate(self):
        sim = Simulator()
        server = make_server(sim, CollectorSink(), profile=GEFORCE)
        server.start()
        server.controller.smoothed_loss = 0.005  # mild loss
        server._update_fps(0.5)
        assert server.current_fps == GEFORCE.fps

    def test_luna_fps_follows_rate_when_lossy(self):
        sim = Simulator()
        server = make_server(sim, CollectorSink(), profile=LUNA)
        server.start()
        server.controller.smoothed_loss = LUNA.fps_loss_mild * 2
        server.controller.target = 0.2 * LUNA.fps_rate_ref * LUNA.max_bitrate
        server._update_fps(0.5)
        assert server.current_fps < 0.5 * LUNA.fps


class TestClient:
    def _media(self, seq, frame_id=0, index=0, count=1, sent_at=0.0, size=1200):
        # ``index`` is carried by the sequence number: the frame's first
        # packet has seq - index.
        return Packet(
            "stadia", seq, size, kind=MEDIA, sent_at=sent_at,
            meta=FrameMeta(frame_id, seq - index, count),
        )

    def test_complete_frame_displayed(self):
        sim = Simulator()
        client = make_client(sim, CollectorSink())
        client.start()
        for i in range(3):
            client.receive(self._media(i, frame_id=0, index=i, count=3))
        assert client.frames_displayed == 1
        assert len(client.display_times) == 1

    def test_incomplete_frame_dropped_after_deadline(self):
        sim = Simulator()
        client = make_client(sim, CollectorSink())
        client.start()
        client.receive(self._media(0, frame_id=0, index=0, count=3))
        sim.run(until=FRAME_DEADLINE + 0.1)
        assert client.frames_dropped == 1
        assert client.frames_displayed == 0

    def test_duplicate_packet_does_not_double_count(self):
        sim = Simulator()
        client = make_client(sim, CollectorSink())
        client.start()
        pkt = self._media(0, frame_id=0, index=0, count=2)
        client.receive(pkt)
        client.receive(self._media(0, frame_id=0, index=0, count=2))
        # duplicate of seq 0 arrived; frame still needs its second packet
        assert client.frames_displayed in (0, 1)  # tolerated, never >1

    def test_feedback_reports_loss_gap(self):
        sim = Simulator()
        feedback = CollectorSink()
        client = make_client(sim, feedback)
        client.start()
        client.receive(self._media(0))
        client.receive(self._media(5, frame_id=1))  # gap: 1-4 missing
        sim.run(until=0.15)  # one feedback interval
        regular = [p.meta for p in feedback.packets if not p.meta.nack_only]
        assert regular
        report = regular[0]
        assert report.expected >= report.received
        assert report.loss_fraction > 0

    def test_gap_triggers_instant_nack(self):
        """Missing packets are NACKed out of band, before the next report."""
        sim = Simulator()
        feedback = CollectorSink()
        client = make_client(sim, feedback)
        client.start()
        client.receive(self._media(0))
        client.receive(self._media(4, frame_id=1))
        instant = [p.meta for p in feedback.packets if p.meta.nack_only]
        assert instant
        assert set(instant[0].nacks) == {1, 2, 3}

    def test_nack_not_repeated_immediately(self):
        sim = Simulator()
        feedback = CollectorSink()
        client = make_client(sim, feedback)
        client.start()
        client.receive(self._media(0))
        client.receive(self._media(2, frame_id=1))
        sim.run(until=0.12)  # one regular interval < retry interval (150 ms)
        nack_lists = [p.meta.nacks for p in feedback.packets]
        assert any(1 in nacks for nacks in nack_lists)
        # seq 1 was NACKed exactly once so far
        assert sum(1 in nacks for nacks in nack_lists) == 1

    def test_late_packet_cannot_revive_dropped_frame(self):
        sim = Simulator()
        client = make_client(sim, CollectorSink())
        client.start()
        client.receive(self._media(0, frame_id=0, index=0, count=2))
        sim.run(until=FRAME_DEADLINE + 0.05)
        assert client.frames_dropped == 1
        client.receive(self._media(1, frame_id=0, index=1, count=2))
        sim.run(until=FRAME_DEADLINE * 3)
        assert client.frames_dropped == 1
        assert client.frames_displayed == 0

    def test_frame_deadlines_hold_one_scheduler_entry(self):
        """k frames awaiting their deadline add one queued entry, not k,
        and each still drops at its own deadline."""
        sim = Simulator()
        client = make_client(sim, CollectorSink())
        client.start()
        idle = sim.pending  # the feedback timer
        k = 12
        opened = [i * 0.01 for i in range(k)]
        for frame_id, t in enumerate(opened):
            pkt = self._media(frame_id, frame_id=frame_id, count=2)
            sim.schedule_at(t, client.receive, pkt)
        sim.run(until=opened[-1])
        assert client.frames_dropped == 0
        assert sim.pending == idle + 1
        for dropped, t in enumerate(opened, start=1):
            sim.run(until=t + FRAME_DEADLINE)
            assert client.frames_dropped == dropped
        assert sim.pending == idle
        assert client.frames_displayed == 0

    def test_qdelay_measured_above_baseline(self):
        sim = Simulator()
        feedback = CollectorSink()
        client = make_client(sim, feedback)
        client.start()
        # first packet arrives with 10 ms OWD (baseline), second with 30 ms
        sim.schedule(0.01, client.receive, self._media(0, sent_at=0.0))
        sim.schedule(0.05, client.receive, self._media(1, frame_id=1, sent_at=0.02))
        sim.run(until=0.12)
        report = feedback.packets[0].meta
        assert report.qdelay_max == pytest.approx(0.02, abs=0.005)

    def test_displayed_fps_windowing(self):
        sim = Simulator()
        client = make_client(sim, CollectorSink())
        client.display_times = [i / 30 for i in range(60)]  # 30 f/s for 2 s
        assert client.displayed_fps(0.0, 2.0) == pytest.approx(30.0)
        with pytest.raises(ValueError):
            client.displayed_fps(1.0, 1.0)


class TestEndToEnd:
    def test_closed_loop_over_ideal_path(self):
        """Server and client wired directly: stream reaches the ladder top."""
        sim = Simulator()
        up, down = _Wire(), _Wire()
        server = make_server(sim, down, profile=LUNA)
        client = make_client(sim, up, profile=LUNA)
        up.dest = server
        down.dest = client
        server.start()
        client.start()
        sim.run(until=40.0)
        assert server.controller.target == pytest.approx(LUNA.max_bitrate)
        assert client.frames_dropped == 0
        assert client.displayed_fps(30, 40) == pytest.approx(60, abs=2)
