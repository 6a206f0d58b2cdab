"""Unit tests for the capture and ping components.

(Frame presentation is the client's own log: see
``GameStreamClient.display_times`` in tests/streaming.)
"""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.netem import NetemDelay
from repro.sim.packet import MEDIA, PING, Packet
from repro.testbed.capture import PacketCapture
from repro.testbed.ping import PingProber, PingReflector
from repro.testbed.tc import RouterConfig
from repro.testbed.topology import GameStreamingTestbed


class TestPacketCapture:
    def _capture_with_packets(self):
        sim = Simulator()
        capture = PacketCapture(sim)
        # 10 packets of 1250 B per second for 4 seconds on flow "a"
        for i in range(40):
            sim.schedule(i * 0.1, capture.tap, Packet("a", i, 1250, kind=MEDIA))
        sim.run()
        return capture

    def test_counts(self):
        capture = self._capture_with_packets()
        assert capture.packet_count("a") == 40
        assert capture.byte_count("a") == 50_000
        assert capture.packet_count("missing") == 0

    def test_throughput(self):
        capture = self._capture_with_packets()
        # 10 pkt/s * 1250 B = 100 kb/s
        assert capture.throughput_bps("a", 0.0, 4.0) == pytest.approx(1e5)

    def test_bitrate_series_shape_and_sum(self):
        capture = self._capture_with_packets()
        times, rates = capture.bitrate_series("a", 0.0, 4.0, bin_width=0.5)
        assert len(times) == len(rates) == 8
        # total bytes recovered from the series
        total = rates.sum() * 0.5 / 8
        assert total == pytest.approx(50_000)

    def test_unknown_flow_series_is_zero(self):
        capture = self._capture_with_packets()
        _, rates = capture.bitrate_series("nope", 0.0, 4.0)
        assert (rates == 0).all()

    def test_invalid_windows_rejected(self):
        capture = self._capture_with_packets()
        with pytest.raises(ValueError):
            capture.bitrate_series("a", 2.0, 1.0)
        with pytest.raises(ValueError):
            capture.bitrate_series("a", 0.0, 4.0, bin_width=0)
        with pytest.raises(ValueError):
            capture.throughput_bps("a", 3.0, 3.0)

    def test_byte_count_is_int(self):
        capture = self._capture_with_packets()
        assert type(capture.byte_count("a")) is int
        assert type(capture.byte_count("missing")) is int

    def test_arrays_are_independent_float64_copies(self):
        capture = self._capture_with_packets()
        times, sizes = capture.arrays("a")
        assert times.dtype == sizes.dtype == np.float64
        before = times.copy(), sizes.copy()
        # A live view would pin the buffers: this append would raise
        # BufferError.
        capture.tap(Packet("a", 40, 999, kind=MEDIA))
        assert capture.packet_count("a") == 41
        np.testing.assert_array_equal(times, before[0])
        np.testing.assert_array_equal(sizes, before[1])
        times[0] = sizes[0] = -1.0
        assert capture.arrays("a")[0][0] == 0.0
        assert capture.arrays("a")[1][0] == 1250.0

    def test_smoke_run_stores_sixteen_bytes_per_packet(self):
        tb = GameStreamingTestbed("stadia", RouterConfig(25e6, 2.0), seed=1)
        tb.start_game()
        tb.run(until=2.0)
        trace = tb.capture.flow_trace(tb.game_flow)
        assert len(trace.times) == len(trace.sizes) > 0
        assert (trace.times.itemsize, trace.sizes.itemsize) == (8, 8)


class TestPing:
    def test_rtt_measures_path_delay(self):
        sim = Simulator()
        prober = PingProber(sim, "ping", uplink_path=None, interval=0.5)
        reflector = PingReflector(NetemDelay(sim, delay=0.008, sink=prober))
        prober.uplink_path = NetemDelay(sim, delay=0.008, sink=reflector)
        prober.start()
        sim.run(until=10.0)
        rtts = prober.rtts_in_window(0.0, 10.0)
        assert len(rtts) == 20
        assert rtts.mean() == pytest.approx(0.016, rel=0.01)

    def test_stop_halts_probing(self):
        sim = Simulator()
        prober = PingProber(sim, "ping", uplink_path=None, interval=0.5)
        reflector = PingReflector(NetemDelay(sim, delay=0.001, sink=prober))
        prober.uplink_path = NetemDelay(sim, delay=0.001, sink=reflector)
        prober.start()
        sim.run(until=2.25)  # off a tick boundary; replies have landed
        prober.stop()
        count = len(prober.samples)
        sim.run(until=5.0)
        assert len(prober.samples) == count

    def test_lost_probe_not_counted(self):
        sim = Simulator()

        class _Blackhole:
            def receive(self, pkt):
                pass

        prober = PingProber(sim, "ping", uplink_path=_Blackhole(), interval=0.5)
        prober.start()
        sim.run(until=3.0)
        assert prober.samples == []

    def test_reflector_ignores_non_ping(self):
        sim = Simulator()
        hits = []

        class _Sink:
            def receive(self, pkt):
                hits.append(pkt)

        reflector = PingReflector(_Sink())
        reflector.receive(Packet("x", 0, 100, kind=MEDIA))
        assert hits == []
        reflector.receive(Packet("x", 0, 100, kind=PING))
        assert len(hits) == 1

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            PingProber(Simulator(), "ping", None, interval=0)

