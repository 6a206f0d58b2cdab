"""The measurement testbed (Figure 1 of the paper), in simulation.

- :mod:`repro.testbed.tc` -- ``tc``/``tbf``/``netem`` configuration
  helpers: BDP math, queue sizing, and rendering of the equivalent
  Linux commands.
- :mod:`repro.testbed.topology` -- the dumbbell: game server and iperf
  server behind a shared bottleneck (rate-limited link + drop-tail or
  AQM queue), per-flow delay equalisation to ~16.5 ms RTT, capture taps.
- :mod:`repro.testbed.iperf` -- the bulk-download TCP competitor.
- :mod:`repro.testbed.capture` -- Wireshark-style per-flow packet capture.
- :mod:`repro.testbed.ping` -- the RTT probe running alongside the game.
"""

from repro.testbed.capture import PacketCapture
from repro.testbed.iperf import IperfFlow
from repro.testbed.ping import PingProber
from repro.testbed.tc import RouterConfig, bdp_bytes, queue_limit_bytes, render_tc_script
from repro.testbed.topology import GameStreamingTestbed

__all__ = [
    "GameStreamingTestbed",
    "IperfFlow",
    "PacketCapture",
    "PingProber",
    "RouterConfig",
    "bdp_bytes",
    "queue_limit_bytes",
    "render_tc_script",
]
