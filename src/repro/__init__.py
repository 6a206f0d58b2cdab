"""repro: reproduction of "Measurement of Cloud-based Game Streaming
System Response to Competing TCP Cubic or TCP BBR Flows" (Xu &
Claypool, IMC 2022) as a packet-level simulation study.

The commercial services the paper measures (Google Stadia, NVidia
GeForce Now, Amazon Luna) and its physical testbed are rebuilt from
scratch:

- :mod:`repro.sim` -- discrete-event network simulator (links, drop-tail
  queues, token-bucket shaping, netem delay, CoDel/FQ-CoDel AQM).
- :mod:`repro.tcp` -- TCP senders with Cubic (RFC 8312), BBR v1,
  NewReno, and Vegas congestion control.
- :mod:`repro.streaming` -- a GCC-family adaptive game-streaming stack
  with calibrated per-system profiles.
- :mod:`repro.testbed` -- the paper's dumbbell testbed: tc-style router
  configuration, iperf, packet capture, ping.
- :mod:`repro.analysis` -- bitrate bands, fairness, adaptiveness, and
  the streaming reducers :mod:`repro.report` folds every table cell in.
- :mod:`repro.experiments` -- run configs, the Table 2 grid, striped
  campaigns.
- :mod:`repro.obs` -- zero-overhead tracepoint bus, sampled internal-
  state metrics, and event-loop profiling.
- :mod:`repro.store` -- content-addressed run store and fault-tolerant,
  resumable campaign scheduling.

Quickstart::

    from repro import QUICK, RunConfig, run_single

    result = run_single(RunConfig(
        system="stadia", capacity_bps=25e6, queue_mult=2.0,
        cca="cubic", seed=1, timeline=QUICK,
    ))
    print(result.fairness_game_bps / 1e6, "Mb/s for the game stream")
"""

from repro.obs import (
    JsonlSink,
    MemorySink,
    MetricsRecorder,
    SimProfiler,
    Tracer,
    load_trace,
    summarize_trace,
)
from repro.experiments import (
    Campaign,
    PAPER,
    QUICK,
    RunConfig,
    RunResult,
    SMOKE,
    Timeline,
    condition_grid,
    run_single,
    striped_order,
)
from repro.store import RunStore, config_fingerprint
from repro.streaming.systems import GEFORCE, LUNA, STADIA, SYSTEMS, SystemProfile
from repro.testbed.tc import RouterConfig, bdp_bytes, queue_limit_bytes
from repro.testbed.topology import GameStreamingTestbed

__version__ = "1.0.0"

__all__ = [
    "Campaign",
    "GEFORCE",
    "GameStreamingTestbed",
    "JsonlSink",
    "LUNA",
    "MemorySink",
    "MetricsRecorder",
    "PAPER",
    "QUICK",
    "RouterConfig",
    "RunConfig",
    "RunResult",
    "RunStore",
    "SMOKE",
    "STADIA",
    "SYSTEMS",
    "SimProfiler",
    "SystemProfile",
    "Timeline",
    "Tracer",
    "bdp_bytes",
    "condition_grid",
    "config_fingerprint",
    "load_trace",
    "queue_limit_bytes",
    "run_single",
    "striped_order",
    "summarize_trace",
    "__version__",
]
