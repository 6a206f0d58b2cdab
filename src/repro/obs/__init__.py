"""Observability: tracepoints, metrics, and run profiling.

The paper's whole method is instrumentation from outside the black box
(Wireshark, ping, PresentMon); this package instruments our white box
from the inside:

- :mod:`repro.obs.trace` -- the tracepoint bus.  Named probe points all
  through the simulator, TCP stack, and streaming stack emit structured
  events to JSONL sinks; with no sink attached every probe is a single
  ``if tracer.enabled`` branch (null-object pattern, ~zero overhead).
- :mod:`repro.obs.metrics` -- gauges and counters sampled on a fixed
  simulation-time period (queue occupancy, cwnd, GCC target, ...).
- :mod:`repro.obs.profiler` -- wall-time per callback category,
  events/second, and peak heap depth for one run.
- :mod:`repro.obs.inspect` -- summarise a trace file (the
  ``repro-gsnet inspect`` subcommand).
"""

from repro.obs.counters import CounterSet
from repro.obs.inspect import load_trace, render_trace_summary, summarize_trace
from repro.obs.metrics import MetricsRecorder
from repro.obs.profiler import SimProfiler
from repro.obs.trace import JsonlSink, MemorySink, NULL_TRACER, Tracer

__all__ = [
    "CounterSet",
    "JsonlSink",
    "MemorySink",
    "MetricsRecorder",
    "NULL_TRACER",
    "SimProfiler",
    "Tracer",
    "load_trace",
    "render_trace_summary",
    "summarize_trace",
]
