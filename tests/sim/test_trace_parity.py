"""Trace parity on the paper scenarios: fewer events, same run.

For three scenarios (solo-stream, cubic-contention, bbr-contention —
here at smoke scale) the result arrays and the complete trace stream are
pinned, not merely statistically similar output.  This is the
byte-exact protocol that gated the delay-line coalescing work (see
docs/PERFORMANCE.md, "measurement protocol").

An unobserved run admits arrivals to the bottleneck lazily and an
observed one (tracer attached) in an event each (the timestamped
downlink hand-off), so on every scenario the two must hash to the same
result arrays, and the observed trace stream must be time-monotone and
equal to the one recorded before the hand-off existed
(``_PARENT_TRACE_SHA256``) -- apart from ``run.end``'s ``events``, which
is what that change and later ones (the TCP sender's deadline timers)
moved.  The stream pins the engine's dispatch order and tie-break
sequence allocation.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments import RunConfig, SMOKE
from repro.experiments.runner import run_single
from repro.obs.trace import MemorySink, Tracer

_SCENARIOS = {
    "solo-stream": None,
    "cubic-contention": "cubic",
    "bbr-contention": "bbr",
}

_ARRAYS = ("times", "game_bps", "iperf_bps", "rtt_samples")

#: sha256 of each scenario's trace stream (``run.end`` without its
#: ``events`` field) at the commit before the timestamped hand-off,
#: where every arrival at the bottleneck was an event.  Both scheduler
#: backends of that time produced the same stream.
_PARENT_TRACE_SHA256 = {
    "solo-stream":
        "53669c34987adfbdd7d59fe6250cfcebf9af42f542e1444bde10f3a046df0716",
    "cubic-contention":
        "a76ab185847501194e4b5a79ae43144a2caf1e76a12004d42f5eb3be0c4b4426",
    "bbr-contention":
        "7e2486b39a8ee115c6df70c1bb894ec4494b8607e218a4dcc8e515f5e598ffc5",
}


def _result_sha256(result) -> str:
    digest = hashlib.sha256()
    for name in _ARRAYS:
        arr = np.ascontiguousarray(
            np.asarray(getattr(result, name), dtype=np.float64)
        )
        digest.update(name.encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _run(cca: str | None, tracer=None):
    config = RunConfig("stadia", 25e6, 2.0, cca=cca, seed=0, timeline=SMOKE)
    return run_single(config, tracer=tracer)


def _measure(cca: str | None):
    """One observed run, reduced to hashes."""
    sink = MemorySink()
    result = _run(cca, Tracer(sink))

    trace_sans_events = hashlib.sha256()
    monotone = True
    last_t = 0.0
    for record in sink.records:
        if record["ev"] == "run.end":
            record = {k: v for k, v in record.items() if k != "events"}
        trace_sans_events.update(
            json.dumps(record, sort_keys=True, default=str).encode()
        )
        monotone = monotone and record["t"] >= last_t
        last_t = record["t"]

    (run_end,) = [r for r in sink.records if r["ev"] == "run.end"]
    return {
        "result_sha256": _result_sha256(result),
        "trace_sans_events_sha256": trace_sans_events.hexdigest(),
        "trace_monotone": monotone,
        "trace_records": len(sink.records),
        "events_processed": run_end["events"],
    }


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_observed_and_unobserved_runs_agree(scenario):
    observed = _measure(_SCENARIOS[scenario])
    assert observed["events_processed"] > 0
    assert observed["trace_records"] > 0
    unobserved = _run(_SCENARIOS[scenario])
    assert _result_sha256(unobserved) == observed["result_sha256"]
    assert observed["trace_monotone"]
    assert observed["trace_sans_events_sha256"] == _PARENT_TRACE_SHA256[scenario]
