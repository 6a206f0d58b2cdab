"""Property-based tests (hypothesis) on core data structures and invariants."""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.adaptiveness import adaptiveness
from repro.analysis.fairness import fairness_ratio, harm
from repro.analysis.stats import confidence_interval_95, mean_std
from repro.experiments import RunConfig, Timeline, run_single
from repro.obs import JsonlSink, Tracer
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue
from repro.streaming.feedback import FeedbackReport
from repro.tcp.rtt import RttEstimator
from repro.tcp.windowed_filter import WindowedMaxFilter, WindowedMinFilter

# ----------------------------------------------------------------------
# Simulator
# ----------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_simulator_time_never_goes_backwards(delays):
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
        min_size=1,
        max_size=50,
    )
)
def test_simulator_cancelled_events_never_fire(entries):
    sim = Simulator()
    fired = []
    events = []
    for delay, cancel in entries:
        events.append((sim.schedule(delay, lambda i=len(events): fired.append(i)), cancel))
    for event, cancel in events:
        if cancel:
            event.cancel()
    sim.run()
    expected = sum(1 for _, cancel in entries if not cancel)
    assert len(fired) == expected


# ----------------------------------------------------------------------
# Trace determinism
# ----------------------------------------------------------------------


#: A 15 s run: the competing flow still runs from 5.1 s to 10.3 s, so
#: the contended phase is traced too.
_TRACE_TIMELINE = Timeline(1 / 36)


def _capture_trace(system, cca, capacity_bps, queue_mult, seed) -> str:
    buffer = io.StringIO()
    tracer = Tracer(JsonlSink(buffer))
    run_single(
        RunConfig(
            system=system,
            capacity_bps=capacity_bps,
            queue_mult=queue_mult,
            cca=cca,
            seed=seed,
            timeline=_TRACE_TIMELINE,
        ),
        tracer=tracer,
    )
    tracer.close()
    return buffer.getvalue()


@settings(max_examples=3, deadline=None)
@given(
    system=st.sampled_from(["stadia", "geforce", "luna"]),
    cca=st.sampled_from(["cubic", "bbr"]),
    capacity_mbps=st.sampled_from([15.0, 25.0, 35.0]),
    queue_mult=st.sampled_from([0.5, 2.0, 7.0]),
    seed=st.integers(min_value=0, max_value=100),
)
def test_identical_seeds_produce_byte_identical_traces(
    system, cca, capacity_mbps, queue_mult, seed
):
    """Trace records carry sim time only, so a rerun is byte-identical."""
    first = _capture_trace(system, cca, capacity_mbps * 1e6, queue_mult, seed)
    second = _capture_trace(system, cca, capacity_mbps * 1e6, queue_mult, seed)
    assert first  # the probe set is wired: traces are never empty
    assert first == second


# ----------------------------------------------------------------------
# Queues
# ----------------------------------------------------------------------


@given(
    limit=st.integers(min_value=1500, max_value=100_000),
    sizes=st.lists(st.integers(min_value=64, max_value=1500), min_size=1, max_size=200),
)
def test_droptail_never_exceeds_limit_and_conserves_packets(limit, sizes):
    sim = Simulator()
    queue = DropTailQueue(sim, limit_bytes=limit)
    accepted = 0
    for i, size in enumerate(sizes):
        if queue.enqueue(Packet("f", i, size), sim.now):
            accepted += 1
        assert queue.bytes <= limit
    popped = 0
    while queue.pop() is not None:
        popped += 1
    assert popped == accepted
    assert accepted + queue.drops == len(sizes)
    assert queue.bytes == 0


@given(
    sizes=st.lists(st.integers(min_value=64, max_value=1500), min_size=2, max_size=100)
)
def test_droptail_preserves_fifo_order(sizes):
    sim = Simulator()
    queue = DropTailQueue(sim, limit_bytes=10**9)
    for i, size in enumerate(sizes):
        queue.enqueue(Packet("f", i, size), sim.now)
    out = []
    while (pkt := queue.pop()) is not None:
        out.append(pkt.seq)
    assert out == sorted(out)


# ----------------------------------------------------------------------
# Windowed filters
# ----------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1000),
            st.floats(min_value=0.001, max_value=1e9),
        ),
        min_size=1,
        max_size=100,
    )
)
def test_windowed_max_is_at_least_latest_sample_in_window(samples):
    f = WindowedMaxFilter(10.0)
    samples = sorted(samples)  # time-ordered
    for t, v in samples:
        estimate = f.update(t, v)
        assert estimate >= v or np.isclose(estimate, v)


@given(
    st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=100)
)
def test_windowed_min_never_above_current_when_monotone_times(values):
    f = WindowedMinFilter(5.0)
    for i, v in enumerate(values):
        estimate = f.update(float(i) * 0.1, v)
        assert estimate <= v or np.isclose(estimate, v)


@given(st.lists(st.floats(min_value=1, max_value=100), min_size=11, max_size=60))
def test_windowed_max_expires_old_peaks(values):
    """After > window newer samples, an old spike must be forgotten."""
    f = WindowedMaxFilter(10)
    f.update(0, 1e9)  # huge spike at t=0
    last = None
    for i, v in enumerate(values):
        last = f.update(i + 11, v)  # all beyond the window of the spike
    assert last <= max(values)


# ----------------------------------------------------------------------
# RTT estimator
# ----------------------------------------------------------------------


@given(st.lists(st.floats(min_value=1e-4, max_value=5.0), min_size=1, max_size=200))
def test_rtt_estimator_invariants(rtts):
    est = RttEstimator()
    for rtt in rtts:
        est.update(rtt)
    assert est.min_rtt == min(rtts)
    assert min(rtts) <= est.srtt <= max(rtts)
    assert est.min_rto <= est.rto <= est.max_rto


# ----------------------------------------------------------------------
# Analysis metrics
# ----------------------------------------------------------------------


@given(
    game=st.floats(min_value=0, max_value=1e9),
    tcp=st.floats(min_value=0, max_value=1e9),
    capacity=st.floats(min_value=1e3, max_value=1e9),
)
def test_fairness_ratio_bounded_and_antisymmetric(game, tcp, capacity):
    ratio = fairness_ratio(game, tcp, capacity)
    assert -1.0 <= ratio <= 1.0
    assert fairness_ratio(tcp, game, capacity) == -ratio


@given(
    solo=st.floats(min_value=1e-3, max_value=1e9),
    contested=st.floats(min_value=0, max_value=1e9),
)
def test_harm_bounded(solo, contested):
    assert 0.0 <= harm(solo, contested) <= 1.0
    assert 0.0 <= harm(solo, contested, higher_is_better=False) <= 1.0


@given(
    response=st.floats(min_value=0, max_value=1000),
    recovery=st.floats(min_value=0, max_value=1000),
    c_max=st.floats(min_value=1e-3, max_value=1000),
    e_max=st.floats(min_value=1e-3, max_value=1000),
)
def test_adaptiveness_bounded_and_monotone(response, recovery, c_max, e_max):
    a = adaptiveness(response, recovery, c_max, e_max)
    assert 0.0 <= a <= 1.0
    faster = adaptiveness(response / 2, recovery, c_max, e_max)
    assert faster >= a - 1e-12


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
def test_confidence_interval_contains_mean_relationship(values):
    mean, half = confidence_interval_95(values)
    sample_mean, _ = mean_std(values)
    assert mean == sample_mean
    assert half >= 0


# ----------------------------------------------------------------------
# Feedback report
# ----------------------------------------------------------------------


@given(
    expected=st.integers(min_value=0, max_value=10_000),
    received=st.integers(min_value=0, max_value=10_000),
    bytes_received=st.integers(min_value=0, max_value=10**8),
    interval=st.floats(min_value=1e-3, max_value=10.0),
)
def test_feedback_report_invariants(expected, received, bytes_received, interval):
    report = FeedbackReport(
        t_start=0.0,
        t_end=interval,
        expected=expected,
        received=received,
        bytes_received=bytes_received,
        qdelay_avg=0.0,
        qdelay_max=0.0,
        nacks=[],
    )
    assert 0.0 <= report.loss_fraction <= 1.0
    assert report.receive_rate >= 0.0
    if received >= expected:
        assert report.loss_fraction == 0.0
