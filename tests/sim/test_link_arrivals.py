"""Timestamped hand-off into a link: lazy admission changes nothing.

Delay stages in front of a :class:`~repro.sim.link.Link` hand packets
over ahead of time with their arrival time, and a busy link admits them
when it next serves its queue instead of in an event per arrival.  The
Hypothesis property below drives random three-stage arrival schedules
through three wirings of the same link --

- *lazy*: the default, one wake only while the link is idle;
- *observed*: ``link.observed``, the same wake armed for every arrival;
- *per-event*: no hand-off at all, each stage schedules
  ``link.receive`` at the release time (what the stages did before) --

and asserts identical delivery times, drops, ``enqueued_at`` stamps,
peak occupancy and counters, mid-run and at the end.  Every time is a
multiple of 2**-11 s and every serialisation time is too, so the float
arithmetic is exact and ties are everywhere: arrivals that land on a
transmission's completion instant, arrivals of different stages on the
same instant, and hand-overs far ahead of time from one stage followed
by near ones from another (non-monotone pushes).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.aqm import CoDelQueue, FQCoDelQueue
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.netem import NetemDelay
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue

_STEP = 2.0**-11  # time grid, seconds
_RATE = 8 * 2.0**20  # 512 B serialise in exactly one step
_SIZES = (512, 1024, 1536)


class _PerEventStage:
    """The reference: one ``link.receive`` event per arrival.

    Same release arithmetic as :class:`NetemDelay` (delay plus the
    no-reordering clamp); ``schedule_at`` takes its tie-break number at
    hand-off, exactly where the link reserves one.
    """

    def __init__(self, sim, delay, link):
        self.sim, self.delay, self.link = sim, delay, link
        self._last_release = 0.0

    def receive(self, pkt, at=None):
        release = (self.sim.now if at is None else at) + self.delay
        release = self._last_release = max(release, self._last_release)
        self.sim.schedule_at(release, self.link.receive, pkt)


def _make_queue(sim, qdisc, limit, on_drop):
    if qdisc == "droptail":
        return DropTailQueue(sim, limit, on_drop=on_drop)
    cls = CoDelQueue if qdisc == "codel" else FQCoDelQueue
    # Target and interval scaled down to the schedule's ~0.2 s span.
    return cls(sim, limit, target=4 * _STEP, interval=32 * _STEP, on_drop=on_drop)


def _drive(wiring, qdisc, limit, delays, sends, checkpoint):
    sim = Simulator()
    delivered, dropped = [], []

    class _Sink:
        def receive(self, pkt):
            delivered.append((sim.now, pkt.flow, pkt.seq, pkt.enqueued_at))

    queue = _make_queue(
        sim, qdisc, limit, lambda pkt: dropped.append((pkt.flow, pkt.seq))
    )
    link = Link(sim, _RATE, 0.0, _Sink(), queue=queue)
    if wiring == "per-event":
        stages = [_PerEventStage(sim, d * _STEP, link) for d in delays]
    else:
        stages = [NetemDelay(sim, d * _STEP, link) for d in delays]
        link.observed = wiring == "observed"

    step = 0
    for seq, (stage, gap, ahead, size) in enumerate(sends):
        step += gap
        at = (step + ahead) * _STEP
        pkt = Packet(f"f{stage}", seq, size, sent_at=at)
        sim.schedule_at(step * _STEP, stages[stage].receive, pkt, at)

    def counters():
        link.settle()
        return (
            len(delivered), len(dropped), len(queue), queue.bytes,
            queue.peak_bytes, queue.enqueues, queue.drops,
            link.busy, link.packets_sent, link.bytes_sent,
        )

    end = (step + 64) * _STEP
    sim.run(until=min(checkpoint * _STEP, end))
    mid = counters()
    sim.run(until=end)
    return delivered, dropped, mid, counters()


_SENDS = st.lists(
    st.tuples(
        st.integers(0, 2),  # stage
        st.integers(0, 5),  # steps since the previous hand-over
        st.integers(0, 12),  # steps the hand-over runs ahead of the send time
        st.sampled_from(_SIZES),
    ),
    min_size=1, max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(
    qdisc=st.sampled_from(["droptail", "codel", "fq_codel"]),
    limit=st.sampled_from([1536, 3072, 6144]),
    delays=st.tuples(*[st.sampled_from([0, 1, 2, 4, 8])] * 3),
    sends=_SENDS,
    checkpoint=st.integers(0, 300),
)
def test_lazy_admission_equals_one_event_per_arrival(
    qdisc, limit, delays, sends, checkpoint
):
    args = (qdisc, limit, delays, sends, checkpoint)
    reference = _drive("per-event", *args)
    assert reference[0] or reference[1]  # every schedule moves packets
    assert _drive("observed", *args) == reference
    assert _drive("lazy", *args) == reference


def test_schedules_do_hit_exact_ties():
    """The grid really produces the ties the property is about."""
    sends = [(0, 0, 0, 1024), (1, 0, 2, 512), (2, 1, 1, 512), (0, 1, 0, 1536)]
    delivered, dropped, _, end = _drive(
        "lazy", "droptail", 6144, (0, 0, 0), sends, 0
    )
    assert not dropped and end[0] == 4
    # f1#1 and f2#2 both arrive at step 2, the instant f0#0 completes.
    assert delivered[0][0] == 2 * _STEP
    assert {d[3] for d in delivered[1:3]} == {2 * _STEP}
