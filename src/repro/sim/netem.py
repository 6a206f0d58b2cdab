"""``tc netem``-style impairment stages.

The paper adds per-path delay at the router (``netem delay 4ms``) to
equalise the round-trip time of each game service and the iperf flow at
~16.5 ms.  :class:`NetemDelay` delays every packet by a fixed amount plus
optional jitter, while never reordering: a packet is released no earlier
than the packet before it, matching netem's default FIFO behaviour.

:class:`NetemLoss` is netem's random-loss knob (``netem loss 5%``),
used by the loss-resilience ablation that checks the related-work claim
(Di Domenico et al., 2021) that the streaming services tolerate several
percent of random loss.
"""

from __future__ import annotations

from heapq import heapify, heappush
from typing import Callable

import numpy as np

from repro.sim.delayline import DelayLine
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet

__all__ = ["NetemDelay", "NetemLoss"]


class NetemDelay:
    """Fixed (optionally jittered) one-way delay, order-preserving.

    The no-reordering clamp makes the stage provably FIFO.  In front of
    a :class:`~repro.sim.link.Link` it is pure arithmetic: the packet is
    handed on at once, stamped with its release time (the link's
    timestamped hand-off).  Any other sink is reached through a coalesced
    :class:`~repro.sim.delayline.DelayLine`: one live heap entry for the
    whole stage instead of one per packet in flight.

    Args:
        sim: the event loop.
        delay: base one-way delay in seconds.
        sink: downstream object with a ``receive(pkt)`` method.
        jitter: uniform jitter half-width in seconds (netem ``delay X Y``).
        rng: random generator used for jitter; required when jitter > 0.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        sink,
        jitter: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self.sim = sim
        self.delay = delay
        self.jitter = jitter
        self.rng = rng
        self.sink = sink
        self._last_release = 0.0
        self._link = sink if isinstance(sink, Link) else None
        self._line = DelayLine(sim, sink.receive) if self._link is None else None
        # Where delayed packets wait (same package: read by len/withdraw).
        self._waiting = self._line._q if self._link is None else sink.arrivals

    def receive(self, pkt: Packet, at: float | None = None) -> None:
        """Delay ``pkt``, which enters the stage at ``at`` (default: now).

        A sender that knows its pace schedule hands packets over ahead
        of time with ``at = pkt.sent_at`` in the future; until then they
        are not in the stage yet, and :meth:`withdraw` takes them back.
        """
        delay = self.delay
        if self.jitter > 0:
            delay += self.rng.uniform(-self.jitter, self.jitter)
            if delay < 0:
                delay = 0.0
        release = (self.sim.now if at is None else at) + delay
        if release < self._last_release:  # no reordering
            release = self._last_release
        else:
            self._last_release = release
        link = self._link
        if link is None:
            self._line.push(release, pkt)
            return
        sim = self.sim
        seq = sim._seq = sim._seq + 1  # the one a delivery event would take
        heappush(link.arrivals, (release, seq, pkt, self))
        if not link.busy or link.observed:
            link.expect_arrival()

    def _entries(self) -> list[tuple]:
        """This stage's waiting ``(release, seq, pkt, ...)`` entries."""
        link = self._link
        return [e for e in self._waiting if link is None or e[3] is self]

    def withdraw(self, after: float) -> None:
        """Take back the packets whose send time is later than ``after``.

        The timer standing in a withdrawn entry's slot stays armed; it
        finds the entry gone and moves on.
        """
        for entry in self._entries():
            if entry[2].sent_at > after:
                self._waiting.remove(entry)
        # Clamp what comes next to what the stage still holds, not to a
        # packet it gave back.
        self._last_release = max((e[0] for e in self._entries()), default=self.sim.now)
        if self._link is not None:
            heapify(self._waiting)

    def __len__(self) -> int:
        """Packets currently traversing the delay stage."""
        now = self.sim.now
        return sum(1 for e in self._entries() if e[2].sent_at <= now < e[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NetemDelay {self.delay * 1e3:.2f}ms jitter={self.jitter * 1e3:.2f}ms>"


class NetemLoss:
    """Independent random loss (``tc netem loss P%``).

    Args:
        sim: the event loop.
        loss_rate: drop probability per packet, in [0, 1).
        sink: downstream object with a ``receive(pkt)`` method.
        rng: seeded generator deciding each packet's fate.
        on_drop: optional callback for dropped packets.
    """

    def __init__(
        self,
        sim: Simulator,
        loss_rate: float,
        sink,
        rng: np.random.Generator,
        on_drop: Callable[[Packet], None] | None = None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.loss_rate = loss_rate
        self.sink = sink
        self.rng = rng
        self.on_drop = on_drop
        self.drops = 0
        self.passed = 0

    def receive(self, pkt: Packet) -> None:
        if self.loss_rate > 0 and self.rng.random() < self.loss_rate:
            self.drops += 1
            if self.on_drop is not None:
                self.on_drop(pkt)
            return
        self.passed += 1
        self.sink.receive(pkt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NetemLoss {self.loss_rate * 100:.1f}%>"
