"""Experiment timelines.

The paper's run is nine minutes of gameplay: three minutes solo, three
minutes against the iperf TCP flow (185 s - 370 s), three minutes of
recovery.  Its analysis windows are fixed offsets of that timeline:

- baseline ("original bitrate"): 125-185 s
- adjusted bitrate: 310-370 s
- fairness window: 220-370 s (excludes the initial response)

A :class:`Timeline` scales the whole schedule by one factor so the same
experiment can run at paper scale (``PAPER``), at one-third scale for
interactive work and benchmarks (``QUICK``), or at one-ninth scale for
tests (``SMOKE``).  Absolute numbers shrink with the scale, and so can
verdicts: the windows scale but the controllers' time constants do not,
so a cell can flip sign between scales (EXPERIMENTS.md records the
Stadia-Cubic 25 Mb/s 7x cell doing so between ``QUICK`` and ``PAPER``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Timeline", "PAPER", "QUICK", "SMOKE"]


@dataclass(frozen=True)
class Timeline:
    """All time anchors of one experimental run, in seconds."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    # -- run structure ---------------------------------------------------
    @property
    def iperf_start(self) -> float:
        return 185.0 * self.scale

    @property
    def iperf_stop(self) -> float:
        return 370.0 * self.scale

    @property
    def end(self) -> float:
        return 555.0 * self.scale

    # -- analysis windows --------------------------------------------------
    @property
    def baseline_window(self) -> tuple[float, float]:
        """The "original bitrate" window (125-185 s at paper scale)."""
        return 125.0 * self.scale, 185.0 * self.scale

    @property
    def adjusted_window(self) -> tuple[float, float]:
        """The settled contention window (310-370 s at paper scale)."""
        return 310.0 * self.scale, 370.0 * self.scale

    @property
    def fairness_window(self) -> tuple[float, float]:
        """The Figure 3 window (220-370 s at paper scale)."""
        return 220.0 * self.scale, 370.0 * self.scale

    @property
    def contention_window(self) -> tuple[float, float]:
        """The full with-iperf window (Tables 4 and 5)."""
        return self.iperf_start, self.iperf_stop

    @property
    def solo_window(self) -> tuple[float, float]:
        """Steady-state gameplay window for solo runs (Tables 1 and 3)."""
        return self.baseline_window

    @property
    def bin_width(self) -> float:
        """Bitrate bin width; the paper uses 0.5 s at full scale."""
        return max(0.5 * self.scale, 0.1)


#: The paper's full 9-minute schedule.
PAPER = Timeline(scale=1.0)

#: One-third scale: ~3 minute runs; the benchmark default.
QUICK = Timeline(scale=1.0 / 3.0)

#: One-ninth scale: ~1 minute runs for tests.
SMOKE = Timeline(scale=1.0 / 9.0)
