"""Configuration of a single experimental run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.profiles import QUICK, Timeline
from repro.streaming.systems import SYSTEMS
from repro.tcp import CCA_REGISTRY

__all__ = ["RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """One run: a cell of the paper's grid plus a seed and timeline.

    Args:
        system: game system name ("stadia", "geforce", "luna").
        capacity_bps: bottleneck capacity (15e6, 25e6 or 35e6; the paper
            also measures unconstrained baselines -- use 1e9).
        queue_mult: bottleneck buffer in BDP multiples (0.5, 2, 7).
        cca: competing flow's congestion control, or None for solo runs.
        seed: drives all run randomness (content, noise, jitter).
        timeline: schedule / analysis windows (default QUICK).
        qdisc: bottleneck queue discipline ("droptail" in the paper).
    """

    system: str
    capacity_bps: float
    queue_mult: float
    cca: str | None = None
    seed: int = 0
    timeline: Timeline = field(default=QUICK)
    qdisc: str = "droptail"

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(
                f"unknown system {self.system!r}; options: {sorted(SYSTEMS)}"
            )
        if self.cca is not None and self.cca not in CCA_REGISTRY:
            raise ValueError(
                f"unknown cca {self.cca!r}; options: {sorted(CCA_REGISTRY)}"
            )
        if self.capacity_bps <= 0:
            raise ValueError(f"capacity_bps must be positive, got {self.capacity_bps}")
        if self.queue_mult <= 0:
            raise ValueError(f"queue_mult must be positive, got {self.queue_mult}")

    @property
    def competing(self) -> bool:
        return self.cca is not None

    @property
    def timeline_scale(self) -> float:
        """The timeline's scale, under the name a :class:`RunResult` uses."""
        return self.timeline.scale

    @property
    def label(self) -> str:
        cca = self.cca or "solo"
        return (
            f"{self.system}-{cca}-{self.capacity_bps / 1e6:.0f}M-"
            f"{self.queue_mult:g}x-s{self.seed}"
        )
