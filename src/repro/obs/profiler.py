"""Run profiling: where does the wall time go?

:class:`SimProfiler` hooks the engine's single dispatch path
(:meth:`repro.sim.engine.Simulator.attach_profiler`) and accounts wall
time per callback category (the callback's qualified name: one category
per subsystem method -- ``Link._tx_done``, ``DeadlineTimer._fire``,
``GameStreamServer._frame_tick``, ...), plus events/second and the peak
event-heap depth.  A component that coalesces its events reports under
its timer's name: delay-line deliveries, the client's frame deadlines
among them, are all ``DelayLine._fire``.  Attach it only when
profiling: the engine's unprofiled path has no timing calls at all.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["SimProfiler"]


class SimProfiler:
    """Wall-time accounting for one simulation run."""

    def __init__(self) -> None:
        self._categories: dict[str, list] = {}  # qualname -> [count, wall_s]
        self.events = 0
        self.wall_in_callbacks = 0.0
        self.max_heap_depth = 0
        self._wall_start: float | None = None
        self._wall_stop: float | None = None

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def on_event(self, event, elapsed: float, heap_depth: int) -> None:
        """Called by the engine after dispatching every event."""
        if self._wall_start is None:
            self._wall_start = perf_counter() - elapsed
        self.events += 1
        self.wall_in_callbacks += elapsed
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth
        category = getattr(event.fn, "__qualname__", None) or repr(event.fn)
        entry = self._categories.get(category)
        if entry is None:
            self._categories[category] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed

    def finish(self) -> None:
        """Mark the end of the run (for the elapsed-wall figure)."""
        self._wall_stop = perf_counter()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def wall_elapsed(self) -> float:
        """Wall seconds from the first dispatched event to finish()."""
        if self._wall_start is None:
            return 0.0
        stop = self._wall_stop if self._wall_stop is not None else perf_counter()
        return stop - self._wall_start

    def summary(self) -> dict:
        wall = self.wall_elapsed
        total = self.wall_in_callbacks
        categories = [
            {
                "callback": name,
                "count": count,
                "wall_s": seconds,
                "share": (seconds / total) if total > 0 else 0.0,
            }
            for name, (count, seconds) in sorted(
                self._categories.items(), key=lambda item: -item[1][1]
            )
        ]
        return {
            "events": self.events,
            "wall_s": wall,
            "wall_in_callbacks_s": total,
            "events_per_sec": (self.events / wall) if wall > 0 else 0.0,
            "max_heap_depth": self.max_heap_depth,
            "categories": categories,
        }

    def render(self, top: int = 12) -> str:
        """Human-readable profile table for the CLI."""
        s = self.summary()
        lines = [
            f"sim profile: {s['events']} events in {s['wall_s']:.3f} s wall "
            f"({s['events_per_sec']:,.0f} events/s), "
            f"peak heap depth {s['max_heap_depth']}",
            f"  {'callback':<44} {'count':>9} {'wall (s)':>9} {'share':>6}",
        ]
        for row in s["categories"][:top]:
            lines.append(
                f"  {row['callback']:<44} {row['count']:>9} "
                f"{row['wall_s']:>9.4f} {row['share']:>5.1%}"
            )
        hidden = len(s["categories"]) - top
        if hidden > 0:
            lines.append(f"  ... {hidden} more categories")
        return "\n".join(lines)

