"""Results of a single run, and how a run store holds them.

A :class:`RunResult` carries everything the analysis layer needs to
regenerate any table or figure: the binned bitrate series of the game
and iperf flows, RTT samples, loss statistics, displayed frame rate,
and the controller's target log.  It is numpy-backed in memory.

The dataclass is also the stored schema.  A field's ``kind`` metadata
says how a stored run holds it:

- ``series``: a 1-D array, one ``arrays.npz`` member;
- ``pairs``: an ``(n, 2)`` array, one ``arrays.npz`` member, read back
  in that shape;
- ``provenance``: a ``meta.json`` value recording how the run executed,
  not what it produced (a merge ignores it);
- no ``kind``: a ``meta.json`` value.

``meta.json`` lists its fields in declaration order, followed by the
derived summaries.  A key that is absent when a run is read takes the
field's default; a value must have a JSON type its field's annotation
declares (:data:`META_TYPES`).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Any, get_args, get_type_hints

import numpy as np

__all__ = ["ARRAYS", "META_TYPES", "PROVENANCE", "RunResult"]


def _stored(kind: str, **default: Any) -> Any:
    """A field held as ``kind`` in a stored run (see the module docstring)."""
    return field(metadata={"kind": kind}, **default)


@dataclass
class RunResult:
    """Everything measured in one run.

    ``wall_time_s`` is the host time of the run's set-up and warm-up and
    its own continuation to the end: a member of a prefix batch
    (:class:`~repro.experiments.runner.Warmup`) counts the shared warm-up
    in full, and never time spent waiting for a sibling.
    """

    # Identity.
    system: str
    cca: str | None
    capacity_bps: float
    queue_mult: float
    seed: int
    timeline_scale: float

    # Bitrate series (shared bin centres).
    times: np.ndarray = _stored("series")
    game_bps: np.ndarray = _stored("series")
    iperf_bps: np.ndarray = _stored("series")

    # Windowed summaries.
    baseline_bps: float  # mean game bitrate, baseline window
    fairness_game_bps: float  # mean game bitrate, fairness window
    fairness_iperf_bps: float  # mean iperf bitrate, fairness window
    solo_bps: float  # mean game bitrate, solo window

    # QoE measures.
    rtt_samples: np.ndarray = _stored("pairs")  # (send_time, rtt)
    game_loss_rate: float
    displayed_fps_contention: float
    displayed_fps_solo: float
    frames_displayed: int
    frames_dropped: int

    # Controller trace.
    target_log: np.ndarray = _stored(
        "pairs", default_factory=lambda: np.empty((0, 2))
    )

    # Run provenance and profiling (filled by the runner).
    qdisc: str = "droptail"
    wall_time_s: float = _stored("provenance", default=0.0)
    profile: dict | None = _stored("provenance", default=None)

    # ------------------------------------------------------------------
    def rtts_in(self, t_start: float, t_end: float) -> np.ndarray:
        """RTT values for probes sent within [t_start, t_end)."""
        if self.rtt_samples.size == 0:
            return np.empty(0)
        sent = self.rtt_samples[:, 0]
        mask = (sent >= t_start) & (sent < t_end)
        return self.rtt_samples[mask, 1]

    def game_mean_bps(self, t_start: float, t_end: float) -> float:
        mask = (self.times >= t_start) & (self.times < t_end)
        if not mask.any():
            raise ValueError(f"no bins in [{t_start}, {t_end})")
        return float(self.game_bps[mask].mean())

    def iperf_mean_bps(self, t_start: float, t_end: float) -> float:
        mask = (self.times >= t_start) & (self.times < t_end)
        if not mask.any():
            raise ValueError(f"no bins in [{t_start}, {t_end})")
        return float(self.iperf_bps[mask].mean())

    def rtt_summary(self) -> dict:
        """Summary statistics of the full RTT sample set."""
        if self.rtt_samples.size == 0:
            return {"count": 0, "mean": None, "min": None, "max": None, "p95": None}
        rtts = self.rtt_samples[:, 1]
        return {
            "count": int(rtts.size),
            "mean": float(rtts.mean()),
            "min": float(rtts.min()),
            "max": float(rtts.max()),
            "p95": float(np.percentile(rtts, 95)),
        }

    @property
    def fairness_ratio(self) -> float:
        """(game - iperf) / capacity over the fairness window."""
        return (self.fairness_game_bps - self.fairness_iperf_bps) / self.capacity_bps

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Every field in declaration order, arrays as lists, then the
        derived summaries: the run as plain JSON types."""
        data = {name: getattr(self, name) for name in _NAMES}
        for name in ARRAYS:
            data[name] = data[name].tolist()
        data.update(self._summaries())
        return data

    def to_stored(self) -> tuple[dict, dict[str, np.ndarray]]:
        """``(meta, arrays)``: the run as a store holds it.

        ``meta`` is every non-array field in declaration order, then the
        derived summaries; ``arrays`` maps each array field to its value.
        """
        meta = {name: getattr(self, name) for name in _META}
        meta.update(self._summaries())
        return meta, {name: getattr(self, name) for name in ARRAYS}

    def _summaries(self) -> dict:
        # Derived summaries, for consumers that never load the arrays.
        return {
            "rtt_summary": self.rtt_summary(),
            "fairness_ratio": self.fairness_ratio,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """The inverse of :meth:`to_dict`, and of :meth:`to_stored`'s
        two halves merged into one dict.

        A field absent from ``data`` takes its default, and a field with
        no default raises ``KeyError``.  Derived summaries are ignored.
        """
        values = {
            name: data[name] for name in _NAMES
            if name in data or name in _REQUIRED
        }
        for name in ARRAYS:
            if name in values:
                array = np.asarray(values[name])
                values[name] = array.reshape(-1, 2) if name in _PAIRS else array
        return cls(**values)


_KINDS = {f.name: f.metadata.get("kind") for f in fields(RunResult)}
_NAMES = tuple(_KINDS)
_REQUIRED = frozenset(
    f.name for f in fields(RunResult)
    if f.default is MISSING and f.default_factory is MISSING
)
_PAIRS = frozenset(name for name, kind in _KINDS.items() if kind == "pairs")

#: The ``arrays.npz`` members of a stored run, in declaration order.
ARRAYS = tuple(
    name for name, kind in _KINDS.items() if kind in ("series", "pairs")
)
_META = tuple(name for name in _NAMES if name not in ARRAYS)

#: The ``meta.json`` keys that record how a run executed, not what it
#: produced: two honest executions of one config differ only here.
PROVENANCE = tuple(
    name for name, kind in _KINDS.items() if kind == "provenance"
)


def _json_types(hint) -> tuple[type, ...]:
    """The types a JSON decoder yields for a value annotated ``hint``."""
    declared = get_args(hint) or (hint,)
    # A float field holds a JSON int when the value is integral (1, not 1.0).
    return declared + (int,) if float in declared else declared


_HINTS = get_type_hints(RunResult)
#: Per ``meta.json`` field, the exact types its decoded value may have
#: (``type(value) in META_TYPES[name]``, so a bool is no int).
META_TYPES = {name: _json_types(_HINTS[name]) for name in _META}
