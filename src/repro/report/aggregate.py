"""Batched sweep aggregation: stream stored runs into condition summaries.

:func:`aggregate_store` selects runs through the
:class:`~repro.store.index.StoreIndex`, loads each
:class:`~repro.experiments.results.RunResult` exactly once, and folds
it into per-condition reducers (:mod:`repro.analysis.reducers`), so an
arbitrarily large sweep is summarised in one pass with memory bounded
by the number of *conditions*, not the number of runs.

Per-run metrics reuse the same definitions as the live
:class:`~repro.experiments.campaign.ConditionResult` aggregates -- the
fairness ratio over the fairness window, pooled RTT over the
contention (or solo) window, response/recovery per Section 4.2 -- so a
report over a store and a report over a just-finished campaign agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.adaptiveness import adaptiveness, response_recovery
from repro.analysis.reducers import BandAccumulator, Moments, QuantileReservoir
from repro.experiments.profiles import Timeline
from repro.experiments.results import RunResult
from repro.store.index import StoreIndex

__all__ = ["ConditionAggregate", "SweepReport", "aggregate_store"]

#: Condition identity: every axis except the seed (seeds are the runs).
CONDITION_AXES = (
    "system",
    "cca",
    "capacity_bps",
    "queue_mult",
    "qdisc",
    "timeline_scale",
)


@dataclass
class ConditionAggregate:
    """Streaming reducers over every run of one condition."""

    system: str
    cca: str | None
    capacity_bps: float
    queue_mult: float
    qdisc: str
    timeline_scale: float
    keep_bands: bool = True

    runs: int = 0
    fairness: Moments = field(default_factory=Moments)
    baseline_bps: Moments = field(default_factory=Moments)
    rtt_s: Moments = field(default_factory=Moments)
    rtt_reservoir: QuantileReservoir = field(default_factory=QuantileReservoir)
    loss_rate: Moments = field(default_factory=Moments)
    fps: Moments = field(default_factory=Moments)
    response_s: Moments = field(default_factory=Moments)
    recovery_s: Moments = field(default_factory=Moments)
    game_band: BandAccumulator = field(default_factory=BandAccumulator)
    iperf_band: BandAccumulator = field(default_factory=BandAccumulator)

    @property
    def contended(self) -> bool:
        return self.cca is not None

    @property
    def timeline(self) -> Timeline:
        return Timeline(scale=self.timeline_scale)

    def add(self, result: RunResult) -> None:
        """Fold one run into every reducer (single pass over its arrays)."""
        timeline = self.timeline
        self.runs += 1
        self.baseline_bps.add(result.solo_bps)
        self.loss_rate.add(result.game_loss_rate)
        self.fps.add(result.displayed_fps_contention)

        # RTT window matches the paper's tables: the contention window
        # when a TCP flow competes (Table 4), the matching solo window
        # otherwise (Table 3).
        lo, hi = (
            timeline.contention_window if self.contended else timeline.solo_window
        )
        rtts = result.rtts_in(lo, hi)
        if len(rtts):
            self.rtt_s.add_many(rtts)
            self.rtt_reservoir.add_many(rtts)

        if self.keep_bands:
            self.game_band.add(result.times, result.game_bps)
            self.iperf_band.add(result.times, result.iperf_bps)

        if self.contended:
            self.fairness.add(result.fairness_ratio)
            response, recovery = response_recovery(
                result.times, result.game_bps, timeline
            )
            self.response_s.add(response)
            self.recovery_s.add(recovery)

    def to_dict(self) -> dict:
        summary = {
            "system": self.system,
            "cca": self.cca,
            "capacity_bps": self.capacity_bps,
            "capacity_mbps": self.capacity_bps / 1e6,
            "queue_mult": self.queue_mult,
            "qdisc": self.qdisc,
            "timeline_scale": self.timeline_scale,
            "runs": self.runs,
            "baseline_bps": self.baseline_bps.to_dict(),
            "rtt_ms": _scale_moments(self.rtt_s.to_dict(), 1e3),
            "rtt_cdf_ms": [
                [v * 1e3, f] for v, f in self.rtt_reservoir.cdf()
            ],
            "loss_rate": self.loss_rate.to_dict(),
            "fps": self.fps.to_dict(),
        }
        if self.contended:
            summary["fairness"] = self.fairness.to_dict()
            summary["response_s"] = self.response_s.to_dict()
            summary["recovery_s"] = self.recovery_s.to_dict()
        return summary


def _scale_moments(summary: dict | None, factor: float) -> dict | None:
    if summary is None:
        return None
    scaled = dict(summary)
    for key in ("mean", "std", "ci95", "min", "max"):
        scaled[key] = summary[key] * factor
    return scaled


class SweepReport:
    """Everything one ``repro-gsnet report`` invocation aggregated.

    ``conditions`` maps the :data:`CONDITION_AXES` tuple to its
    :class:`ConditionAggregate`, in the index's deterministic order.
    """

    def __init__(self, store_root: str, where: dict):
        self.store_root = store_root
        self.where = where
        self.conditions: dict[tuple, ConditionAggregate] = {}
        self.total_runs = 0
        self.skipped: list[str] = []

    def condition_for(self, entry: dict, keep_bands: bool = True) -> ConditionAggregate:
        key = tuple(entry.get(axis) for axis in CONDITION_AXES)
        condition = self.conditions.get(key)
        if condition is None:
            condition = ConditionAggregate(
                system=entry["system"],
                cca=entry.get("cca"),
                capacity_bps=float(entry["capacity_bps"]),
                queue_mult=float(entry["queue_mult"]),
                qdisc=entry.get("qdisc", "droptail"),
                timeline_scale=float(entry.get("timeline_scale", 1.0)),
                keep_bands=keep_bands,
            )
            self.conditions[key] = condition
        return condition

    # ------------------------------------------------------------------
    def adaptiveness_points(self) -> list:
        """Figure 4 points: one per contended condition.

        C_max/E_max normalise over *this report's* point set (max mean
        response/recovery across conditions), the convention the
        benchmark figures use.
        """
        from repro.analysis.adaptiveness import AdaptivenessPoint

        contended = [c for c in self.conditions.values() if c.contended and c.runs]
        if not contended:
            return []
        c_max = max(c.response_s.mean for c in contended)
        e_max = max(c.recovery_s.mean for c in contended)
        points = []
        for c in contended:
            points.append(
                AdaptivenessPoint(
                    system=c.system,
                    cca=c.cca,
                    capacity_bps=c.capacity_bps,
                    queue_mult=c.queue_mult,
                    fairness=c.fairness.mean,
                    response=c.response_s.mean,
                    recovery=c.recovery_s.mean,
                    adaptiveness=(
                        adaptiveness(c.response_s.mean, c.recovery_s.mean, c_max, e_max)
                        if c_max > 0 and e_max > 0
                        else 1.0
                    ),
                )
            )
        return points

    def to_dict(self) -> dict:
        conditions = [
            condition.to_dict() for condition in self.conditions.values()
        ]
        points = self.adaptiveness_points()
        return {
            "store": self.store_root,
            "where": self.where,
            "runs": self.total_runs,
            "conditions": conditions,
            "adaptiveness": [
                {
                    "system": p.system,
                    "cca": p.cca,
                    "capacity_mbps": p.capacity_bps / 1e6,
                    "queue_mult": p.queue_mult,
                    "fairness": p.fairness,
                    "response_s": p.response,
                    "recovery_s": p.recovery,
                    "adaptiveness": p.adaptiveness,
                }
                for p in points
            ],
            "skipped": list(self.skipped),
        }


def aggregate_store(
    store,
    where: dict | None = None,
    index: StoreIndex | None = None,
    keep_bands: bool = True,
) -> SweepReport:
    """One-pass aggregation of every stored run matching ``where``.

    Runs stream through :meth:`RunStore.get_fp` one at a time; nothing
    is ever simulated.  Manifest entries whose objects have been
    removed are recorded in ``report.skipped`` rather than failing the
    whole sweep.  ``keep_bands=False`` drops the Figure-2 band
    accumulation (and its per-condition arrays) for metric-only
    reports.
    """
    where = dict(where or {})
    if index is None:
        index = StoreIndex.open(store)
    report = SweepReport(store_root=str(store.root), where=where)
    for entry in index.select(**where):
        result = store.get_fp(entry["fp"])
        if result is None:
            report.skipped.append(entry["fp"])
            continue
        report.condition_for(entry, keep_bands=keep_bands).add(result)
        report.total_runs += 1
    return report
