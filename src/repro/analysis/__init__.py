"""Analysis pipeline: from packet traces to the paper's tables and figures.

- :mod:`repro.analysis.stats` -- means, standard deviations, 95% CIs.
- :mod:`repro.analysis.bitrate` -- 0.5 s binned bitrate series averaged
  across runs with confidence bands (Figure 2).
- :mod:`repro.analysis.fairness` -- the ratio of bitrate difference
  (game - TCP) / capacity (Figure 3), plus Ware-style harm (future work).
- :mod:`repro.analysis.adaptiveness` -- response time, recovery time and
  the combined adaptiveness metric A (Figure 4).
- :mod:`repro.analysis.render` -- plain-text tables, heatmaps and
  scatter summaries for terminal output.
- :mod:`repro.analysis.reducers` -- streaming cross-run reducers
  (Welford moments, reservoir quantiles, per-bin bands) backing
  :class:`repro.report.ConditionAggregate`, where every table cell --
  RTT (Tables 3 and 4), frame rate (Table 5), loss (Section 4.3) -- is
  folded.
"""

from repro.analysis.adaptiveness import (
    AdaptivenessPoint,
    adaptiveness,
    recovery_time,
    response_recovery,
    response_time,
)
from repro.analysis.bitrate import BitrateBand, aggregate_bitrate_series
from repro.analysis.fairness import fairness_ratio, harm
from repro.analysis.stats import confidence_interval_95, mean_std
from repro.analysis.reducers import BandAccumulator, Moments, QuantileReservoir

__all__ = [
    "AdaptivenessPoint",
    "BandAccumulator",
    "BitrateBand",
    "Moments",
    "QuantileReservoir",
    "adaptiveness",
    "aggregate_bitrate_series",
    "confidence_interval_95",
    "fairness_ratio",
    "harm",
    "mean_std",
    "recovery_time",
    "response_recovery",
    "response_time",
]
