"""Response time, recovery time, and adaptiveness (Section 4.2, Figure 4).

The paper defines, per run:

- *original bitrate*: the mean over the 60 s before the TCP flow
  arrives (125-185 s).
- *adjusted bitrate*: the mean over the last minute of contention
  (310-370 s), with its standard deviation.
- *response time* C: seconds after the TCP arrival until the bitrate is
  within one standard deviation of the adjusted bitrate.
- *recovery time* E: seconds after the TCP departure until the bitrate
  is within one standard deviation of the original bitrate.
- *adaptiveness*: ``A = (1 - C/Cmax)/2 + (1 - E/Emax)/2`` where Cmax and
  Emax normalise across everything being compared; 1 is best.

Operationally we declare the bitrate "within one standard deviation"
when a short smoothing window of consecutive bins sits inside the band,
which keeps single-bin noise from producing spuriously fast times --
the same effect as the paper's averaging.  A run that never settles
gets the full window length (the paper: "Stadia never responds or
recovers" in some conditions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import mean_std

__all__ = [
    "response_time",
    "recovery_time",
    "response_recovery",
    "adaptiveness",
    "AdaptivenessPoint",
]

#: Consecutive bins that must sit inside the +/- one-std band.
_SETTLE_BINS = 4


def _time_to_settle(
    times: np.ndarray,
    rates: np.ndarray,
    start: float,
    end: float,
    target_mean: float,
    target_std: float,
) -> float:
    """Seconds from ``start`` until the series settles into the band.

    Returns ``end - start`` (the maximum) when it never settles.
    """
    if end <= start:
        raise ValueError("end must be after start")
    band = max(target_std, 0.02 * max(target_mean, 1.0))  # floor: 2% of mean
    mask = (times >= start) & (times < end)
    window_times = times[mask]
    window_rates = rates[mask]
    if len(window_rates) < _SETTLE_BINS:
        return end - start
    inside = np.abs(window_rates - target_mean) <= band
    run = 0
    for i, ok in enumerate(inside):
        run = run + 1 if ok else 0
        if run >= _SETTLE_BINS:
            settle_at = window_times[i - _SETTLE_BINS + 1]
            return max(0.0, float(settle_at - start))
    return end - start


def response_time(
    times: np.ndarray,
    rates: np.ndarray,
    arrival: float,
    departure: float,
    adjusted_mean: float,
    adjusted_std: float,
) -> float:
    """Seconds the game system takes to contract to the adjusted bitrate."""
    return _time_to_settle(times, rates, arrival, departure, adjusted_mean, adjusted_std)


def recovery_time(
    times: np.ndarray,
    rates: np.ndarray,
    departure: float,
    end: float,
    original_mean: float,
    original_std: float,
) -> float:
    """Seconds the game system takes to expand back to the original bitrate."""
    return _time_to_settle(times, rates, departure, end, original_mean, original_std)


def response_recovery(
    times: np.ndarray, rates: np.ndarray, timeline
) -> tuple[float, float]:
    """One run's response and recovery times on ``timeline``'s windows.

    The adjusted and original bitrates (mean and std) are taken from the
    run's own series over the timeline's adjusted and baseline windows.
    """
    adj_lo, adj_hi = timeline.adjusted_window
    mask = (times >= adj_lo) & (times < adj_hi)
    adjusted_mean, adjusted_std = mean_std(rates[mask])
    base_lo, base_hi = timeline.baseline_window
    base_mask = (times >= base_lo) & (times < base_hi)
    original_mean, original_std = mean_std(rates[base_mask])
    response = response_time(
        times, rates, timeline.iperf_start, timeline.iperf_stop,
        adjusted_mean, adjusted_std,
    )
    recovery = recovery_time(
        times, rates, timeline.iperf_stop, timeline.end,
        original_mean, original_std,
    )
    return response, recovery


def adaptiveness(
    response: float, recovery: float, response_max: float, recovery_max: float
) -> float:
    """The paper's combined measure A in [0, 1]; higher is more adaptive."""
    if response_max <= 0 or recovery_max <= 0:
        raise ValueError("normalisation maxima must be positive")
    c = min(response / response_max, 1.0)
    e = min(recovery / recovery_max, 1.0)
    return 0.5 * (1.0 - c) + 0.5 * (1.0 - e)


@dataclass(frozen=True)
class AdaptivenessPoint:
    """One point of Figure 4: a (system, condition) pair."""

    system: str
    cca: str
    capacity_bps: float
    queue_mult: float
    fairness: float
    response: float
    recovery: float
    adaptiveness: float
