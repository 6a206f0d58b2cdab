"""Single-pass cross-run reducers for sweep aggregation.

The report tier (:mod:`repro.report`) streams one
:class:`~repro.experiments.results.RunResult` at a time through a set
of reducers, so an entire campaign -- arbitrarily many runs -- is
summarised in one pass with bounded memory:

- :class:`Moments` -- Welford's online mean/variance (plus min/max),
  mergeable across partial aggregations (Chan et al.'s parallel
  update), with the paper's "mean (std)" cell and the same Student-t
  95% CI the per-run analysis uses.
- :class:`QuantileReservoir` -- exact quantiles/CDF while the sample
  count fits the cap, deterministic (seeded) reservoir sampling beyond
  it, so RTT CDFs over 10^5 runs cannot exhaust memory.
- :class:`BandAccumulator` -- per-bin Welford over aligned time series,
  producing the Figure-2 mean +/- CI95 band without stacking every
  run's series in memory.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bitrate import BitrateBand
from repro.analysis.stats import _t_quantile

__all__ = ["Moments", "QuantileReservoir", "BandAccumulator"]


class Moments:
    """Streaming count/mean/variance/min/max (Welford), mergeable.

    ``add``/``add_many`` update in one pass; ``merge`` combines two
    partial aggregations exactly (the distributed-fleet story: each
    worker reduces locally, the coordinator merges).
    """

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add_many(self, values) -> None:
        """Batch update: reduce the batch, then merge (one numpy pass)."""
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        batch = Moments()
        batch.count = int(arr.size)
        batch.mean = float(arr.mean())
        batch._m2 = float(((arr - batch.mean) ** 2).sum())
        batch.min = float(arr.min())
        batch.max = float(arr.max())
        self.merge(batch)

    def merge(self, other: "Moments") -> "Moments":
        """Fold ``other`` into this aggregate (exact, order-free)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); NaN below two samples."""
        if self.count < 2:
            return float("nan")
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0 if self.count == 1 else float("nan")
        return float(np.sqrt(self._m2 / (self.count - 1)))

    def mean_std(self) -> tuple[float, float]:
        """The paper's "mean (std)" cell; (nan, nan) when nothing was
        observed, like :func:`repro.analysis.stats.mean_std`."""
        if self.count == 0:
            return float("nan"), float("nan")
        return self.mean, self.std

    def ci95_half(self) -> float:
        """95% CI half-width (Student-t), matching
        :func:`repro.analysis.stats.confidence_interval_95`."""
        if self.count == 0:
            return float("nan")
        if self.count == 1:
            return 0.0
        return _t_quantile(self.count - 1) * self.std / float(np.sqrt(self.count))

    def to_dict(self) -> dict | None:
        """JSON-ready summary; None when nothing was observed."""
        if self.count == 0:
            return None
        return {
            "n": self.count,
            "mean": self.mean,
            "std": self.std,
            "ci95": self.ci95_half(),
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Moments n={self.count} mean={self.mean:.4g} std={self.std:.4g}>"


class QuantileReservoir:
    """Quantiles/CDF over a stream: exact under the cap, reservoir above.

    Sampling uses Vitter's algorithm R with a seeded generator, so two
    aggregations over the same stream produce identical reports.
    """

    def __init__(self, cap: int = 8192, seed: int = 0):
        if cap <= 0:
            raise ValueError(f"cap must be positive, got {cap}")
        self.cap = cap
        self.seen = 0
        self._rng = np.random.default_rng(seed)
        self._sample = np.empty(cap, dtype=float)

    def add_many(self, values) -> None:
        arr = np.asarray(values, dtype=float).ravel()
        for value in arr:
            self.seen += 1
            if self.seen <= self.cap:
                self._sample[self.seen - 1] = value
            else:
                slot = int(self._rng.integers(0, self.seen))
                if slot < self.cap:
                    self._sample[slot] = value

    @property
    def exact(self) -> bool:
        return self.seen <= self.cap

    def values(self) -> np.ndarray:
        return self._sample[: min(self.seen, self.cap)]

    def quantile(self, q) -> float | np.ndarray:
        held = self.values()
        if held.size == 0:
            return float("nan") if np.isscalar(q) else np.full(len(q), np.nan)
        result = np.quantile(held, q)
        return float(result) if np.isscalar(q) else result

    def cdf(self, points: int = 25) -> list[list[float]]:
        """``[value, cumulative_fraction]`` pairs, ``points`` of them."""
        held = self.values()
        if held.size == 0:
            return []
        fractions = np.linspace(0.0, 1.0, points)
        values = np.quantile(held, fractions)
        return [[float(v), float(f)] for v, f in zip(values, fractions)]

    def to_dict(self) -> dict | None:
        if self.seen == 0:
            return None
        quantiles = self.quantile([0.05, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99])
        return {
            "samples": self.seen,
            "exact": self.exact,
            "p5": float(quantiles[0]),
            "p25": float(quantiles[1]),
            "p50": float(quantiles[2]),
            "p75": float(quantiles[3]),
            "p90": float(quantiles[4]),
            "p95": float(quantiles[5]),
            "p99": float(quantiles[6]),
        }


class BandAccumulator:
    """Per-bin Welford over aligned series: the Figure-2 band, streaming.

    The first series fixes the bin layout; later series must match it
    (same experiment timeline), exactly as
    :func:`~repro.analysis.bitrate.aggregate_bitrate_series` enforces.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.times: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._m2: np.ndarray | None = None

    def add(self, times, values) -> None:
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if self.times is None:
            self.times = times.copy()
            self._mean = np.zeros_like(times)
            self._m2 = np.zeros_like(times)
        elif len(times) != len(self.times) or not np.allclose(times, self.times):
            raise ValueError("runs have mismatched bin layouts")
        self.runs += 1
        delta = values - self._mean
        self._mean += delta / self.runs
        self._m2 += delta * (values - self._mean)

    def band(self) -> BitrateBand:
        if self.runs == 0:
            raise ValueError("no series accumulated")
        if self.runs > 1:
            std = np.sqrt(self._m2 / (self.runs - 1))
            ci = _t_quantile(self.runs - 1) * std / np.sqrt(self.runs)
        else:
            ci = np.zeros_like(self._mean)
        return BitrateBand(
            times=self.times, mean=self._mean.copy(), ci_half=ci, runs=self.runs
        )
