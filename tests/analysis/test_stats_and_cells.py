"""Unit tests for statistics helpers and table cells."""

import math

import numpy as np
import pytest

from repro.analysis.stats import confidence_interval_95, format_mean_std, mean_std
from repro.experiments import SMOKE
from repro.experiments.results import RunResult
from repro.report import ConditionAggregate


class TestMeanStd:
    def test_simple(self):
        mean, std = mean_std([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert std == pytest.approx(1.0)

    def test_single_value(self):
        assert mean_std([5.0]) == (5.0, 0.0)

    def test_empty(self):
        mean, std = mean_std([])
        assert math.isnan(mean) and math.isnan(std)


class TestConfidenceInterval:
    def test_zero_variance(self):
        mean, half = confidence_interval_95([4.0, 4.0, 4.0])
        assert mean == 4.0
        assert half == 0.0

    def test_known_t_value(self):
        # n=15 (the paper's iteration count): t_{0.975,14} = 2.145
        values = np.arange(15, dtype=float)
        mean, half = confidence_interval_95(values)
        expected = 2.145 * values.std(ddof=1) / np.sqrt(15)
        assert half == pytest.approx(expected, rel=1e-3)

    def test_large_sample_uses_normal(self):
        values = np.arange(100, dtype=float)
        _, half = confidence_interval_95(values)
        expected = 1.96 * values.std(ddof=1) / 10
        assert half == pytest.approx(expected, rel=1e-3)

    def test_single_run(self):
        mean, half = confidence_interval_95([7.0])
        assert (mean, half) == (7.0, 0.0)

    def test_narrows_with_more_runs(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10, 2, 50)
        _, half5 = confidence_interval_95(values[:5])
        _, half50 = confidence_interval_95(values)
        assert half50 < half5


class TestFormatting:
    def test_paper_style(self):
        assert format_mean_std(27.54, 2.31) == "27.5 (2.3)"

    def test_nan_renders_dash(self):
        assert format_mean_std(float("nan"), 0.0) == "-"


def _solo_run(rtts=(), loss=0.0, fps=60.0) -> RunResult:
    """A solo run whose ping samples all fall in the solo window."""
    times = np.arange(SMOKE.bin_width / 2, SMOKE.end, SMOKE.bin_width)
    sent = np.full(len(rtts), SMOKE.solo_window[0])
    return RunResult(
        system="luna", cca=None, capacity_bps=25e6, queue_mult=2.0, seed=0,
        timeline_scale=SMOKE.scale, times=times,
        game_bps=np.zeros_like(times), iperf_bps=np.zeros_like(times),
        baseline_bps=0.0, fairness_game_bps=0.0, fairness_iperf_bps=0.0,
        solo_bps=0.0,
        rtt_samples=np.column_stack([sent, rtts]).reshape(-1, 2),
        game_loss_rate=loss, displayed_fps_contention=fps,
        displayed_fps_solo=fps, frames_displayed=0, frames_dropped=0,
    )


def _cell(*runs) -> ConditionAggregate:
    condition = ConditionAggregate(
        "luna", None, 25e6, 2.0, "droptail", SMOKE.scale, keep_bands=False
    )
    for run in runs:
        condition.add(run)
    return condition


class TestCells:
    """The paper's cells, folded by the report tier's ConditionAggregate."""

    def test_rtt_pools_samples_across_runs(self):
        # Pooled, not averaged per run: the one-sample run weighs a
        # quarter, not a half.
        condition = _cell(_solo_run([0.016]), _solo_run([0.020, 0.022, 0.024]))
        pooled = [0.016, 0.020, 0.022, 0.024]
        mean, std = condition.rtt_s.mean_std()
        assert condition.rtt_s.count == 4
        assert mean == pytest.approx(np.mean(pooled))
        assert std == pytest.approx(np.std(pooled, ddof=1))

    def test_rtt_skips_runs_without_samples(self):
        condition = _cell(_solo_run([]), _solo_run([0.02]))
        assert condition.runs == 2
        assert condition.rtt_s.mean_std() == (pytest.approx(0.02), 0.0)

    def test_rtt_of_runs_without_samples_is_empty(self):
        condition = _cell(_solo_run([]))
        mean, std = condition.rtt_s.mean_std()
        assert math.isnan(mean) and math.isnan(std)
        assert condition.to_dict()["rtt_ms"] is None

    def test_loss_rate_averages_runs(self):
        condition = _cell(_solo_run(loss=0.001), _solo_run(loss=0.003))
        mean, std = condition.loss_rate.mean_std()
        assert mean == pytest.approx(0.002)
        assert std == pytest.approx(np.std([0.001, 0.003], ddof=1))

    def test_frame_rate_averages_runs(self):
        condition = _cell(*(_solo_run(fps=fps) for fps in (58.0, 60.0, 59.0)))
        mean, std = condition.fps.mean_std()
        assert mean == pytest.approx(59.0)
        assert std == pytest.approx(1.0)
