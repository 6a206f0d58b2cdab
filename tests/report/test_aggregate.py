"""Tests for streaming sweep aggregation and the underlying reducers."""

import json
import shutil

import numpy as np
import pytest

from repro.analysis.bitrate import aggregate_bitrate_series
from repro.analysis.reducers import BandAccumulator, Moments, QuantileReservoir
from repro.analysis.stats import confidence_interval_95
from repro.experiments import SMOKE, Campaign, campaign as campaign_module
from repro.report import aggregate_results, aggregate_store, formatter_names, get_formatter
from repro.store import RunStore

from tests.report.conftest import make_config, make_result


class TestMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        values = rng.normal(10.0, 3.0, 500)
        m = Moments()
        m.add_many(values)
        assert m.count == 500
        assert m.mean == pytest.approx(values.mean())
        assert m.std == pytest.approx(values.std(ddof=1))
        assert m.min == values.min()
        assert m.max == values.max()

    def test_incremental_equals_batch(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        one = Moments()
        for v in values:
            one.add(v)
        other = Moments()
        other.add_many(values)
        assert one.mean == pytest.approx(other.mean)
        assert one.std == pytest.approx(other.std)

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(2)
        left, right = rng.normal(5, 2, 301), rng.normal(7, 1, 199)
        merged = Moments()
        merged.add_many(left)
        merged.merge(self._of(right))
        combined = Moments()
        combined.add_many(np.concatenate([left, right]))
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean)
        assert merged.std == pytest.approx(combined.std)
        assert merged.min == combined.min
        assert merged.max == combined.max

    @staticmethod
    def _of(values):
        m = Moments()
        m.add_many(values)
        return m

    def test_merge_into_empty(self):
        m = Moments()
        m.merge(self._of([1.0, 2.0, 3.0]))
        assert m.count == 3
        assert m.mean == pytest.approx(2.0)

    def test_ci95_matches_stats_helper(self):
        values = [12.0, 15.0, 11.0, 14.0, 13.0]
        m = self._of(values)
        _, expected_half = confidence_interval_95(values)
        assert m.ci95_half() == pytest.approx(expected_half)

    def test_empty_to_dict_is_none(self):
        assert Moments().to_dict() is None

    def test_single_sample(self):
        m = self._of([4.2])
        assert m.std == 0.0
        assert m.ci95_half() == 0.0
        assert m.to_dict()["mean"] == pytest.approx(4.2)


class TestQuantileReservoir:
    def test_exact_under_cap(self):
        q = QuantileReservoir(cap=100)
        q.add_many(range(50))
        assert q.exact
        assert q.quantile(0.5) == pytest.approx(24.5)

    def test_deterministic_beyond_cap(self):
        a, b = QuantileReservoir(cap=64, seed=5), QuantileReservoir(cap=64, seed=5)
        stream = np.arange(1000.0)
        a.add_many(stream)
        b.add_many(stream)
        assert not a.exact
        assert np.array_equal(a.values(), b.values())

    def test_reservoir_approximates_distribution(self):
        q = QuantileReservoir(cap=2048, seed=0)
        rng = np.random.default_rng(3)
        q.add_many(rng.uniform(0, 100, 50_000))
        assert q.quantile(0.5) == pytest.approx(50.0, abs=5.0)

    def test_cdf_is_monotone(self):
        q = QuantileReservoir()
        q.add_many(np.random.default_rng(4).normal(0, 1, 500))
        cdf = q.cdf()
        values = [v for v, _ in cdf]
        fractions = [f for _, f in cdf]
        assert values == sorted(values)
        assert fractions[0] == 0.0 and fractions[-1] == 1.0

    def test_empty(self):
        q = QuantileReservoir()
        assert q.to_dict() is None
        assert np.isnan(q.quantile(0.5))
        assert q.cdf() == []

    def test_bad_cap_raises(self):
        with pytest.raises(ValueError):
            QuantileReservoir(cap=0)


class TestBandAccumulator:
    def test_matches_batch_aggregation(self):
        rng = np.random.default_rng(6)
        times = np.arange(0.25, 30.0, 0.5)
        runs = [rng.uniform(5e6, 20e6, times.size) for _ in range(5)]
        acc = BandAccumulator()
        for values in runs:
            acc.add(times, values)
        streamed = acc.band()
        batch = aggregate_bitrate_series([(times, v) for v in runs])
        assert np.allclose(streamed.mean, batch.mean)
        assert np.allclose(streamed.ci_half, batch.ci_half)
        assert streamed.runs == batch.runs == 5

    def test_mismatched_bins_raise(self):
        acc = BandAccumulator()
        acc.add([0.25, 0.75], [1.0, 2.0])
        with pytest.raises(ValueError, match="mismatched bin layouts"):
            acc.add([0.25, 0.75, 1.25], [1.0, 2.0, 3.0])

    def test_empty_band_raises(self):
        with pytest.raises(ValueError, match="no series"):
            BandAccumulator().band()


class TestAggregateStore:
    def test_groups_by_condition(self, seeded_store):
        report = aggregate_store(seeded_store)
        assert report.total_runs == 6
        assert len(report.conditions) == 3
        for condition in report.conditions.values():
            assert condition.runs == 2

    def test_where_filters(self, seeded_store):
        report = aggregate_store(seeded_store, where={"cca": "bbr"})
        assert report.total_runs == 2
        assert len(report.conditions) == 1
        (condition,) = report.conditions.values()
        assert condition.cca == "bbr"

    def test_solo_condition_has_no_contention_metrics(self, seeded_store):
        report = aggregate_store(seeded_store, where={"cca": "solo"})
        (condition,) = report.conditions.values()
        summary = condition.to_dict()
        assert "fairness" not in summary
        assert summary["baseline_bps"]["mean"] == pytest.approx(20e6)

    def test_fairness_matches_per_run_ratio(self, seeded_store):
        report = aggregate_store(seeded_store, where={"cca": "cubic"})
        (condition,) = report.conditions.values()
        # conftest: game 12e6, iperf 8e6, capacity 25e6 in the window.
        assert condition.fairness.mean == pytest.approx((12e6 - 8e6) / 25e6)

    def test_rtt_pools_window_samples(self, seeded_store):
        report = aggregate_store(seeded_store, where={"cca": "cubic"})
        (condition,) = report.conditions.values()
        lo, hi = SMOKE.contention_window
        pooled = np.concatenate([
            make_result(make_config(cca="cubic", seed=s)).rtts_in(lo, hi)
            for s in (0, 1)
        ])
        assert condition.rtt_s.count == pooled.size
        assert condition.rtt_s.mean == pytest.approx(pooled.mean())

    def test_response_recovery_present_for_contended(self, seeded_store):
        report = aggregate_store(seeded_store, where={"cca": "cubic"})
        (condition,) = report.conditions.values()
        summary = condition.to_dict()
        assert summary["response_s"]["n"] == 2
        assert summary["recovery_s"]["n"] == 2
        # The synthetic runs settle fast: well inside the windows.
        assert 0 <= summary["response_s"]["mean"] < SMOKE.iperf_stop

    def test_adaptiveness_points_cover_contended_conditions(self, seeded_store):
        report = aggregate_store(seeded_store)
        points = report.adaptiveness_points()
        assert {p.cca for p in points} == {"cubic", "bbr"}
        for p in points:
            assert 0.0 <= p.adaptiveness <= 1.0

    def test_missing_object_is_skipped_not_fatal(self, seeded_store):
        entry = seeded_store.ls()[0]
        shutil.rmtree(seeded_store._object_dir(entry["fp"]))
        # Rebuild: the cached index predates the deletion.
        report = aggregate_store(seeded_store)
        assert report.total_runs == 5
        assert report.skipped == [entry["fp"]]

    def test_report_dict_is_json_serialisable(self, seeded_store):
        payload = aggregate_store(seeded_store).to_dict()
        parsed = json.loads(json.dumps(payload))
        assert parsed["runs"] == 6
        assert len(parsed["conditions"]) == 3
        assert len(parsed["adaptiveness"]) == 2

    def test_keep_bands_false_skips_band_arrays(self, seeded_store):
        report = aggregate_store(seeded_store, keep_bands=False)
        for condition in report.conditions.values():
            assert condition.game_band.runs == 0

    def test_band_equals_campaign_aggregation(self, seeded_store):
        report = aggregate_store(seeded_store, where={"cca": "bbr"})
        (condition,) = report.conditions.values()
        results = [
            make_result(make_config(cca="bbr", seed=s)) for s in (0, 1)
        ]
        batch = aggregate_bitrate_series([(r.times, r.game_bps) for r in results])
        streamed = condition.game_band.band()
        assert np.allclose(streamed.mean, batch.mean)
        assert np.allclose(streamed.ci_half, batch.ci_half)

    def test_empty_store(self, tmp_path):
        from repro.store import RunStore

        report = aggregate_store(RunStore(tmp_path / "empty"))
        assert report.total_runs == 0
        assert report.conditions == {}
        assert report.to_dict()["adaptiveness"] == []


class TestAggregateLive:
    """aggregate_results() over a campaign == aggregate_store over its store."""

    @pytest.fixture
    def campaign(self, tmp_path, monkeypatch):
        """24 synthetic runs through a real Campaign into a fresh store.

        The grid is listed seed-outermost and system-innermost, so the
        completion order is not the index's run order.
        """
        monkeypatch.setattr(campaign_module, "run_single", make_result)
        configs = [
            make_config(seed=seed, system=system, cca=cca, queue_mult=queue)
            for seed in (0, 1)
            for cca in (None, "cubic", "bbr")
            for queue in (0.5, 2.0)
            for system in ("stadia", "luna")
        ]
        store = RunStore(tmp_path / "store")
        return Campaign(store=store).run(configs)

    def test_renders_byte_identical_to_the_store_it_wrote(self, campaign):
        results = campaign.report.results
        assert len(results) == 24
        axes = [(r.system, r.cca or "", r.queue_mult, r.seed) for r in results]
        assert axes != sorted(axes)  # completion order is not index order

        store = campaign.store
        live = aggregate_results(results)
        live.store_root = str(store.root)  # the header names the store
        stored = aggregate_store(store)
        for name in formatter_names():
            formatter = get_formatter(name)
            assert formatter(live) == formatter(stored), name

    def test_get_names_exactly_one_condition(self, campaign):
        results = campaign.report.results
        report = aggregate_results(results)
        assert report.get("luna", "bbr", 25e6, 0.5).runs == 2
        with pytest.raises(KeyError, match="0 conditions"):
            report.get("luna", "reno", 25e6, 0.5)
        # The same four axes under another qdisc is a second condition.
        twin = make_result(make_config(system="luna", cca="bbr", queue_mult=0.5))
        twin.qdisc = "fq_codel"
        with pytest.raises(KeyError, match="2 conditions"):
            aggregate_results(results + [twin]).get("luna", "bbr", 25e6, 0.5)
