"""End-to-end: real (smoke-scale) simulations through store and campaign."""

import numpy as np

from repro.experiments import Campaign, RunConfig, SMOKE, run_single
from repro.report import aggregate_results
from repro.store import RunStore


def _configs():
    return [
        RunConfig("luna", 25e6, 2.0, cca="cubic", seed=seed, timeline=SMOKE)
        for seed in (1, 2)
    ]


class TestCampaignWithStore:
    def test_identical_rerun_executes_zero_simulations(self, tmp_path):
        store = RunStore(tmp_path / "store")
        configs = _configs()

        first = Campaign(store=store).run(configs)
        assert first.report.executed == 2
        assert first.report.cache_hits == 0

        second = Campaign(store=store).run(configs)
        assert second.report.executed == 0
        assert second.report.cache_hits == 2

        # Cached results aggregate identically to the fresh ones.
        fresh = aggregate_results(first.report.results).get("luna", "cubic", 25e6, 2.0)
        cached = aggregate_results(second.report.results).get("luna", "cubic", 25e6, 2.0)
        assert cached.to_dict() == fresh.to_dict()
        band_fresh, band_cached = fresh.game_band.band(), cached.game_band.band()
        assert np.allclose(band_cached.mean, band_fresh.mean)

    def test_cached_campaign_reports_progress_for_every_run(self, tmp_path):
        store = RunStore(tmp_path / "store")
        configs = _configs()
        Campaign(store=store).run(configs)

        calls = []
        Campaign(
            store=store,
            progress=lambda done, total, label, wall: calls.append((done, total)),
        ).run(configs)
        assert calls == [(1, 2), (2, 2)]


class TestRunSingleWithStore:
    def test_second_call_is_served_from_store(self, tmp_path):
        store = RunStore(tmp_path / "store")
        config = RunConfig("stadia", 25e6, 2.0, cca="bbr", seed=4,
                           timeline=SMOKE)
        fresh = run_single(config, store=store)
        assert len(store) == 1
        cached = run_single(config, store=store)
        assert np.allclose(cached.game_bps, fresh.game_bps)
        assert np.allclose(cached.rtt_samples, fresh.rtt_samples)
        assert cached.wall_time_s == fresh.wall_time_s  # not re-simulated
