"""Integration tests: single runs, result persistence, campaigns."""

import gc

import numpy as np
import pytest

from repro.experiments import Campaign, RunConfig, SMOKE, run_single
from repro.experiments.results import RunResult
from repro.report import aggregate_results
from repro.sim.engine import Simulator


@pytest.fixture(scope="module")
def competing_result():
    cfg = RunConfig("stadia", 25e6, 2.0, cca="cubic", seed=7, timeline=SMOKE)
    return run_single(cfg)


@pytest.fixture(scope="module")
def solo_result():
    cfg = RunConfig("luna", 25e6, 2.0, seed=7, timeline=SMOKE)
    return run_single(cfg)


class TestRunSingle:
    def test_series_cover_whole_run(self, competing_result):
        r = competing_result
        assert r.times[0] > 0
        assert r.times[-1] < SMOKE.end
        assert len(r.times) == len(r.game_bps) == len(r.iperf_bps)

    def test_iperf_confined_to_schedule(self, competing_result):
        r = competing_result
        # exclude the bin that straddles the start instant
        before = r.times < SMOKE.iperf_start - SMOKE.bin_width
        assert r.iperf_bps[before].max() == 0.0
        during = (r.times > SMOKE.iperf_start + 2) & (r.times < SMOKE.iperf_stop)
        assert r.iperf_bps[during].mean() > 1e6

    def test_solo_run_has_zero_iperf(self, solo_result):
        assert solo_result.iperf_bps.max() == 0.0

    def test_game_responds_and_recovers(self, competing_result):
        r = competing_result
        during = r.game_mean_bps(*SMOKE.adjusted_window)
        assert during < 0.9 * r.baseline_bps
        tail = r.game_mean_bps(SMOKE.end - 5, SMOKE.end)
        assert tail > during

    def test_rtt_samples_recorded(self, competing_result):
        assert competing_result.rtt_samples.shape[1] == 2
        assert len(competing_result.rtt_samples) > 100

    def test_summary_fields_consistent(self, competing_result):
        r = competing_result
        assert r.fairness_game_bps == pytest.approx(
            r.game_mean_bps(*SMOKE.fairness_window), rel=0.02
        )
        assert 0 <= r.game_loss_rate < 0.2
        assert 0 < r.displayed_fps_contention <= 62

    def test_json_roundtrip(self, competing_result, tmp_path):
        path = tmp_path / "run.json"
        competing_result.save(path)
        loaded = RunResult.load(path)
        assert loaded.system == competing_result.system
        assert np.allclose(loaded.game_bps, competing_result.game_bps)
        assert np.allclose(loaded.rtt_samples, competing_result.rtt_samples)

    def test_save_is_atomic(self, competing_result, tmp_path):
        # The JSON is published by rename: no temp litter on success,
        # and a failing save leaves the previous file untouched.
        path = tmp_path / "run.json"
        competing_result.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
        before = path.read_text()

        broken = RunResult.load(path)
        broken.profile = object()  # json.dumps will raise
        with pytest.raises(TypeError):
            broken.save(path)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


    def test_finished_run_leaves_no_testbed_behind(self):
        # The testbed's simulator, events and bound methods form one
        # cycle; with the collector off (as it is for the whole of the
        # next run) only an explicit free reclaims them.
        cfg = RunConfig("luna", 25e6, 2.0, cca="cubic", seed=3, timeline=SMOKE)
        gc.collect()  # earlier tests' garbage is not this run's
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            run_single(cfg)
            live = [
                obj for obj in gc.get_objects() if isinstance(obj, Simulator)
            ]
        finally:
            if was_enabled:
                gc.enable()
        assert live == []


class TestCampaign:
    def test_groups_by_condition(self):
        configs = [
            RunConfig("luna", 25e6, 2.0, cca="cubic", seed=s, timeline=SMOKE)
            for s in (1, 2)
        ] + [RunConfig("luna", 25e6, 7.0, cca="cubic", seed=1, timeline=SMOKE)]
        report = aggregate_results(Campaign().run(configs).report.results)
        assert len(report.conditions) == 2
        condition = report.get("luna", "cubic", 25e6, 2.0)
        assert condition.runs == 2

    def test_band_and_cells(self):
        configs = [
            RunConfig("geforce", 25e6, 2.0, cca="cubic", seed=s, timeline=SMOKE)
            for s in (1, 2, 3)
        ]
        report = aggregate_results(Campaign().run(configs).report.results)
        condition = report.get("geforce", "cubic", 25e6, 2.0)
        band = condition.game_band.band()
        assert band.runs == 3
        assert band.mean.max() > 5e6
        assert -1.0 <= condition.fairness.mean <= 1.0
        rtt_mean, rtt_std = condition.rtt_s.mean_std()
        assert 0.016 < rtt_mean < 0.15
        assert condition.response_s.count == condition.recovery_s.count == 3
        assert 0 <= condition.response_s.mean <= SMOKE.iperf_stop - SMOKE.iperf_start
        assert 0 <= condition.recovery_s.mean <= SMOKE.end - SMOKE.iperf_stop

    def test_missing_condition_raises(self):
        with pytest.raises(KeyError):
            aggregate_results([]).get("luna", "cubic", 25e6, 2.0)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            Campaign(workers=0)

    def test_label_includes_qdisc(self):
        cfg = RunConfig("stadia", 25e6, 2.0, cca="cubic", seed=1,
                        timeline=SMOKE, qdisc="codel")
        campaign = Campaign().run([cfg])
        (label, _), = campaign.wall_times
        assert label == "stadia/cubic/25mbps/q2/codel/s1"


class TestParallelCampaign:
    def test_workers2_matches_serial_and_reports_progress(self):
        configs = [
            RunConfig("luna", 25e6, 2.0, cca="cubic", seed=s, timeline=SMOKE)
            for s in (1, 2)
        ] + [
            RunConfig("luna", 25e6, 7.0, cca="cubic", seed=1, timeline=SMOKE)
        ]
        serial = Campaign(workers=1).run(configs)

        calls = []
        parallel = Campaign(
            workers=2,
            progress=lambda done, total, label, wall: calls.append(
                (done, total, label)
            ),
        ).run(configs)

        # The progress callback fired once per run, with done counting
        # up monotonically to the total.
        assert [(done, total) for done, total, _ in calls] == \
            [(1, 3), (2, 3), (3, 3)]
        assert len({label for _, _, label in calls}) == 3

        # The measurements are identical to the serial path (completion
        # order may differ, so compare per run) ...
        by_run = {
            (r.queue_mult, r.seed): r for r in parallel.report.results
        }
        assert len(by_run) == len(serial.report.results) == 3
        for expected in serial.report.results:
            actual = by_run[(expected.queue_mult, expected.seed)]
            assert np.allclose(actual.game_bps, expected.game_bps)
            assert actual.game_loss_rate == expected.game_loss_rate
        # ... and so is every per-condition number folded from them.
        serial_report = aggregate_results(serial.report.results).to_dict()
        assert aggregate_results(parallel.report.results).to_dict() == serial_report
