"""Tests for campaign heartbeat emission: throttling, fields, scheduler wiring."""

import json

import pytest

from repro.obs.counters import CounterSet
from repro.store import (
    CampaignHeartbeat,
    CampaignScheduler,
    RunStore,
    last_heartbeat,
    load_heartbeat,
)

from tests.store.test_runstore import make_config, make_result


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store")


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestBeat:
    def test_record_fields(self, store):
        clock = FakeClock()
        hb = CampaignHeartbeat(
            store, "c1", total=4, interval_s=1.0,
            clock=clock, wall=lambda: 5000.0,
        )
        counters = CounterSet()
        counters.inc("store.hits", 2)
        counters.inc("sched.executed", 1)
        clock.now += 2.0
        assert hb.beat(3, counters)
        hb.close()
        (record,) = load_heartbeat(store.heartbeat_path("c1"))
        assert record["seq"] == 1
        assert record["ts"] == 5000.0
        assert record["elapsed_s"] == 2.0
        assert record["phase"] == "running"
        assert record["total"] == 4
        assert record["done"] == 3
        assert record["cache_hits"] == 2
        assert record["executed"] == 1
        assert record["cache_hit_rate"] == pytest.approx(2 / 3, abs=1e-4)
        assert record["runs_per_s"] == pytest.approx(1.5)
        assert record["eta_s"] == pytest.approx(1 / 1.5, abs=0.1)

    def test_throttles_within_interval(self, store):
        clock = FakeClock()
        hb = CampaignHeartbeat(store, "c1", total=10, interval_s=1.0, clock=clock)
        counters = CounterSet()
        assert hb.beat(1, counters)          # first beat always lands
        clock.now += 0.5
        assert not hb.beat(2, counters)      # inside the window: dropped
        clock.now += 0.6
        assert hb.beat(3, counters)          # window elapsed
        hb.close()
        records = load_heartbeat(store.heartbeat_path("c1"))
        assert [r["done"] for r in records] == [1, 3]

    def test_force_bypasses_throttle(self, store):
        clock = FakeClock()
        hb = CampaignHeartbeat(store, "c1", total=2, interval_s=60.0, clock=clock)
        counters = CounterSet()
        hb.beat(1, counters)
        assert hb.beat(2, counters, force=True)
        hb.close()
        assert len(load_heartbeat(store.heartbeat_path("c1"))) == 2

    def test_finish_writes_terminal_phase(self, store):
        hb = CampaignHeartbeat(store, "c1", total=2, interval_s=60.0)
        counters = CounterSet()
        hb.beat(1, counters)
        hb.finish(2, counters, phase="done")
        last = last_heartbeat(store.heartbeat_path("c1"))
        assert last["phase"] == "done"
        assert last["done"] == 2
        assert last["eta_s"] == 0.0

    def test_accepts_plain_dict_counters(self, store):
        hb = CampaignHeartbeat(store, "c1", total=1, interval_s=0.0)
        hb.beat(1, {"store.hits": 1})
        hb.close()
        assert last_heartbeat(store.heartbeat_path("c1"))["cache_hits"] == 1

    def test_negative_interval_rejected(self, store):
        with pytest.raises(ValueError):
            CampaignHeartbeat(store, "c1", total=1, interval_s=-1.0)


class TestLoad:
    def test_missing_file_is_empty(self, store):
        assert load_heartbeat(store.heartbeat_path("ghost")) == []
        assert last_heartbeat(store.heartbeat_path("ghost")) is None

    def test_torn_final_line_skipped(self, store):
        path = store.heartbeat_path("c1")
        path.parent.mkdir(parents=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"seq": 1, "done": 1}) + "\n")
            fh.write('{"seq": 2, "done"')  # crash mid-append
        records = load_heartbeat(path)
        assert [r["seq"] for r in records] == [1]


class TestSchedulerWiring:
    def _run(self, store, configs, **kwargs):
        kwargs.setdefault("heartbeat_interval", 0.0)
        return CampaignScheduler(
            store=store, run_fn=make_result, **kwargs
        ).run(configs)

    def test_campaign_leaves_done_heartbeat(self, store):
        configs = [make_config(seed=s) for s in range(3)]
        report = self._run(store, configs)
        last = last_heartbeat(store.heartbeat_path(report.campaign_id))
        assert last["phase"] == "done"
        assert last["done"] == last["total"] == 3
        assert last["executed"] == 3

    def test_cached_rerun_heartbeat_counts_hits(self, store):
        configs = [make_config(seed=s) for s in range(3)]
        self._run(store, configs)
        report = self._run(store, configs)
        last = last_heartbeat(store.heartbeat_path(report.campaign_id))
        assert last["phase"] == "done"
        assert last["cache_hits"] == 3
        assert last["executed"] == 0
        assert last["cache_hit_rate"] == 1.0

    def test_interval_none_disables_heartbeat(self, store):
        configs = [make_config(seed=0)]
        report = self._run(store, configs, heartbeat_interval=None)
        assert not store.heartbeat_path(report.campaign_id).exists()

    def test_no_store_no_heartbeat(self):
        report = CampaignScheduler(
            run_fn=make_result, heartbeat_interval=0.0
        ).run([make_config(seed=0)])
        assert report.executed == 1  # and no crash without a store

    def test_campaign_ids_lists_heartbeat_campaigns(self, store):
        configs = [make_config(seed=0)]
        report = self._run(store, configs)
        assert report.campaign_id in store.campaign_ids()

    def test_failed_campaign_marks_failed_phase(self, store):
        def boom(config):
            raise RuntimeError("persistent fault")

        from repro.store import CampaignError

        scheduler = CampaignScheduler(
            store=store, run_fn=boom, retries=0, heartbeat_interval=0.0
        )
        configs = [make_config(seed=0)]
        with pytest.raises(CampaignError):
            scheduler.run(configs)
        ids = store.campaign_ids()
        assert len(ids) == 1
        last = last_heartbeat(store.heartbeat_path(ids[0]))
        assert last["phase"] == "failed"

    def test_partial_failures_reach_done_phase(self, store):
        def boom(config):
            raise RuntimeError("fault")

        report = CampaignScheduler(
            store=store, run_fn=boom, partial=True, heartbeat_interval=0.0
        ).run([make_config(seed=0)])
        last = last_heartbeat(store.heartbeat_path(report.campaign_id))
        assert last["phase"] == "done"
        assert last["failed"] == 1

    def test_unexpected_exception_ends_the_stream_failed(self, store, monkeypatch):
        import errno

        import repro.store.scheduler as scheduler_module

        opened = []

        class Recorded(CampaignHeartbeat):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(scheduler_module, "CampaignHeartbeat", Recorded)
        put = store.put
        puts = []

        def full_disk(config, result):
            puts.append(config.seed)
            if len(puts) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return put(config, result)

        monkeypatch.setattr(store, "put", full_disk)
        configs = [make_config(seed=s) for s in range(3)]
        with pytest.raises(OSError):
            self._run(store, configs)
        (heartbeat,) = opened
        assert heartbeat._fh is None  # stream closed, not left dangling
        last = last_heartbeat(store.heartbeat_path(store.campaign_ids()[0]))
        assert last["phase"] == "failed"
        assert last["done"] == last["executed"] == 1
