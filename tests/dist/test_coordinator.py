"""Tests for the coordinator: dedupe, sharding, watch convergence."""

import pytest

from repro.dist import Coordinator, WatchTimeout, queue_root
from repro.dist.queue import ShardQueue
from repro.store import RunStore, last_heartbeat
from repro.store.fingerprint import config_fingerprint
from repro.store.scheduler import campaign_id

from tests.store.test_runstore import make_config, make_result


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store")


def configs_for(n, start=0):
    return [make_config(seed=start + i) for i in range(n)]


class TestEnqueue:
    def test_shards_misses_by_size(self, store):
        coordinator = Coordinator(store, shard_size=3)
        report = coordinator.enqueue(configs_for(7))
        assert report.created
        assert report.total == 7
        assert report.cached == 0
        assert report.enqueued == 7
        assert report.shards == 3  # 3 + 3 + 1
        queue = ShardQueue.open(queue_root(store, report.campaign_id))
        runs = queue.spec["shard_runs"]
        assert sorted(runs.values(), reverse=True) == [3, 3, 1]

    def test_store_hits_are_pre_done(self, store):
        cached = make_config(seed=0)
        store.put(cached, make_result(cached))
        report = Coordinator(store, shard_size=2).enqueue(configs_for(4))
        assert report.cached == 1
        assert report.enqueued == 3
        assert report.shards == 2

    def test_duplicate_configs_collapse(self, store):
        configs = configs_for(3) + configs_for(3)
        report = Coordinator(store).enqueue(configs)
        assert report.total == 3

    def test_campaign_id_matches_single_host(self, store):
        configs = configs_for(5)
        report = Coordinator(store).enqueue(configs)
        expected = campaign_id([config_fingerprint(c) for c in configs])
        assert report.campaign_id == expected

    def test_reenqueue_attaches_instead_of_clobbering(self, store):
        coordinator = Coordinator(store, shard_size=2)
        first = coordinator.enqueue(configs_for(4))
        queue = ShardQueue.open(queue_root(store, first.campaign_id))
        queue.claim("w1")  # in-progress state that a clobber would lose
        second = coordinator.enqueue(configs_for(4))
        assert not second.created
        assert second.campaign_id == first.campaign_id
        assert second.total == first.total
        status = ShardQueue.open(queue_root(store, first.campaign_id)).status()
        assert len(status["claimed"]) == 1  # claim survived

    def test_all_cached_creates_empty_queue(self, store):
        configs = configs_for(2)
        for config in configs:
            store.put(config, make_result(config))
        report = Coordinator(store).enqueue(configs)
        assert report.cached == 2
        assert report.shards == 0
        queue = ShardQueue.open(queue_root(store, report.campaign_id))
        assert queue.drained()

    def test_bad_shard_size_rejected(self, store):
        with pytest.raises(ValueError, match="shard_size"):
            Coordinator(store, shard_size=0)


class FakeClock:
    def __init__(self, step=0.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestWatch:
    def _coordinator(self, store, drainer=None):
        import time

        clock = FakeClock(step=0.01)

        def sleep(_):
            clock.now += 1.0
            if drainer is not None:
                drainer()

        # wall stays real: the coordinator checks lease deadlines written
        # by queues the tests open on the real clock (or one set back).
        return Coordinator(
            store, shard_size=1, heartbeat_interval=0.0,
            clock=clock, wall=time.time, sleep=sleep,
        )

    def test_watch_converges_and_heartbeats(self, store):
        state = {}

        def drain_one():
            queue = state["queue"]
            shard = queue.claim("w1")
            if shard is not None:
                queue.complete(shard.id, "w1", {"executed": 1, "runs": 1})

        coordinator = self._coordinator(store, drainer=drain_one)
        report = coordinator.enqueue(configs_for(3))
        state["queue"] = ShardQueue.open(queue_root(store, report.campaign_id))

        snapshots = []
        final = coordinator.watch(
            report.campaign_id, poll_s=1.0, progress=snapshots.append
        )
        assert final["done_runs"] == 3
        assert len(final["pending"]) == len(final["claimed"]) == 0
        assert len(snapshots) >= 2

        record = last_heartbeat(store.heartbeat_path(report.campaign_id))
        assert record["phase"] == "done"
        assert record["done"] == record["total"] == 3
        assert record["executed"] == 3

    def test_watch_counts_cached_runs_as_done(self, store):
        cached = make_config(seed=0)
        store.put(cached, make_result(cached))
        coordinator = self._coordinator(store)
        report = coordinator.enqueue([cached])
        final = coordinator.watch(report.campaign_id, poll_s=1.0)
        assert final["cached_runs"] == 1
        record = last_heartbeat(store.heartbeat_path(report.campaign_id))
        assert record["done"] == record["total"] == 1
        assert record["cache_hits"] == 1

    def test_watch_steals_expired_leases(self, store):
        import time

        coordinator = self._coordinator(store)
        report = coordinator.enqueue(configs_for(1))
        root = queue_root(store, report.campaign_id)
        queue = ShardQueue.open(root)
        # The dead worker claimed an hour ago on its own clock, so the
        # deadline in its lease sidecar (claim time + TTL) has passed.
        dead = ShardQueue.open(root, clock=lambda: time.time() - 3600.0)
        shard = dead.claim("dead-worker")

        stolen = {}

        def complete_if_stolen():
            # After the watch loop steals the lease, finish the shard so
            # the watch converges.
            reclaimed = queue.claim("w2")
            if reclaimed is not None:
                stolen["id"] = reclaimed.id
                queue.complete(reclaimed.id, "w2", {"executed": 1})

        coordinator._sleep = lambda _: complete_if_stolen()
        final = coordinator.watch(report.campaign_id, poll_s=1.0)
        assert stolen["id"] == shard.id
        assert final["done_runs"] == 1

    def test_watch_timeout_leaves_queue_intact(self, store):
        coordinator = self._coordinator(store)
        report = coordinator.enqueue(configs_for(2))
        with pytest.raises(WatchTimeout, match="did not drain"):
            coordinator.watch(report.campaign_id, poll_s=1.0, timeout_s=5.0)
        queue = ShardQueue.open(queue_root(store, report.campaign_id))
        assert len(queue.status()["pending"]) == 2
        record = last_heartbeat(store.heartbeat_path(report.campaign_id))
        assert record["phase"] == "interrupted"
