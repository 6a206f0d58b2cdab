"""Unit tests for the fault-tolerant campaign scheduler.

Fast: the simulator is replaced by fake run functions.  Pool-mode
tests use module-level functions (picklable for ProcessPoolExecutor).
"""

import time

import pytest

from repro.experiments import RunConfig, SMOKE
from repro.obs.trace import MemorySink, Tracer
from repro.store import CampaignError, CampaignScheduler, RunStore
from repro.store.scheduler import campaign_id

from tests.store.test_runstore import (
    DAMAGED, damage_object, make_config, make_result,
)


def _configs(n):
    return [make_config(seed=seed) for seed in range(n)]


# -- module-level run functions (pool mode needs them picklable) ---------
def _run_ok(config):
    return make_result(config)


def _run_staggered(config):
    # Earlier seeds take longer: completion order inverts submission
    # order, which pool.map-style collection would have hidden.
    time.sleep(0.6 if config.seed == 0 else 0.0)
    return make_result(config)


def _boom(config):
    raise RuntimeError(f"transient fault for seed {config.seed}")


def _fail_seed1(config):
    if config.seed == 1:
        raise RuntimeError("bad seed")
    return make_result(config)


def _record_checkpoint_saves(store, monkeypatch) -> list:
    """Route ``store.save_checkpoint`` through a list of campaign ids."""
    saves = []
    save = store.save_checkpoint
    monkeypatch.setattr(
        store, "save_checkpoint",
        lambda cid, state: (saves.append(cid), save(cid, state)),
    )
    return saves


class TestCacheFirst:
    def test_populated_store_executes_nothing(self, tmp_path):
        store = RunStore(tmp_path)
        configs = _configs(3)
        for config in configs:
            store.put(config, make_result(config))

        def must_not_run(config):
            raise AssertionError("cache hit expected, run executed")

        report = CampaignScheduler(store=store, run_fn=must_not_run).run(configs)
        assert report.cache_hits == 3
        assert report.executed == 0
        assert len(report.results) == 3

    def test_only_misses_execute(self, tmp_path):
        store = RunStore(tmp_path)
        configs = _configs(3)
        store.put(configs[1], make_result(configs[1]))
        executed = []

        def runner(config):
            executed.append(config.seed)
            return make_result(config)

        report = CampaignScheduler(store=store, run_fn=runner).run(configs)
        assert report.cache_hits == 1
        assert report.executed == 2
        assert sorted(executed) == [0, 2]
        # ... and the fresh results were persisted for next time.
        assert all(config in store for config in configs)

    @pytest.mark.parametrize("how", DAMAGED)
    def test_torn_object_reruns(self, tmp_path, how):
        store = RunStore(tmp_path)
        configs = _configs(2)
        for config in configs:
            store.put(config, make_result(config))
        damage_object(store, store.fingerprint(configs[0]), how)
        executed = []

        def runner(config):
            executed.append(config.seed)
            return make_result(config)

        report = CampaignScheduler(store=store, run_fn=runner).run(configs)
        assert executed == [0]
        assert report.cache_hits == 1
        assert store.get(configs[0]) is not None  # healed by the re-run

    def test_no_cache_forces_execution(self, tmp_path):
        store = RunStore(tmp_path)
        configs = _configs(2)
        for config in configs:
            store.put(config, make_result(config))
        calls = []

        def runner(config):
            calls.append(config.seed)
            return make_result(config)

        report = CampaignScheduler(
            store=store, use_cache=False, run_fn=runner
        ).run(configs)
        assert report.cache_hits == 0
        assert report.executed == 2
        assert len(calls) == 2


class TestRetries:
    def test_flaky_run_retried_with_backoff(self):
        attempts = []
        delays = []

        def flaky(config):
            attempts.append(config.seed)
            if len(attempts) < 3:
                raise RuntimeError("flap")
            return make_result(config)

        # The loop sleeps the time left until the retry is due; a frozen
        # clock makes that the backoff delay exactly.
        report = CampaignScheduler(
            retries=3, backoff_base=0.5, run_fn=flaky, sleep=delays.append,
            clock=lambda: 0.0,
        ).run(_configs(1))
        assert report.executed == 1
        assert report.retries == 2
        assert delays == [0.5, 1.0]  # exponential

    def test_backoff_is_capped(self):
        delays = []
        with pytest.raises(CampaignError):
            CampaignScheduler(
                retries=4, backoff_base=1.0, backoff_cap=2.5,
                run_fn=_boom, sleep=delays.append, clock=lambda: 0.0,
            ).run(_configs(1))
        assert delays == [1.0, 2.0, 2.5, 2.5]

    def test_persistent_failure_raises_by_default(self):
        with pytest.raises(CampaignError) as excinfo:
            CampaignScheduler(retries=1, run_fn=_boom, sleep=lambda _: None).run(
                _configs(1)
            )
        assert "after 2 attempt(s)" in str(excinfo.value)
        assert "transient fault" in str(excinfo.value)

    def test_backoff_does_not_hold_up_the_next_ready_run(self):
        # workers=1: seed 0 fails its first attempt and backs off 5 s.
        # Seed 1 runs and is delivered while seed 0 waits, and the loop
        # sleeps only once nothing is ready.
        now = [0.0]
        sleeps = []
        seen = []

        def flaky_seed0(config, attempt=1):
            if config.seed == 0 and attempt == 1:
                raise RuntimeError("flap")
            return make_result(config)

        def sleep(delay):
            sleeps.append((delay, list(seen)))
            now[0] += delay

        report = CampaignScheduler(
            retries=1, backoff_base=5.0, run_fn=flaky_seed0,
            sleep=sleep, clock=lambda: now[0],
            on_result=lambda result, *_: seen.append(result.seed),
        ).run(_configs(2))
        assert report.executed == 2
        assert seen == [1, 0]  # A fails, B runs, A retries
        assert sleeps == [(5.0, [1])]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_partial_mode_records_and_continues(self, workers):
        report = CampaignScheduler(
            workers=workers, partial=True, retries=1, run_fn=_fail_seed1,
            sleep=lambda _: None,
        ).run(_configs(3))
        assert report.executed == 2
        (failure,) = report.failures
        assert failure.config.seed == 1
        assert failure.attempts == 2
        assert "bad seed" in failure.error


class TestCheckpointResume:
    def test_interrupted_campaign_resumes_incomplete_only(self, tmp_path):
        store = RunStore(tmp_path)
        configs = _configs(3)

        def dies_on_last(config):
            if config.seed == 2:
                raise RuntimeError("process crash stand-in")
            return make_result(config)

        with pytest.raises(CampaignError):
            CampaignScheduler(store=store, run_fn=dies_on_last).run(configs)
        # The two completed runs survived the crash...
        assert configs[0] in store and configs[1] in store

        executed = []

        def healthy(config):
            executed.append(config.seed)
            return make_result(config)

        report = CampaignScheduler(store=store, run_fn=healthy).run(configs)
        # ... so the retry only executes the one incomplete run.
        assert report.cache_hits == 2
        assert executed == [2]

    def test_checkpoint_records_completions_and_failures(self, tmp_path):
        store = RunStore(tmp_path)
        configs = _configs(2)

        def sometimes(config):
            if config.seed == 1:
                raise RuntimeError("permanent")
            return make_result(config)

        report = CampaignScheduler(
            store=store, partial=True, run_fn=sometimes
        ).run(configs)
        state = store.load_checkpoint(report.campaign_id)
        assert "completed" not in state  # the store is that record
        assert configs[0] in store and configs[1] not in store
        assert len(state["failed"]) == 1
        (info,) = state["failed"].values()
        assert "permanent" in info["error"]

    def test_clean_campaign_writes_checkpoint_once(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        saves = _record_checkpoint_saves(store, monkeypatch)
        report = CampaignScheduler(store=store, run_fn=_run_ok).run(_configs(20))
        assert report.executed == 20
        assert saves == [report.campaign_id]  # not one per run
        assert store.campaign_ids() == [report.campaign_id]
        # A fully cached re-run is one write as well.
        CampaignScheduler(store=store, run_fn=_run_ok).run(_configs(20))
        assert len(saves) == 2

    def test_resume_skips_recorded_failures(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        saves = _record_checkpoint_saves(store, monkeypatch)
        configs = _configs(2)

        def sometimes(config):
            if config.seed == 1:
                raise RuntimeError("permanent")
            return make_result(config)

        CampaignScheduler(store=store, partial=True, run_fn=sometimes).run(configs)
        assert len(saves) == 2  # campaign start + the one failure

        executed = []

        def would_succeed(config):
            executed.append(config.seed)
            return make_result(config)

        report = CampaignScheduler(
            store=store, partial=True, resume=True, run_fn=would_succeed,
        ).run(configs)
        assert executed == []  # nothing re-executed
        assert report.cache_hits == 1
        (failure,) = report.failures
        assert failure.config.seed == 1
        # Without resume, the recorded failure is retried (and clears).
        report = CampaignScheduler(
            store=store, partial=True, run_fn=would_succeed
        ).run(configs)
        assert executed == [1]
        assert report.failures == []
        state = store.load_checkpoint(report.campaign_id)
        assert state["failed"] == {}

    def test_campaign_id_is_order_independent(self):
        fps = ["b" * 64, "a" * 64]
        assert campaign_id(fps) == campaign_id(list(reversed(fps)))


class TestPoolDispatch:
    def test_completion_order_not_submission_order(self):
        seen = []

        def on_result(result, done, total, cached):
            seen.append((result.seed, done))

        report = CampaignScheduler(
            workers=2, run_fn=_run_staggered, on_result=on_result,
        ).run(_configs(2))
        assert report.executed == 2
        # Seed 1 finishes first even though seed 0 was submitted first:
        # completion-order dispatch, no head-of-line blocking.
        assert [seed for seed, _ in seen] == [1, 0]
        assert [done for _, done in seen] == [1, 2]

    def test_pool_failure_raises(self):
        with pytest.raises(CampaignError):
            CampaignScheduler(workers=2, run_fn=_boom).run(_configs(2))

    def test_pool_partial_mode(self, tmp_path):
        store = RunStore(tmp_path)
        report = CampaignScheduler(
            workers=2, store=store, partial=True, run_fn=_boom,
        ).run(_configs(2))
        assert report.executed == 0
        assert len(report.failures) == 2


class TestObservability:
    def test_tracepoints_and_counters(self, tmp_path):
        store = RunStore(tmp_path)
        configs = _configs(2)
        store.put(configs[0], make_result(configs[0]))
        sink = MemorySink()
        scheduler = CampaignScheduler(
            store=store, run_fn=_run_ok, tracer=Tracer(sink)
        )
        report = scheduler.run(configs)
        events = [r["ev"] for r in sink.records]
        assert events.count("store.hit") == 1
        assert events.count("store.miss") == 1
        assert events.count("sched.dispatch") == 1
        assert events.count("sched.done") == 1
        assert events.count("store.put") == 1
        # t is a monotone dispatch sequence (wall side, not sim time).
        ts = [r["t"] for r in sink.records]
        assert ts == sorted(ts)
        assert report.counters() == {
            "store.hits": 1,
            "store.misses": 1,
            "sched.executed": 1,
            "sched.retries": 0,
            "sched.timeouts": 0,
            "sched.pool_breaks": 0,
            "sched.failures": 0,
        }
        for name, value in report.counters().items():
            assert scheduler.counters.get(name) == value

    def test_retry_tracepoint_carries_delay(self):
        sink = MemorySink()
        attempts = []

        def flaky(config):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("flap")
            return make_result(config)

        CampaignScheduler(
            retries=1, run_fn=flaky, sleep=lambda _: None, tracer=Tracer(sink),
        ).run(_configs(1))
        (retry,) = [r for r in sink.records if r["ev"] == "sched.retry"]
        assert retry["delay"] == pytest.approx(0.5)
        assert "flap" in retry["error"]
