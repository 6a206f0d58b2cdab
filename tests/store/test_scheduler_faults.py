"""Failure-path tests for the campaign scheduler.

Covers the hardening features: per-run timeouts (hard kill of pool
workers, cooperative in-process), ``BrokenProcessPool`` recovery,
graceful interrupts, the non-blocking retry backoff, and prompt aborts.
Run functions sent to a pool are module-level (picklable); wall-clock
assertions use generous margins so loaded CI machines do not flake.
"""

import functools
import os
import time
from pathlib import Path
from time import perf_counter

import pytest

from repro.obs.trace import MemorySink, Tracer
from repro.store import (
    CampaignError,
    CampaignScheduler,
    RunStore,
    RunTimeout,
)
from repro.store.fingerprint import config_fingerprint

from tests.store.test_runstore import make_config, make_result


def _configs(n):
    return [make_config(seed=seed) for seed in range(n)]


# -- module-level run functions (pool mode needs them picklable) ---------
def _ok(config):
    return make_result(config)


def _fail_first(config, attempt=1):
    if attempt == 1:
        raise RuntimeError(f"transient fault for seed {config.seed}")
    return make_result(config)


def _fail_seed0(config):
    if config.seed == 0:
        raise RuntimeError("permanent fault for seed 0")
    return make_result(config)


def _timeout_first(config, attempt=1):
    if attempt == 1:
        raise RunTimeout("synthetic deadline blown")
    return make_result(config)


def _fail_fast_or_slow(config, attempt=1):
    # Seed 0 flaps on its first attempt; seed 1 is simply slow.  Used to
    # prove the collector keeps draining completions while seed 0 waits
    # out its retry backoff.
    if config.seed == 0 and attempt == 1:
        raise RuntimeError("flap")
    if config.seed == 1:
        time.sleep(0.3)
    return make_result(config)


def _boom_or_hang(config):
    if config.seed == 0:
        raise RuntimeError("hard fail for seed 0")
    time.sleep(30.0)
    return make_result(config)


def _hang_once(marker_dir, config, attempt=1):
    # Hangs on the first attempt only (marker file = cross-process
    # memory), so a killed-and-retried run succeeds.
    marker = Path(marker_dir) / f"seen-{config.seed}"
    if not marker.exists():
        marker.touch()
        time.sleep(60.0)
    return make_result(config)


def _staggered_hang(marker_dir, config):
    # Seed 1 is slow-but-healthy; everything else hangs on its first
    # dispatch.  Produces one expired run and one innocent bystander at
    # the moment of the timeout kill.
    if config.seed == 1:
        time.sleep(1.0)
        return make_result(config)
    marker = Path(marker_dir) / f"seen-{config.seed}"
    if not marker.exists():
        marker.touch()
        time.sleep(60.0)
    return make_result(config)


def _exit_seed0_first(config, attempt=1):
    if config.seed == 0 and attempt == 1:
        os._exit(9)  # stand-in for an OOM-killed / segfaulted worker
    return make_result(config)


def _exit_always(config):
    os._exit(9)


class TestPoolRetries:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_exception_retried_under_pool(self, workers):
        report = CampaignScheduler(
            workers=workers, retries=1, backoff_base=0.01, run_fn=_fail_first,
        ).run(_configs(3))
        assert report.executed == 3
        assert report.retries == 3
        assert report.failures == []

    def test_backoff_does_not_block_the_collector(self):
        # Seed 0 fails immediately and backs off for 2 s; seed 1 takes
        # 0.3 s.  A collector that slept inline (the old behaviour)
        # could not deliver seed 1's result before the backoff expired.
        seen = []
        start = perf_counter()

        def on_result(result, done, total, cached):
            seen.append((result.seed, perf_counter() - start))

        report = CampaignScheduler(
            workers=2, retries=1, backoff_base=2.0,
            run_fn=_fail_fast_or_slow, on_result=on_result,
        ).run(_configs(2))
        assert report.executed == 2
        assert [seed for seed, _ in seen] == [1, 0]
        seed1_at = seen[0][1]
        assert seed1_at < 1.5, (
            f"seed 1 was collected after {seed1_at:.2f}s -- the retry "
            "backoff blocked the completion loop"
        )
        # ... and the backoff itself was honoured for seed 0.
        assert seen[1][1] >= 1.8


class TestPoolAbort:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_abort_is_prompt_and_records_abandoned(self, workers):
        # Seed 0 fails instantly with no retry budget; seed 1 would run
        # for 30 s.  The abort must not wait for it (or, at workers=1,
        # start it).
        configs = _configs(2)
        start = perf_counter()
        with pytest.raises(CampaignError) as excinfo:
            CampaignScheduler(
                workers=workers, run_fn=_boom_or_hang
            ).run(configs)
        elapsed = perf_counter() - start
        assert elapsed < 15.0, f"abort blocked for {elapsed:.1f}s"
        assert excinfo.value.abandoned == [config_fingerprint(configs[1])]

    def test_serial_abort_records_abandoned(self):
        configs = _configs(3)
        with pytest.raises(CampaignError) as excinfo:
            CampaignScheduler(run_fn=_fail_seed0).run(configs)
        assert excinfo.value.abandoned == [
            config_fingerprint(c) for c in configs[1:]
        ]


class TestTimeouts:
    def test_serial_cooperative_timeout_is_retryable(self):
        sink = MemorySink()
        report = CampaignScheduler(
            retries=1, timeout=5.0, run_fn=_timeout_first,
            sleep=lambda delay: None, tracer=Tracer(sink),
        ).run(_configs(1))
        assert report.executed == 1
        assert report.timeouts == 1
        assert report.retries == 1
        assert any(r["ev"] == "sched.timeout" for r in sink.records)

    def test_pool_timeout_kills_hung_worker_and_retries(self, tmp_path):
        # retries=3, not 1: on a loaded machine a worker can be killed
        # before it even touches its marker, making the retry hang once
        # more -- the budget absorbs that without flaking.
        run_fn = functools.partial(_hang_once, str(tmp_path))
        start = perf_counter()
        report = CampaignScheduler(
            workers=2, retries=3, timeout=1.5, backoff_base=0.01,
            run_fn=run_fn,
        ).run(_configs(2))
        elapsed = perf_counter() - start
        assert report.executed == 2
        assert report.timeouts >= 2
        assert report.failures == []
        assert elapsed < 30.0, f"hung workers were not killed ({elapsed:.1f}s)"

    def test_pool_timeout_without_retries_records_failure(self, tmp_path):
        run_fn = functools.partial(_hang_once, str(tmp_path))
        report = CampaignScheduler(
            workers=2, timeout=1.0, partial=True, run_fn=run_fn,
        ).run(_configs(1))
        assert report.executed == 0
        (failure,) = report.failures
        assert "RunTimeout" in failure.error
        assert report.timeouts == 1

    def test_innocent_bystander_requeued_without_charge(self, tmp_path):
        # Seed 0 hangs (killed at t=3); seed 1 finishes at t=1 freeing a
        # slot for seed 2, which hangs-once too but is NOT yet expired
        # when seed 0's kill tears the pool down.  Seed 2 must be
        # requeued on a free pass: re-dispatched at attempt 1.
        configs = _configs(3)
        sink = MemorySink()
        run_fn = functools.partial(_staggered_hang, str(tmp_path))
        report = CampaignScheduler(
            workers=2, retries=2, timeout=3.0, backoff_base=0.01,
            run_fn=run_fn, tracer=Tracer(sink),
        ).run(configs)
        assert report.executed == 3
        assert report.failures == []
        fp2 = config_fingerprint(configs[2])
        requeues = [r for r in sink.records if r["ev"] == "sched.requeue"]
        assert any(r["fp"] == fp2 for r in requeues)
        dispatches = [
            r for r in sink.records
            if r["ev"] == "sched.dispatch" and r["fp"] == fp2
        ]
        assert [r["attempt"] for r in dispatches[:2]] == [1, 1]


class TestBrokenPoolRecovery:
    def test_worker_crash_recovers_and_completes(self):
        report = CampaignScheduler(
            workers=2, retries=2, backoff_base=0.01,
            run_fn=_exit_seed0_first,
        ).run(_configs(4))
        assert report.executed == 4
        assert report.failures == []
        assert report.pool_breaks >= 1
        assert report.counters()["sched.pool_breaks"] == report.pool_breaks

    def test_worker_crash_without_retries_aborts_with_worker_crash(self):
        with pytest.raises(CampaignError) as excinfo:
            CampaignScheduler(workers=2, run_fn=_exit_always).run(_configs(2))
        assert "WorkerCrash" in str(excinfo.value)

    def test_worker_crash_in_partial_mode_records_failures(self):
        report = CampaignScheduler(
            workers=2, partial=True, run_fn=_exit_always,
        ).run(_configs(2))
        assert report.executed == 0
        assert len(report.failures) == 2
        assert all("WorkerCrash" in f.error for f in report.failures)
        assert report.pool_breaks >= 1


class TestInterrupt:
    def test_serial_interrupt_returns_partial_report_and_resumes(self, tmp_path):
        store = RunStore(tmp_path)
        configs = _configs(3)

        def interrupted_on_seed1(config):
            if config.seed == 1:
                raise KeyboardInterrupt()
            return make_result(config)

        report = CampaignScheduler(
            store=store, run_fn=interrupted_on_seed1
        ).run(configs)
        assert report.interrupted is True
        assert report.executed == 1
        assert report.abandoned == [
            config_fingerprint(c) for c in configs[1:]
        ]
        state = store.load_checkpoint(report.campaign_id)
        assert state["interrupted"] is True
        assert state["abandoned"] == report.abandoned
        assert [config in store for config in configs] == [True, False, False]

        # Resume: the completed run is served from cache, only the
        # abandoned ones execute, and the interrupt marks are cleared.
        executed = []

        def healthy(config):
            executed.append(config.seed)
            return make_result(config)

        resumed = CampaignScheduler(store=store, run_fn=healthy).run(configs)
        assert resumed.interrupted is False
        assert resumed.cache_hits == 1
        assert sorted(executed) == [1, 2]
        state = store.load_checkpoint(report.campaign_id)
        assert state["interrupted"] is False
        assert state["abandoned"] == []

    def test_pool_interrupt_records_abandoned(self, monkeypatch, tmp_path):
        import repro.store.scheduler as scheduler_module

        def interrupted_wait(*args, **kwargs):
            raise KeyboardInterrupt()

        monkeypatch.setattr(scheduler_module, "wait", interrupted_wait)
        store = RunStore(tmp_path)
        configs = _configs(2)
        report = CampaignScheduler(
            workers=2, store=store, run_fn=_ok
        ).run(configs)
        assert report.interrupted is True
        assert report.executed == 0
        assert sorted(report.abandoned) == sorted(
            config_fingerprint(c) for c in configs
        )


class TestCheckpointAccounting:
    def test_checkpoint_marks_mixed_outcomes(self, tmp_path):
        store = RunStore(tmp_path)
        configs = _configs(3)
        store.put(configs[0], make_result(configs[0]))  # pre-cached

        def fail_seed2(config):
            if config.seed == 2:
                raise RuntimeError("permanent")
            return make_result(config)

        report = CampaignScheduler(
            store=store, partial=True, run_fn=fail_seed2
        ).run(configs)
        assert report.cache_hits == 1
        assert report.executed == 1
        assert len(report.failures) == 1
        state = store.load_checkpoint(report.campaign_id)
        assert [config in store for config in configs] == [True, True, False]
        assert set(state["failed"]) == {config_fingerprint(configs[2])}

    def test_resume_progress_reaches_total_past_recorded_failures(self, tmp_path):
        # A recorded failure that is resume-skipped must still count
        # toward `done`, or the progress seen by the CLI stalls short of
        # total.  Order the failing config first to expose it.
        store = RunStore(tmp_path)
        failing = make_config(seed=9)
        configs = [failing] + _configs(2)

        def fail_seed9(config):
            if config.seed == 9:
                raise RuntimeError("permanent")
            return make_result(config)

        CampaignScheduler(store=store, partial=True, run_fn=fail_seed9).run(configs)

        dones = []
        report = CampaignScheduler(
            store=store, partial=True, resume=True, run_fn=fail_seed9,
            on_result=lambda result, done, total, cached: dones.append(
                (done, total)
            ),
        ).run(configs)
        assert len(report.failures) == 1
        assert report.cache_hits == 2
        assert dones == [(2, 3), (3, 3)]  # reaches total despite the skip
