"""Prefix-batched campaign dispatch (``seed_batch=``).

A prefix batch is the runs that differ only in their competitor; they
share the warm-up before ``iperf_start``.  The batching machinery is only
admissible if it is invisible in the data: every result, store object,
and campaign aggregate must be byte-identical to per-run dispatch.
"""

import time

import numpy as np
import pytest

from repro.experiments import Campaign, RunConfig, SMOKE
from repro.obs.trace import MemorySink, Tracer
from repro.report import aggregate_results
from repro.store import RunStore
from repro.store.fingerprint import config_fingerprint
from repro.store.scheduler import CampaignScheduler, _Pending


def _config(seed=0, **overrides):
    fields = dict(system="luna", capacity_bps=25e6, queue_mult=2.0,
                  cca="cubic", seed=seed, timeline=SMOKE)
    fields.update(overrides)
    return RunConfig(**fields)


def _same_result(a, b) -> bool:
    return (
        np.array_equal(a.times, b.times)
        and np.array_equal(a.game_bps, b.game_bps)
        and np.array_equal(a.iperf_bps, b.iperf_bps)
        and np.array_equal(a.rtt_samples, b.rtt_samples)
    )


# ----------------------------------------------------------------------
# Scheduler batching
# ----------------------------------------------------------------------
def test_group_batches_groups_same_condition_up_to_batch_size():
    scheduler = CampaignScheduler(seed_batch=2)
    configs = [_config(seed=1, cca=c) for c in ("cubic", "bbr", None)]
    configs.append(_config(seed=2, cca="cubic"))
    pending = [
        _Pending([c], [config_fingerprint(c)]) for c in configs
    ]
    batched = scheduler._group_batches(pending)
    sizes = [len(item.configs) for item in batched]
    assert sizes == [2, 1, 1]   # s1 cubic+bbr, s1 solo, s2 cubic
    assert batched[0].label.endswith("(+1 on its warm-up)")
    assert [c.cca for c in batched[0].configs] == ["cubic", "bbr"]
    assert batched[1].configs[0].cca is None
    assert batched[2].configs[0].seed == 2


def test_group_batches_leaves_unidentifiable_configs_alone():
    class Fake:
        label = "fake"

    scheduler = CampaignScheduler(seed_batch=4)
    pending = [_Pending([Fake()], ["fp1"]), _Pending([Fake()], ["fp2"])]
    assert [len(i.configs) for i in scheduler._group_batches(pending)] == [1, 1]


def test_batch_runs_share_one_budget():
    # Any run_fn, not just the stock runner: each run of a batch gets
    # what is left of the batch budget (per-run timeout x batch size).
    budgets = []

    def slow(config, timeout_s=None):
        budgets.append(timeout_s)
        time.sleep(0.2)
        return config

    scheduler = CampaignScheduler(run_fn=slow, seed_batch=2, timeout=1.0)
    report = scheduler.run([_config(cca="cubic"), _config(cca="bbr")])
    assert report.executed == 2
    first, second = budgets
    assert 1.9 < first <= 2.0
    assert first - second >= 0.2


def test_seed_batch_validation():
    with pytest.raises(ValueError, match="seed_batch"):
        CampaignScheduler(seed_batch=0)
    with pytest.raises(ValueError, match="seed_batch"):
        Campaign(seed_batch=0).run([])


# ----------------------------------------------------------------------
# Campaign-level parity: the satellite acceptance check
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_seed_batched_campaign_is_byte_identical(tmp_path, workers):
    ccas = (None, "cubic", "bbr")
    configs = [_config(seed=1, cca=cca) for cca in ccas]

    plain_store = RunStore(tmp_path / "plain")
    plain = Campaign(store=plain_store).run(list(configs))

    batch_store = RunStore(tmp_path / "batched")
    sink = MemorySink()
    batched = Campaign(
        store=batch_store, seed_batch=2, workers=workers, tracer=Tracer(sink)
    ).run(list(configs))

    # Solo and Cubic share one warm-up; BBR is a batch of one.
    assert len(sink.by_event("sched.dispatch")) == 2
    assert batched.report.executed == 3
    assert batched.report.cache_hits == 0

    # Same per-competitor results...
    by_cca_plain = {r.cca: r for r in plain.report.results}
    by_cca_batched = {r.cca: r for r in batched.report.results}
    assert set(by_cca_plain) == set(by_cca_batched) == set(ccas)
    for cca in ccas:
        assert _same_result(by_cca_plain[cca], by_cca_batched[cca])

    # ...identical merged aggregates...
    plain_cells = aggregate_results(plain.report.results)
    batched_cells = aggregate_results(batched.report.results)
    for cca in ccas:
        cond_a = plain_cells.get("luna", cca, 25e6, 2.0)
        cond_b = batched_cells.get("luna", cca, 25e6, 2.0)
        assert cond_a.to_dict() == cond_b.to_dict()
        assert np.array_equal(
            cond_a.game_band.band().mean, cond_b.game_band.band().mean
        )

    # ...and identical store contents: one object per run, same keys.
    assert len(plain_store) == len(batch_store) == 3
    for config in configs:
        a = plain_store.get(config)
        b = batch_store.get(config)
        assert a is not None and b is not None
        assert _same_result(a, b)


def test_seed_batched_rerun_is_all_cache_hits(tmp_path):
    store = RunStore(tmp_path / "store")
    configs = [_config(cca=cca) for cca in ("cubic", "bbr")]
    Campaign(store=store, seed_batch=2).run(list(configs))
    again = Campaign(store=store, seed_batch=2).run(list(configs))
    assert again.report.cache_hits == 2
    assert again.report.executed == 0


def test_batch_failure_records_every_seed(tmp_path):
    def explode(config, **kwargs):
        raise RuntimeError("boom")

    sink = MemorySink()
    scheduler = CampaignScheduler(
        run_fn=explode, seed_batch=2, partial=True, sleep=lambda s: None,
        tracer=Tracer(sink),
    )
    report = scheduler.run([_config(cca="cubic"), _config(cca="bbr")])
    assert len(sink.by_event("sched.dispatch")) == 1   # one batch
    assert report.executed == 0
    assert len(report.failures) == 2
    assert {f.config.cca for f in report.failures} == {"cubic", "bbr"}
