"""In-process multi-seed execution and seed-batched campaign dispatch.

The batching machinery is only admissible if it is invisible in the
data: every result, store object, and campaign aggregate must be
byte-identical to per-run dispatch.
"""

import numpy as np
import pytest

from repro.experiments import Campaign, RunConfig, SMOKE, run_single
from repro.experiments.multirun import (
    run_condition_batch,
    run_seeds,
    seed_variants,
)
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
# multirun primitives
# ----------------------------------------------------------------------
def test_seed_variants_only_vary_the_seed():
    variants = seed_variants(_config(), [3, 7])
    assert [v.seed for v in variants] == [3, 7]
    assert all(v.system == "luna" and v.cca == "cubic" for v in variants)


def test_run_seeds_matches_individual_runs():
    batched = run_seeds(_config(), [1, 2])
    singles = [run_single(_config(seed=s)) for s in (1, 2)]
    assert len(batched) == 2
    assert all(_same_result(a, b) for a, b in zip(batched, singles))
    # seeds genuinely differ (guards against a shared-RNG bug)
    assert not np.array_equal(batched[0].game_bps, batched[1].game_bps)


def test_run_single_seeds_parameter_delegates():
    batched = run_single(_config(), seeds=[1, 2])
    assert [r.seed for r in batched] == [1, 2]
    assert _same_result(batched[0], run_single(_config(seed=1)))


def test_run_single_seeds_rejects_observability_hooks():
    from repro.obs.trace import Tracer

    with pytest.raises(ValueError, match="seeds"):
        run_single(_config(), seeds=[1], tracer=Tracer())


def test_condition_batch_serves_and_fills_the_store(tmp_path):
    store = RunStore(tmp_path / "store")
    pre = run_single(_config(seed=1), store=store)
    results = run_condition_batch(seed_variants(_config(), [1, 2]),
                                  store=store)
    # seed 1 was a cache hit (identical wall time => not re-simulated),
    # seed 2 was executed and persisted.
    assert results[0].wall_time_s == pre.wall_time_s
    assert len(store) == 2
    assert store.get(_config(seed=2)) is not None


def test_condition_batch_handles_mixed_conditions():
    configs = [_config(seed=1), _config(seed=1, cca="bbr")]
    results = run_condition_batch(configs)
    assert [r.cca for r in results] == ["cubic", "bbr"]
    assert _same_result(results[1], run_single(_config(seed=1, cca="bbr")))


# ----------------------------------------------------------------------
# Scheduler batching
# ----------------------------------------------------------------------
def test_group_batches_groups_same_condition_up_to_batch_size():
    scheduler = CampaignScheduler(seed_batch=2)
    configs = [_config(seed=s) for s in (1, 2, 3)] + [_config(seed=1, cca="bbr")]
    pending = [
        _Pending([c], [config_fingerprint(c)]) for c in configs
    ]
    batched = scheduler._group_batches(pending)
    sizes = [len(item.configs) for item in batched]
    assert sizes == [2, 1, 1]   # cubic s1+s2, cubic s3, bbr s1
    assert batched[0].label.endswith("(+1 seeds)")
    assert [c.seed for c in batched[0].configs] == [1, 2]
    assert batched[2].configs[0].cca == "bbr"


def test_group_batches_leaves_unidentifiable_configs_alone():
    class Fake:
        label = "fake"

    scheduler = CampaignScheduler(seed_batch=4)
    pending = [_Pending([Fake()], ["fp1"]), _Pending([Fake()], ["fp2"])]
    assert [len(i.configs) for i in scheduler._group_batches(pending)] == [1, 1]


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
    configs = [_config(seed=s) for s in (1, 2, 3)]

    plain_store = RunStore(tmp_path / "plain")
    plain = Campaign(store=plain_store).run(list(configs))

    batch_store = RunStore(tmp_path / "batched")
    batched = Campaign(
        store=batch_store, seed_batch=2, workers=workers
    ).run(list(configs))

    assert batched.report.executed == 3
    assert batched.report.cache_hits == 0

    # Same per-seed results, in the same config order...
    by_seed_plain = {r.seed: r for r in plain.report.results}
    by_seed_batched = {r.seed: r for r in batched.report.results}
    assert sorted(by_seed_plain) == sorted(by_seed_batched) == [1, 2, 3]
    for seed in (1, 2, 3):
        assert _same_result(by_seed_plain[seed], by_seed_batched[seed])

    # ...identical merged aggregates...
    cond_a = aggregate_results(plain.report.results).get("luna", "cubic", 25e6, 2.0)
    cond_b = aggregate_results(batched.report.results).get("luna", "cubic", 25e6, 2.0)
    assert cond_a.to_dict() == cond_b.to_dict()
    assert np.array_equal(cond_a.game_band.band().mean, cond_b.game_band.band().mean)

    # ...and identical store contents: one object per run, same keys.
    assert len(plain_store) == len(batch_store) == 3
    for config in configs:
        a = plain_store.get(config)
        b = batch_store.get(config)
        assert a is not None and b is not None
        assert _same_result(a, b)


def test_seed_batched_rerun_is_all_cache_hits(tmp_path):
    store = RunStore(tmp_path / "store")
    configs = [_config(seed=s) for s in (1, 2)]
    Campaign(store=store, seed_batch=2).run(list(configs))
    again = Campaign(store=store, seed_batch=2).run(list(configs))
    assert again.report.cache_hits == 2
    assert again.report.executed == 0


def test_batch_failure_records_every_seed(tmp_path):
    def explode(config, **kwargs):
        raise RuntimeError("boom")

    scheduler = CampaignScheduler(
        run_fn=explode, seed_batch=2, partial=True, sleep=lambda s: None
    )
    report = scheduler.run([_config(seed=1), _config(seed=2)])
    assert report.executed == 0
    assert len(report.failures) == 2
    assert {f.config.seed for f in report.failures} == {1, 2}
