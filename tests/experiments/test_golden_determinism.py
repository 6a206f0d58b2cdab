"""Golden determinism: pinned conditions, committed digests.

Performance work on the packet path (delay-line coalescing, express
queue bypass, the O(1) ACK ledger, the TCP sender's deadline timers) is
only admissible when it leaves the simulation bit-for-bit unchanged.
This test freezes that contract: each pinned condition must keep
producing exactly the arrays it produced when its digest below was
recorded.  Any change to traffic dynamics -- intended or not -- shows
up here before it can silently shift the paper's tables.

Two conditions are pinned because they exercise different halves of the
TCP sender: stadia vs Cubic (25 Mb/s, 2x BDP) is ACK-clocked and almost
loss-free, while luna vs BBR (15 Mb/s, 0.5x BDP, Table 5's worst cell)
paces every segment and spends the run in loss recovery (5,048
segments, 627 retransmits, 68 loss episodes at this scale).

If a PR *deliberately* changes dynamics (a model fix, a new default),
re-record with::

    PYTHONPATH=src python -c "
    from tests.experiments.test_golden_determinism import _digest, _run
    print(_digest(_run('cubic')), _digest(_run('bbr')))"

and say so in the PR description.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import RunConfig, Timeline
from repro.experiments.runner import run_single
from repro.obs.trace import MemorySink, Tracer
from repro.store.scheduler import CampaignScheduler

#: sha256 over the shapes and float64 bytes of the four result arrays.
GOLDEN_DIGEST = "4c3d8d3222cd6a566bb3e22545e84e3def3bce598cf0294a6571735325165397"
BBR_GOLDEN_DIGEST = "c7c0cccd5a73fe9e7a9bd13313e6f246f586a558defeee6f2ffba0822c6f1bcc"

#: The pinned conditions: paper cells at 1/36 of the paper timeline.
_CONDITIONS = {
    "cubic": dict(
        system="stadia", capacity_bps=25e6, queue_mult=2.0, cca="cubic", seed=0,
    ),
    "bbr": dict(
        system="luna", capacity_bps=15e6, queue_mult=0.5, cca="bbr", seed=0,
    ),
}
_DIGESTS = {"cubic": GOLDEN_DIGEST, "bbr": BBR_GOLDEN_DIGEST}
_SCALE = 1.0 / 36.0

_HASHED_ARRAYS = ("times", "game_bps", "iperf_bps", "rtt_samples")


def _run(condition: str = "cubic"):
    config = RunConfig(timeline=Timeline(scale=_SCALE), **_CONDITIONS[condition])
    return run_single(config)


def _digest(result) -> str:
    h = hashlib.sha256()
    for name in _HASHED_ARRAYS:
        arr = np.ascontiguousarray(
            np.asarray(getattr(result, name), dtype=np.float64)
        )
        h.update(name.encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("condition", sorted(_CONDITIONS))
def test_pinned_condition_matches_committed_digest(condition):
    result = _run(condition)
    # Guard against vacuous passes: the run must actually produce data.
    assert result.times.size > 0
    assert result.rtt_samples.size > 0
    assert float(result.game_bps.max()) > 0
    assert float(result.iperf_bps.max()) > 0
    assert _digest(result) == _DIGESTS[condition]


def test_digest_is_reproducible_within_process():
    # Two fresh testbeds in one process: no hidden global state.
    assert _digest(_run()) == _digest(_run())


def test_seed_batched_run_matches_per_run_digest():
    # A prefix batch simulates its {solo, cubic, bbr} warm-up once and
    # forks it for every member but the last; each member must be
    # byte-identical to running that config on its own.
    for condition, pinned in _CONDITIONS.items():
        configs = [
            RunConfig(timeline=Timeline(scale=_SCALE), **{**pinned, "cca": cca})
            for cca in (None, "cubic", "bbr")
        ]
        sink = MemorySink()
        report = CampaignScheduler(seed_batch=3, tracer=Tracer(sink)).run(configs)
        assert len(sink.by_event("sched.dispatch")) == 1
        batched = {r.cca: r for r in report.results}
        for config in configs:
            assert _digest(batched[config.cca]) == _digest(run_single(config))
        assert _digest(batched[pinned["cca"]]) == _DIGESTS[condition]
        # competitors genuinely differ (guards against a shared-state bug)
        assert not np.array_equal(
            batched["cubic"].game_bps, batched["bbr"].game_bps
        )
