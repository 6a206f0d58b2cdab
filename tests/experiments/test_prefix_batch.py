"""Prefix batches: one warm-up, forked for every competitor.

The solo, Cubic and BBR runs of one condition simulate identical traffic
until ``iperf_start``.  A prefix batch simulates that warm-up once and
continues it in a forked child for every member.  Each member must be
byte-identical to an independent run and to a testbed built with its
competitor from the start; a failing member must fail alone; and no
child may outlive its batch or its parent.
"""

import os
import signal
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import RunConfig, Timeline
from repro.experiments.results import RunResult
from repro.experiments.runner import RunTimeout, Warmup, _collect, run_single
from repro.obs.trace import MemorySink, Tracer
from repro.store.scheduler import CampaignScheduler
from repro.testbed.tc import RouterConfig
from repro.testbed.topology import GameStreamingTestbed

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

_SRC = str(Path(__file__).resolve().parents[2] / "src")
_CCAS = (None, "cubic", "bbr")
_CELLS = (("stadia", 25e6, 2.0), ("luna", 15e6, 0.5))


def _triple(system, capacity_bps, queue_mult, scale=1.0 / 54.0):
    return [
        RunConfig(system, capacity_bps, queue_mult, cca, seed=3,
                  timeline=Timeline(scale))
        for cca in _CCAS
    ]


def _measured(result: RunResult) -> bytes:
    """Every measured field as bytes; provenance (wall time) excluded."""
    parts = []
    for f in fields(RunResult):
        if f.metadata.get("kind") == "provenance":
            continue
        value = getattr(result, f.name)
        if isinstance(value, np.ndarray):
            parts.append(repr((value.dtype.str, value.shape)).encode())
            parts.append(value.tobytes())
        else:
            parts.append(repr(value).encode())
    return b"|".join(parts)


def _built_with_competitor(config: RunConfig) -> RunResult:
    """The run on a testbed wired with its competitor from the start."""
    timeline = config.timeline
    testbed = GameStreamingTestbed(
        config.system,
        RouterConfig(rate_bps=config.capacity_bps, queue_mult=config.queue_mult),
        seed=config.seed, competing_cca=config.cca, qdisc=config.qdisc,
    )
    testbed.start_game()
    if config.competing:
        testbed.schedule_iperf(timeline.iperf_start, timeline.iperf_stop)
    testbed.run(until=timeline.end)
    return _collect(config, testbed)


@pytest.fixture
def forks(monkeypatch):
    """The pids this process forks (its children do not report)."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture(scope="module")
def references():
    configs = [c for cell in _CELLS for c in _triple(*cell)]
    return configs, {
        c.label: (_measured(run_single(c)), _measured(_built_with_competitor(c)))
        for c in configs
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_prefix_batches_equal_independent_runs(references, workers, forks):
    configs, expected = references
    sink = MemorySink()
    report = CampaignScheduler(
        workers=workers, seed_batch=3, tracer=Tracer(sink)
    ).run(configs)
    assert len(sink.by_event("sched.dispatch")) == len(_CELLS)
    assert report.executed == len(configs)
    for result in report.results:
        label = RunConfig(
            result.system, result.capacity_bps, result.queue_mult, result.cca,
            seed=result.seed, timeline=Timeline(result.timeline_scale),
        ).label
        alone, built = expected[label]
        assert _measured(result) == alone == built
        assert result.wall_time_s > 0
    if workers == 1:   # every member ran in a child
        assert len(forks) == len(configs)


def test_failing_member_fails_alone(forks):
    solo, cubic, bbr = _triple("stadia", 25e6, 2.0)
    warm = Warmup(3)
    first = run_single(solo, warm=warm)
    with pytest.raises(RunTimeout, match=cubic.label):
        run_single(cubic, warm=warm, max_events=1)
    last = run_single(bbr, warm=warm)
    assert len(forks) == 3
    assert _measured(first) == _measured(run_single(solo))
    assert _measured(last) == _measured(run_single(bbr))
    assert warm.testbed is None   # the last member dropped the warm-up


def _python(script: str, **kwargs) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": _SRC}
    return subprocess.Popen(
        [sys.executable, "-c", script], env=env, text=True,
        stdout=subprocess.PIPE, **kwargs,
    )


def test_batch_leaves_no_zombie():
    script = (
        "import os\n"
        "from repro.experiments import RunConfig, Timeline\n"
        "from repro.store.scheduler import CampaignScheduler\n"
        "configs = [RunConfig('luna', 15e6, 0.5, cca, timeline=Timeline(1 / 108))\n"
        "           for cca in (None, 'cubic', 'bbr')]\n"
        "report = CampaignScheduler(seed_batch=3).run(configs)\n"
        "assert report.executed == 3, report\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no children')\n"
    )
    proc = _python(script)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert out.strip() == "no children"


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_child_exits_when_its_parent_is_killed():
    # The forking process prints each child's pid, then waits on it.
    script = (
        "import os\n"
        "fork = os.fork\n"
        "def announcing_fork():\n"
        "    pid = fork()\n"
        "    if pid:\n"
        "        print(pid, flush=True)\n"
        "    return pid\n"
        "os.fork = announcing_fork\n"
        "from repro.experiments import RunConfig, Timeline\n"
        "from repro.experiments.runner import Warmup, run_single\n"
        "warm = Warmup(2)\n"
        "for cca in ('cubic', 'bbr'):\n"
        "    run_single(RunConfig('stadia', 25e6, 2.0, cca,\n"
        "                         timeline=Timeline(1 / 2)), warm=warm)\n"
    )
    proc = _python(script)
    try:
        child = int(proc.stdout.readline())
        assert _running(child)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stdout.close()
    # A guard tick is ~10 ms of host time; the run itself has seconds left.
    deadline = time.monotonic() + 1.5
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(child)
