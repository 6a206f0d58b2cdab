"""The five workloads and the loop that measures one of them.

``run.py`` starts this file as a fresh child process per workload (with
``PYTHONHASHSEED=0`` and ``src`` on ``PYTHONPATH``); the child sets the
workload up, runs it in a closed loop -- one caller, the next iteration
starts when the previous one returned -- and prints one JSON document on
its last line of standard output.

Untraced (``--trace 0``): warm-up, then timed iterations until
``--seconds`` have passed; every iteration's outputs are checked after
its clock stopped.  Traced (``--trace 1``): one plain iteration (the
overhead baseline), one span pass with the counting wrappers installed,
then hook passes under :class:`layers.LayerProfiler` until all three
together have measured for ``--seconds``.
"""

from __future__ import annotations

import time

# Set-up time is what a user waits before the first run starts, and the
# imports below are most of it on the cell workloads.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from repro.dist import CampaignService, Coordinator, DistWorker  # noqa: E402
from repro.experiments import (  # noqa: E402
    Campaign, RunConfig, RunResult, Timeline, run_single,
)
from repro.sim.engine import DEFAULT_SCHEDULER  # noqa: E402
from repro.report import (  # noqa: E402
    aggregate_store, formatter_names, get_formatter,
)
from repro.store import (  # noqa: E402
    CampaignScheduler, RunStore, StoreIndex, config_fingerprint, merge_stores,
)
from repro.testbed.tc import RouterConfig  # noqa: E402
from repro.testbed.topology import GameStreamingTestbed  # noqa: E402

from layers import (  # noqa: E402
    FABRIC_LAYERS, HOOK_LAYERS, OTHER, SIM_LAYERS, LayerProfiler,
    SpanRecorder, Wrappers,
)

#: Stage spans whose summed duration is a per-layer metric of that name.
STAGE_SPANS = (
    "store.scheduler.run_s", "store.scheduler.cached_run_s",
    "dist.coordinator.enqueue_s", "dist.worker.file_run_s",
    "dist.worker.http_run_s", "store.sync.merge_s", "store.index.build_s",
    "report.aggregate.aggregate_s", "report.formatters.format_s",
)

#: The ping reply shares the bottleneck but has no send hook; at most
#: this many of its packets sit in the downlink when a run stops.
_PING_SLACK = 2


@dataclass
class Context:
    seed: int
    scale: float
    #: Scratch space, deleted by ``run.py`` when the whole run is over.
    #: Nothing here deletes files while measuring: on a filesystem
    #: mounted with online discard every unlink makes the following
    #: journal commits -- and so every ``fsync`` the fabric issues --
    #: slower for a while, which reads as drift between iterations.
    workdir: Path
    spans: SpanRecorder
    _dirs: int = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    """What one iteration did, filled in by ``run`` and ``verify``."""

    runs: int = 0               # runs completed or served while timed
    sim_s: float = 0.0          # simulated seconds those runs cover
    wall_s: float = 0.0         # of ``run`` alone
    cpu_s: float = 0.0          # user + system, reaped children included
    failed_runs: int = 0
    digest: str = ""
    checks: list = field(default_factory=list)    # (what, passed)
    counts: dict = field(default_factory=dict)    # per-layer counts
    info: dict = field(default_factory=dict)
    keep: dict = field(default_factory=dict)      # artefacts for verify

    def check(self, what: str, passed: bool) -> None:
        self.checks.append((what, bool(passed)))


def results_digest(results) -> str:
    """SHA-256 over every array and scalar the analysis layer reads."""
    digest = hashlib.sha256()
    for r in results:
        for name in ("times", "game_bps", "iperf_bps", "rtt_samples",
                     "target_log"):
            digest.update(
                np.ascontiguousarray(getattr(r, name), dtype=float).tobytes()
            )
        digest.update(repr((
            r.system, r.cca, r.capacity_bps, r.queue_mult, r.seed,
            r.baseline_bps, r.fairness_game_bps, r.fairness_iperf_bps,
            r.solo_bps, r.game_loss_rate, r.displayed_fps_contention,
            r.displayed_fps_solo, r.frames_displayed, r.frames_dropped,
        )).encode())
    return digest.hexdigest()


class Workload:
    """``setup`` once, then ``run`` (timed) and ``verify`` (not timed)."""

    warmups = 1

    def checked(self, ctx: Context, instrument=nullcontext()) -> Outcome:
        """One iteration: ``run`` on the clock (and inside ``instrument``),
        then ``verify`` off it."""
        with instrument:
            cpu = _cpu_s()
            start = time.perf_counter()
            out = self.run(ctx)
            out.wall_s = time.perf_counter() - start
        _wait_for_children()
        out.cpu_s = _cpu_s() - cpu
        self.verify(ctx, out)
        return out

    #: What an untraced run does before its clock starts ...
    warmup = checked
    #: ... and what the traced span pass runs under the wrappers.
    span_pass = checked


# ----------------------------------------------------------------------
# cell-*: one simulated run of one paper cell
# ----------------------------------------------------------------------
class Cell(Workload):

    def __init__(self, name, system, capacity_bps, queue_mult, cca):
        self.name = name
        self._cell = (system, capacity_bps, queue_mult, cca)

    def setup(self, ctx: Context) -> None:
        self.config = RunConfig(
            *self._cell, seed=ctx.seed, timeline=Timeline(ctx.scale / 3.0)
        )
        self.fingerprint = config_fingerprint(self.config)
        self.first_digest = None
        self.probed = None

    def run(self, ctx: Context) -> Outcome:
        with ctx.spans.span("experiments.runner.run_single",
                            run=self.fingerprint):
            result = run_single(self.config)
        return Outcome(runs=1, sim_s=self.config.timeline.end,
                       keep={"result": result})

    def verify(self, ctx: Context, out: Outcome) -> None:
        result: RunResult = out.keep.pop("result")
        out.digest = results_digest([result])
        if self.first_digest is None:
            self.first_digest = out.digest
        out.check("digest repeats across iterations",
                  out.digest == self.first_digest)
        out.check("client displayed frames", result.frames_displayed > 0)
        if self.probed is not None:
            out.check(
                "run_single agrees with the probed testbed",
                (result.frames_displayed, result.frames_dropped,
                 result.game_loss_rate) == self.probed,
            )
        lo, hi = self.config.timeline.contention_window
        rtts = result.rtts_in(lo, hi)
        out.info["model.digest"] = out.digest
        out.counts.update({
            "model.fairness": result.fairness_ratio,
            "model.rtt_ms": float(rtts.mean()) * 1e3 if rtts.size else 0.0,
            "model.loss_frac": result.game_loss_rate,
            "model.fps": result.displayed_fps_contention,
        })

    def probe(self, ctx: Context) -> Outcome:
        """The same run on a testbed built as ``run_single`` builds it.

        ``RunResult`` carries no event or packet counts, so the counters
        and the conservation checks are read from public attributes
        here.  Doubles as the warm-up of an untraced run.
        """
        config, spans = self.config, ctx.spans
        timeline = config.timeline
        with spans.span("testbed.build", run=self.fingerprint):
            testbed = GameStreamingTestbed(
                config.system,
                RouterConfig(rate_bps=config.capacity_bps,
                             queue_mult=config.queue_mult),
                seed=config.seed,
                competing_cca=config.cca,
                qdisc=config.qdisc,
            )
        with spans.span("testbed.start", run=self.fingerprint):
            testbed.start_game()
            testbed.schedule_iperf(timeline.iperf_start, timeline.iperf_stop)
        with spans.span("testbed.run", run=self.fingerprint):
            testbed.run(until=timeline.end)

        out = Outcome(runs=1, sim_s=timeline.end)
        sim, link, queue = testbed.sim, testbed.bottleneck, testbed.queue
        server, client, iperf = testbed.server, testbed.client, testbed.iperf
        sender, receiver = iperf.sender, iperf.receiver
        pool = iperf.pool.stats()
        acquired = pool["allocated"] + pool["reused"]
        out.counts.update({
            "sim.engine.events": sim.events_processed,
            "sim.engine.compactions": sim.compactions,
            "sim.link.packets_forwarded": link.packets_sent,
            "sim.link.packets_dropped": queue.drops,
            "sim.link.peak_queue_bytes": queue.peak_bytes,
            "sim.packet.pool_reuse_frac":
                pool["reused"] / acquired if acquired else 0.0,
            "tcp.sender.segments_sent": sender.segments_sent,
            "tcp.sender.retransmits": sender.retransmits,
            "tcp.sender.rto_events": sender.rto_events,
            "tcp.sender.retx_frac":
                sender.retransmits / sender.segments_sent
                if sender.segments_sent else 0.0,
            "tcp.receiver.acks_sent": receiver.acks_sent,
            "tcp.receiver.duplicate_segments": receiver.duplicate_segments,
            "streaming.server.frames_sent": server.frames_sent,
            "streaming.server.packets_sent": server.packets_sent,
            "streaming.server.retransmitted": server.retransmitted,
            "streaming.client.frames_displayed": client.frames_displayed,
            "streaming.client.frames_dropped": client.frames_dropped,
            "streaming.client.feedback_sent": client.feedback_sent,
            "testbed.capture_records": sum(
                testbed.capture.packet_count(flow)
                for flow in testbed.capture.flows
            ),
        })

        # Packet conservation, from counters alone: what a hooked flow
        # sent and has neither delivered nor dropped must be exactly
        # what still sits in the downlink (its delay stages, the queue,
        # the packet on the wire), give or take the unhooked ping reply.
        in_flight = 0
        for flow in (testbed.game_flow, iperf.flow):
            stats = testbed.stats.for_flow(flow)
            pending = (stats.packets_sent - stats.packets_received
                       - stats.packets_dropped)
            out.check(f"{flow}: sent >= received + dropped", pending >= 0)
            in_flight += pending
        pipeline = (len(server.path) + len(sender.path) + len(queue)
                    + (1 if link.busy else 0))
        out.check("sent = received + dropped + in flight at stop",
                  0 <= pipeline - in_flight <= _PING_SLACK)
        out.check("peak queue occupancy within its limit",
                  queue.peak_bytes <= queue.limit_bytes)
        out.check("link forwarded what the capture recorded",
                  link.packets_sent == out.counts["testbed.capture_records"])
        self.probed = (client.frames_displayed, client.frames_dropped,
                       testbed.game_loss_rate())
        return out

    warmup = span_pass = probe


# ----------------------------------------------------------------------
# campaign-pool: 16 real runs through the process-pool scheduler
# ----------------------------------------------------------------------
class CampaignPool(Workload):
    name = "campaign-pool"
    warmups = 0
    workers = 2

    def setup(self, ctx: Context) -> None:
        timeline = Timeline(ctx.scale / 9.0)
        self.configs = [
            RunConfig(system, 25e6, queue, cca, seed=ctx.seed + s,
                      timeline=timeline)
            for system in ("stadia", "luna")
            for cca in ("cubic", "bbr")
            for queue in (0.5, 7.0)
            for s in range(2)
        ]
        self.first_digest = None

    def run(self, ctx: Context) -> Outcome:
        store = RunStore(ctx.fresh_dir("pool") / "store")
        campaign = Campaign(
            store=store, workers=self.workers, seed_batch=2
        ).run(self.configs)
        return Outcome(
            runs=len(self.configs),
            sim_s=sum(c.timeline.end for c in self.configs),
            keep={"campaign": campaign, "store": store},
        )

    def verify(self, ctx: Context, out: Outcome) -> None:
        campaign, store = out.keep.pop("campaign"), out.keep.pop("store")
        report = campaign.report
        total = len(self.configs)
        out.failed_runs = len(report.failures)
        out.check("executed every config", report.executed == total)
        out.check("no failed run", not report.failures)
        out.check("store holds every run", len(store) == total)
        out.digest = results_digest(sorted(
            report.results,
            key=lambda r: (r.system, r.cca, r.queue_mult, r.seed),
        ))
        if self.first_digest is None:
            self.first_digest = out.digest
        out.check("digest repeats across iterations",
                  out.digest == self.first_digest)
        simulate_s = sum(w for _, w in campaign.wall_times)
        out.counts.update({
            "store.scheduler.executed": report.executed,
            "store.scheduler.cache_hits": report.cache_hits,
            "store.scheduler.retries": report.retries,
            "experiments.runner.simulate_s": simulate_s,
            "store.scheduler.pool_wall_s": out.wall_s,
            "store.scheduler.pool_efficiency":
                simulate_s / (self.workers * out.wall_s),
            "store.scheduler.overhead_s":
                out.wall_s - simulate_s / self.workers,
        })
        out.counts.update(_disk_counts(store.root))


# ----------------------------------------------------------------------
# grid-*: the paper grid with simulation replaced by a synthetic result
# ----------------------------------------------------------------------
def grid_configs(ctx: Context) -> list[RunConfig]:
    """3 systems x {solo, cubic, bbr} x 3 capacities x 3 queues x seeds."""
    seeds = max(int(round(5 * ctx.scale)), 1)
    timeline = Timeline(1.0 / 9.0)
    return [
        RunConfig(system, capacity, queue, cca, seed=ctx.seed + s,
                  timeline=timeline)
        for system in ("stadia", "geforce", "luna")
        for cca in (None, "cubic", "bbr")
        for capacity in (15e6, 25e6, 35e6)
        for queue in (0.5, 2.0, 7.0)
        for s in range(seeds)
    ]


def synthetic_run(config: RunConfig) -> RunResult:
    """A timeline-shaped result without a simulation, fixed by the config.

    The fabric must store, ship and aggregate it exactly like a real
    one, so it has real array sizes (one bitrate bin per 0.1 s) and a
    contention dip the adaptiveness reducers can find.  The RNG is keyed
    on the config fingerprint: the serial scheduler and every dist
    worker must produce byte-identical objects.
    """
    timeline = config.timeline
    rng = np.random.default_rng(int(config_fingerprint(config)[:16], 16))
    times = np.arange(timeline.bin_width / 2, timeline.end, timeline.bin_width)
    high = config.capacity_bps * 0.8
    low = config.capacity_bps * 0.45 if config.cca else high
    share = config.capacity_bps * 0.35 if config.cca else 0.0
    contended = (times >= timeline.iperf_start) & (times < timeline.iperf_stop)
    rtt_t = np.linspace(1.0, timeline.end - 1.0, 40)
    rtt_v = rng.uniform(0.02, 0.05, 40) + (0.01 if config.cca else 0.0)
    return RunResult(
        system=config.system,
        cca=config.cca,
        capacity_bps=config.capacity_bps,
        queue_mult=config.queue_mult,
        seed=config.seed,
        timeline_scale=timeline.scale,
        times=times,
        game_bps=np.where(contended, low, high)
        + rng.normal(0.0, 2e5, times.size),
        iperf_bps=np.where(contended, share, 0.0),
        baseline_bps=high,
        fairness_game_bps=low,
        fairness_iperf_bps=share,
        solo_bps=high,
        rtt_samples=np.column_stack([rtt_t, rtt_v]),
        game_loss_rate=0.02 if config.cca else 0.002,
        displayed_fps_contention=50.0 if config.cca else 58.0,
        displayed_fps_solo=60.0,
        frames_displayed=500,
        frames_dropped=4,
        qdisc=config.qdisc,
    )


def render(store_dir: Path) -> dict:
    """Every registered format of the store's report, as file texts.

    ``report.json`` embeds the store path string, so stores that are to
    compare equal are rendered from same-named relative roots.
    """
    here = os.getcwd()
    os.chdir(store_dir.parent)
    try:
        report = aggregate_store(RunStore(store_dir.name))
        return {
            name: get_formatter(name)(report) for name in formatter_names()
        }
    finally:
        os.chdir(here)


def _disk_counts(*roots: Path) -> dict:
    files = [
        path for root in roots for path in root.rglob("*") if path.is_file()
    ]
    return {
        "store.runstore.files_written": len(files),
        "store.runstore.bytes_written": sum(p.stat().st_size for p in files),
    }


class GridWrite(Workload):
    name = "grid-write"
    shard_size = 9

    def setup(self, ctx: Context) -> None:
        self.configs = grid_configs(ctx)
        self.sim_s = sum(c.timeline.end for c in self.configs)
        self.first_digest = None

    def run(self, ctx: Context) -> Outcome:
        spans, configs = ctx.spans, self.configs
        root = ctx.fresh_dir("grid")
        serial = RunStore(root / "serial" / "store")
        coord = RunStore(root / "dist" / "store")
        stores = [RunStore(root / "w-file"), RunStore(root / "w-http")]

        with spans.span("store.scheduler.run_s"):
            scheduled = CampaignScheduler(
                store=serial, run_fn=synthetic_run
            ).run(configs)
        with spans.span("dist.coordinator.enqueue_s"):
            enqueued = Coordinator(
                coord, shard_size=self.shard_size
            ).enqueue(configs)
        with spans.span("dist.worker.file_run_s"):
            by_file = DistWorker(
                coord, store=stores[0], worker_id="bench-file",
                max_shards=max(enqueued.shards // 2, 1),
                run_fn=synthetic_run,
            ).run()
        service = CampaignService(coord, port=0).start()
        try:
            with spans.span("dist.worker.http_run_s"):
                by_http = DistWorker(
                    store=stores[1], queue_url=service.url,
                    worker_id="bench-http", run_fn=synthetic_run,
                ).run()
            with spans.span("store.sync.merge_s"):
                merged = merge_stores(coord, stores[0])
        except BaseException:
            service.shutdown()
            raise
        return Outcome(
            # Every grid run is persisted once per write seam.
            runs=2 * len(configs),
            sim_s=2 * self.sim_s,
            # ``verify`` stops the service: ``shutdown`` waits out the
            # server's 0.5 s poll interval, a coin toss worth a tenth of
            # an iteration, and says nothing about the fabric.
            keep={
                "service": service,
                "root": root, "serial": serial, "coord": coord,
                "scheduled": scheduled, "enqueued": enqueued,
                "workers": (by_file, by_http), "merged": merged,
            },
        )

    def verify(self, ctx: Context, out: Outcome) -> None:
        keep = out.keep
        keep.pop("service").shutdown()
        root, serial, coord = (keep.pop(k) for k in ("root", "serial", "coord"))
        scheduled, enqueued = keep.pop("scheduled"), keep.pop("enqueued")
        by_file, by_http = keep.pop("workers")
        merged = keep.pop("merged")
        total = len(self.configs)

        out.failed_runs = (
            len(scheduled.failures) + by_file.failed + by_http.failed
        )
        out.check("serial scheduler executed the grid",
                  scheduled.executed == total and not scheduled.failures)
        out.check("coordinator sharded every run",
                  enqueued.enqueued == total and enqueued.created)
        out.check("workers completed every shard, none lost",
                  by_file.shards_done + by_http.shards_done == enqueued.shards
                  and by_file.shards_lost + by_http.shards_lost == 0)
        out.check("workers executed every run once",
                  by_file.executed + by_http.executed == total
                  and by_file.failed + by_http.failed == 0)
        out.check("http worker pushed its objects, no conflict",
                  by_http.pushed == by_http.executed
                  and by_http.push_conflicts == 0)
        out.check("merge copied the file worker's objects cleanly",
                  merged.clean and merged.copied == by_file.executed)
        fingerprints = sorted(e["fp"] for e in coord.ls())
        out.check("merged store holds the grid",
                  len(fingerprints) == total
                  and fingerprints == sorted(e["fp"] for e in serial.ls()))
        out.digest = hashlib.sha256("".join(fingerprints).encode()).hexdigest()
        if self.first_digest is None:
            self.first_digest = out.digest
            # Rendering both stores costs as much as an iteration, so
            # only the first one (never a timed one) pays for it.
            out.check("merged store renders byte-identical to the serial one",
                      render(coord.root) == render(serial.root))
        out.check("digest repeats across iterations",
                  out.digest == self.first_digest)

        out.counts.update({
            "store.scheduler.executed": scheduled.executed,
            "store.scheduler.cache_hits": scheduled.cache_hits,
            "store.scheduler.retries": scheduled.retries,
            "dist.worker.shards_done":
                by_file.shards_done + by_http.shards_done,
            "dist.worker.stolen": by_file.stolen + by_http.stolen,
            "store.sync.copied": merged.copied,
        })
        out.counts.update(_disk_counts(root))


class GridRead(Workload):
    name = "grid-read"

    def setup(self, ctx: Context) -> None:
        self.configs = grid_configs(ctx)
        self.sim_s = sum(c.timeline.end for c in self.configs)
        self.root = ctx.workdir / "read-store"
        store = RunStore(self.root)
        for config in self.configs:
            store.put(config, synthetic_run(config))
        self.first_digest = None

    def run(self, ctx: Context) -> Outcome:
        spans = ctx.spans
        store = RunStore(self.root)
        with spans.span("store.scheduler.cached_run_s"):
            campaign = Campaign(store=store).run(self.configs)
        with spans.span("store.index.build_s"):
            index = StoreIndex.open(store, rebuild=True)
        selected = index.select(cca=["cubic", "bbr"])
        with spans.span("report.aggregate.aggregate_s"):
            report = aggregate_store(store, index=index)
        with spans.span("report.formatters.format_s"):
            files = {
                name: get_formatter(name)(report)
                for name in formatter_names()
            }
        return Outcome(
            # Every stored run is served twice: to the campaign, then
            # to the aggregation.
            runs=2 * len(self.configs),
            sim_s=2 * self.sim_s,
            keep={"campaign": campaign, "selected": selected,
                  "report": report, "files": files},
        )

    def verify(self, ctx: Context, out: Outcome) -> None:
        keep = out.keep
        sched = keep.pop("campaign").report
        selected, report, files = (
            keep.pop(k) for k in ("selected", "report", "files")
        )
        total = len(self.configs)
        out.failed_runs = len(sched.failures)
        out.check("campaign executed no simulation",
                  sched.executed == 0 and sched.cache_hits == total)
        out.check("selection found every contended run",
                  len(selected) == sum(1 for c in self.configs if c.cca))
        out.check("aggregated every run, skipped none",
                  report.total_runs == total and not report.skipped)
        out.check("every formatter rendered",
                  all(files.values()))
        out.digest = hashlib.sha256(
            json.dumps(files, sort_keys=True).encode()
        ).hexdigest()
        if self.first_digest is None:
            self.first_digest = out.digest
        out.check("digest repeats across iterations",
                  out.digest == self.first_digest)
        out.counts.update({
            "store.scheduler.executed": sched.executed,
            "store.scheduler.cache_hits": sched.cache_hits,
            "store.scheduler.retries": sched.retries,
            "report.aggregate.runs_aggregated": report.total_runs,
            "report.aggregate.skipped": len(report.skipped),
        })


#: Why each workload exists is recorded in ``BENCHMARK.json``.
WORKLOADS = {
    w.name: w for w in (
        Cell("cell-cubic-2x", "stadia", 25e6, 2.0, "cubic"),
        Cell("cell-bbr-halfx", "luna", 15e6, 0.5, "bbr"),
        CampaignPool(),
        GridWrite(),
        GridRead(),
    )
}


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def _wait_for_children(timeout_s: float = 10.0) -> None:
    """Let finished pool workers be reaped, so their CPU time counts.

    The scheduler shuts its pool down without waiting; unreaped workers
    are missing from ``RUSAGE_CHILDREN`` and still hold a core when the
    next iteration starts.
    """
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.002)


def _cpu_s() -> float:
    """User + system CPU of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """High-water mark of the largest process of the workload, MiB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


class Tally:
    """Operations attempted and failed across every checked iteration."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, out: Outcome) -> None:
        self.attempted += out.runs + len(out.checks)
        self.failed += out.failed_runs
        for what, passed in out.checks:
            if not passed:
                self.failed += 1
                self.failures.append(what)
        if out.failed_runs:
            self.failures.append(f"{out.failed_runs} run(s) failed")


def measure(workload, ctx: Context, seconds: float, tally: Tally) -> dict:
    for _ in range(workload.warmups):
        tally.add(workload.warmup(ctx))
    samples = {"wall_s": [], "cpu_s": [], "sim_s_per_wall_s": [],
               "runs_per_s": []}
    digest = ""
    begin = time.perf_counter()
    while not samples["wall_s"] or time.perf_counter() - begin < seconds:
        out = workload.checked(ctx)
        tally.add(out)
        samples["wall_s"].append(out.wall_s)
        samples["cpu_s"].append(out.cpu_s)
        samples["sim_s_per_wall_s"].append(out.sim_s / out.wall_s)
        samples["runs_per_s"].append(out.runs / out.wall_s)
        digest = out.digest
    samples["peak_rss_mb"] = [_peak_rss_mb()]
    return {"samples": samples, "info": {"digest": digest}}


def layer_table(passes: list, untraced_wall_s: float) -> tuple[dict, dict]:
    """Per layer: median self time over the hook passes, call counts of
    the first (and whether they repeated), raw and corrected shares.

    The hook's residual cost lands on whichever layer makes the most
    calls, so the corrected share subtracts the calibrated cost of every
    Python and C call the layer made.  Traced seconds are not untraced
    seconds (the interpreter runs unspecialised bytecode under a profile
    hook); ``est_untraced_s`` scales the corrected share back to the
    untraced wall.
    """
    layers = {}
    for name in (*HOOK_LAYERS, OTHER):
        rows = [totals[name] for _, totals in passes]
        layers[name] = {
            "self_s": statistics.median(r["self_s"] for r in rows),
            "calls": rows[0]["calls"],
            "inherited_calls": rows[0]["inherited_calls"],
            "c_calls": rows[0]["c_calls"],
            "calls_repeat": all(r["calls"] == rows[0]["calls"] for r in rows),
        }
    hook_cost = LayerProfiler.calibrate()
    corrected = {
        name: max(
            row["self_s"]
            - hook_cost["py_call_s"] * (row["calls"] + row["inherited_calls"])
            - hook_cost["c_call_s"] * row["c_calls"],
            0.0,
        )
        for name, row in layers.items()
    }
    raw_total = sum(row["self_s"] for row in layers.values()) or 1.0
    corrected_total = sum(corrected.values()) or 1.0
    for name, row in layers.items():
        row["share_raw"] = row["self_s"] / raw_total
        row["share_corrected"] = corrected[name] / corrected_total
        row["est_untraced_s"] = row["share_corrected"] * untraced_wall_s
    return layers, hook_cost


def isolation_checks(workload, layers: dict) -> Outcome:
    """The interaction table's zero rows.

    Work in a layer the workload is defined not to touch means the
    workload no longer isolates the layers it exists to measure.
    """
    out = Outcome()
    if isinstance(workload, Cell):
        quiet = [n for n in FABRIC_LAYERS
                 if n.startswith(("store.", "dist.", "report."))]
        out.check("named layers hold >= 95% of attributed time",
                  layers[OTHER]["share_raw"] <= 0.05)
        out.check("layer call counts repeat across hook passes",
                  all(row["calls_repeat"] for row in layers.values()))
    elif isinstance(workload, (GridWrite, GridRead)):
        quiet = [n for n in SIM_LAYERS
                 if n.startswith(("sim.", "tcp.", "streaming.", "testbed"))]
    else:
        quiet = []
    for name in quiet:
        out.check(f"{name}.calls is 0 on {workload.name}",
                  layers[name]["calls"] == 0)
    return out


def trace(workload, ctx: Context, seconds: float, tally: Tally) -> dict:
    begin = time.perf_counter()

    # (a) plain: the untraced wall the overhead is a multiple of.
    out = workload.checked(ctx)
    tally.add(out)
    untraced_wall_s = out.wall_s
    metrics = dict(out.counts)
    info = dict(out.info)

    # (b) spans and counting wrappers, no hook: realistic latencies.
    wrappers = Wrappers(ctx.spans)
    wrappers.install()
    ctx.spans.enabled = True
    try:
        out = workload.span_pass(ctx)
    finally:
        ctx.spans.enabled = False
        wrappers.remove()
    tally.add(out)
    metrics.update(out.counts)
    metrics.update(wrappers.metrics())
    for name in STAGE_SPANS:
        metrics[name] = ctx.spans.total(name)

    # (c) the hook: self time and call counts per layer, repeated until
    # the three passes together have measured for ``seconds``.
    passes = []
    while not passes or time.perf_counter() - begin < seconds:
        profiler = LayerProfiler()
        out = workload.checked(ctx, instrument=profiler)
        out.check("every executed module has a layer", not profiler.unmapped)
        tally.add(out)
        passes.append((out.wall_s, profiler.totals()))
    layers, hook_cost = layer_table(passes, untraced_wall_s)
    tally.add(isolation_checks(workload, layers))

    for name in HOOK_LAYERS:
        metrics[f"{name}.self_s"] = layers[name]["self_s"]
        metrics[f"{name}.calls"] = layers[name]["calls"]
    metrics["trace.py_calls"] = sum(
        row["calls"] + row["inherited_calls"] for row in layers.values()
    )
    traced_wall_s = statistics.median(wall for wall, _ in passes)
    metrics["trace.overhead_x"] = traced_wall_s / untraced_wall_s
    info.update({
        "hook": {
            "passes": len(passes),
            "untraced_wall_s": untraced_wall_s,
            "traced_wall_s": traced_wall_s,
            "attributed_s": sum(r["self_s"] for r in layers.values()),
            **hook_cost,
        },
        "layers": layers,
        "latency_samples": {
            "put_ms": len(wrappers.put_ms), "get_ms": len(wrappers.get_ms),
            "request_ms": len(wrappers.request_ms),
        },
    })
    return {"per_layer": metrics, "info": info, "spans": ctx.spans.dump()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workdir", type=Path, required=True,
                        help="existing scratch directory owned by the caller")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report setup_s, exit")
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be positive")

    workload = WORKLOADS[args.workload]
    workdir = args.workdir / str(os.getpid())
    workdir.mkdir()
    ctx = Context(
        seed=args.seed, scale=args.scale, workdir=workdir,
        spans=SpanRecorder(workload.name, enabled=False),
    )
    workload.setup(ctx)
    doc: dict = {
        "setup_s": time.perf_counter() - _T0,
        "scheduler": os.environ.get("REPRO_SCHEDULER", DEFAULT_SCHEDULER),
    }
    if not args.setup_only:
        tally = Tally()
        run = trace if args.trace else measure
        doc.update(run(workload, ctx, args.seconds, tally))
        doc.update(attempted=tally.attempted, failed=tally.failed,
                   failures=tally.failures)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
