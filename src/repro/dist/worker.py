"""The distributed worker loop: claim, run, complete, repeat.

A :class:`DistWorker` reaches its shard queues through a **transport**
(:mod:`repro.dist.transport`) and writes results to its own **result
store**.  Two deployments, one loop:

- shared directory (:class:`~repro.dist.transport.FileTransport`):
  queues live in a mounted coordinator store; results land in the
  worker's store and ``repro-gsnet store merge`` folds them back;
- no shared filesystem (:class:`~repro.dist.transport.HttpTransport`,
  ``--queue-url``): claims and completions are JSON calls against a
  ``repro-gsnet dist serve`` endpoint, finished objects are pushed back
  over ``PUT /objects/<fp>``, and the coordinator's cached objects for
  a shard are pulled down first so reruns execute nothing.

The loop:

1. list campaigns with a live queue; claim one shard (server-side this
   is still the atomic rename of :mod:`repro.dist.queue`, and expired
   leases are stolen on the same scan -- workers police each other);
2. start a background :class:`LeaseRenewer` thread refreshing the lease
   every ``ttl/4`` seconds;
3. (HTTP only) pull shard objects the local store lacks;
4. run the shard's configs through the existing
   :class:`~repro.store.scheduler.CampaignScheduler` -- cache-first,
   with the PR 4 retry/timeout/chaos semantics intact (``partial=True``:
   a persistently failing run is recorded, not fatal to the shard).  A
   scheduler crash *releases* the shard so the next claimant retries
   immediately instead of waiting out the TTL;
5. (HTTP only) push finished objects back, surfacing conflicts;
6. complete the shard.  If the lease was stolen mid-run and the stealer
   finished first, the completion is a detected no-op and the shard
   counts once.

A worker that dies mid-shard loses nothing but its lease: completed
runs are already in its store (merge or the next push recovers them as
cache hits), and the shard itself goes back to pending at TTL expiry.
Transient transport failures (coordinator restart, network blip) park
the loop in its idle path instead of killing it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.experiments.runner import run_single
from repro.store.chaos import ChaosRunner, ChaosSpec
from repro.store.scheduler import CampaignScheduler
from repro.store.sync import receive_object

from repro.dist.queue import Shard, config_from_identity, default_worker_id
from repro.dist.transport import FileTransport, HttpTransport, TransportError

__all__ = ["DistWorker", "LeaseRenewer", "WorkerReport"]

#: Exit status of a ``kill_after_runs`` self-kill (distinct from the
#: chaos crash code 73 so logs can tell worker-death injection from
#: pool-worker-death injection).
KILL_EXIT_CODE = 86


class LeaseRenewer(threading.Thread):
    """Refresh one shard's lease on a cadence until stopped.

    ``queue`` is anything with a ``renew(shard_id) -> bool`` method: a
    :class:`~repro.dist.queue.ShardQueue` directly, or the transport
    adapter the worker builds.  Runs as a daemon so a worker crash
    stops the renewals with it -- which is the point: the lease then
    expires and the shard is stolen.  Renewal *rejected* (claim stolen
    and re-claimed, or completed) flips :attr:`lost` and ends the
    thread; a renewal that merely *fails to reach the queue*
    (coordinator restarting) is retried next tick, because an
    unreachable server must not convince a healthy worker its lease is
    gone.  The worker keeps running on a lost lease regardless: results
    are content-addressed, so a duplicate execution is wasted CPU,
    never wrong data.
    """

    def __init__(self, queue, shard_id: str, interval_s: float):
        super().__init__(daemon=True, name=f"lease-{shard_id}")
        self.queue = queue
        self.shard_id = shard_id
        self.interval_s = max(interval_s, 0.05)
        self.lost = False
        # Not named _stop: Thread.join() calls an internal self._stop().
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval_s):
            try:
                renewed = self.queue.renew(self.shard_id)
            except (TransportError, OSError):
                continue  # transient: retry on the next tick
            if not renewed:
                self.lost = True
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


class _RenewHandle:
    """Adapts one claimed shard's transport renew to the renewer API."""

    def __init__(self, transport, cid: str, worker_id: str):
        self._transport = transport
        self._cid = cid
        self._worker_id = worker_id

    def renew(self, shard_id: str) -> bool:
        return self._transport.renew(self._cid, shard_id, self._worker_id)


@dataclass
class WorkerReport:
    """One worker invocation's lifetime totals."""

    worker_id: str = ""
    shards_done: int = 0
    shards_lost: int = 0      # completion was a no-op (stolen + finished)
    runs: int = 0             # executed + cache hits, this worker
    executed: int = 0
    cache_hits: int = 0
    failed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_breaks: int = 0
    stolen: int = 0           # expired leases this worker recycled
    pulled: int = 0           # objects fetched from the service pre-run
    pushed: int = 0           # objects uploaded to the service post-run
    push_conflicts: int = 0   # uploads the service refused (409)
    campaigns: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "shards_done": self.shards_done,
            "shards_lost": self.shards_lost,
            "runs": self.runs,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "failed": self.failed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_breaks": self.pool_breaks,
            "stolen": self.stolen,
            "pulled": self.pulled,
            "pushed": self.pushed,
            "push_conflicts": self.push_conflicts,
            "campaigns": list(self.campaigns),
        }


class DistWorker:
    """One worker process's claim/run/complete loop.

    Exactly one queue source: a mounted coordinator store
    (``coord_store``), a service endpoint (``queue_url``), or a
    pre-built ``transport``.

    Args:
        coord_store: store hosting the shard queues (file mode).
        store: where this worker writes results.  Defaults to
            ``coord_store`` in file mode; **required** with
            ``queue_url``, since an HTTP worker has no shared
            directory to fall back to.
        campaign: restrict to one campaign id (default: serve them all).
        worker_id: stable identity for leases/heartbeats.
        inner_workers: process-pool width per shard (the existing
            scheduler's ``workers``).
        seed_batch: group up to this many runs of a shard that differ
            only in their competitor into one prefix batch, which
            simulates their shared warm-up once (the scheduler's
            ``seed_batch``).
        retries/timeout: per-run semantics, passed to the scheduler.
        chaos: optional :class:`ChaosSpec` (or spec string) wrapped
            around ``run_fn``, same as ``campaign --chaos``.
        poll_s: idle delay between queue scans.
        exit_when_done: return once every visible queue is drained
            (False = keep polling for new campaigns, the fleet-daemon
            mode).
        max_shards: stop after completing this many shards.
        idle_timeout_s: give up after this long with nothing claimable
            (which is also the exit path when the service stays down).
        kill_after_runs: **test/CI hook** -- hard-exit the process
            (``os._exit(86)``) after this many runs complete, simulating
            a worker dying mid-shard with results already persisted.
        queue_url: a ``dist serve`` endpoint; work over HTTP instead of
            a shared directory.
        transport: explicit transport instance (overrides both).
        run_fn: per-config executor (picklable when
            ``inner_workers > 1``).
        sleep/clock: injection points.
    """

    def __init__(
        self,
        coord_store=None,
        store=None,
        campaign: str | None = None,
        worker_id: str | None = None,
        inner_workers: int = 1,
        seed_batch: int = 1,
        retries: int = 1,
        timeout: float | None = None,
        chaos: "ChaosSpec | str | None" = None,
        poll_s: float = 0.5,
        exit_when_done: bool = True,
        max_shards: int | None = None,
        idle_timeout_s: float | None = None,
        kill_after_runs: int | None = None,
        queue_url: str | None = None,
        transport=None,
        run_fn=run_single,
        sleep=time.sleep,
        clock=time.monotonic,
    ):
        if transport is not None:
            self.transport = transport
        elif queue_url is not None:
            self.transport = HttpTransport(queue_url)
        elif coord_store is not None:
            self.transport = FileTransport(coord_store)
        else:
            raise ValueError(
                "DistWorker needs a queue source: coord_store, "
                "queue_url, or transport"
            )
        if store is None:
            store = coord_store
        if store is None:
            raise ValueError(
                "a remote-queue worker needs its own result store "
                "(pass store=...)"
            )
        self.coord_store = coord_store
        self.store = store
        self.campaign = campaign
        self.worker_id = worker_id or default_worker_id()
        self.inner_workers = inner_workers
        self.seed_batch = seed_batch
        self.retries = retries
        self.timeout = timeout
        if isinstance(chaos, str):
            chaos = ChaosSpec.parse(chaos)
        self.run_fn = ChaosRunner(run_fn, chaos) if chaos is not None else run_fn
        self.poll_s = poll_s
        self.exit_when_done = exit_when_done
        self.max_shards = max_shards
        self.idle_timeout_s = idle_timeout_s
        self.kill_after_runs = kill_after_runs
        self._sleep = sleep
        self._clock = clock
        self._runs_completed = 0

    # ------------------------------------------------------------------
    def _campaigns(self) -> list[str]:
        """Campaign ids with a claimable queue, re-scanned each loop so
        campaigns enqueued after startup are picked up."""
        cids = self.transport.campaigns()
        if self.campaign is not None:
            cids = [cid for cid in cids if cid == self.campaign]
        return cids

    def run(self, progress=None) -> WorkerReport:
        """The worker loop; returns when done/idle per the exit policy."""
        report = WorkerReport(worker_id=self.worker_id)
        idle_since: float | None = None
        while True:
            try:
                cids = self._campaigns()
            except TransportError:
                cids = []  # service down: idle (and idle-timeout) path
            claimed: tuple[str, Shard] | None = None
            for cid in cids:
                try:
                    shard, stolen = self.transport.claim(cid, self.worker_id)
                except TransportError:
                    continue
                report.stolen += len(stolen)
                if shard is not None:
                    claimed = (cid, shard)
                    break
            if claimed is None:
                self._beat(cids, report, shard=None)
                if self.exit_when_done and cids and self._all_drained(cids):
                    return report
                now = self._clock()
                if idle_since is None:
                    idle_since = now
                if (
                    self.idle_timeout_s is not None
                    and now - idle_since >= self.idle_timeout_s
                ):
                    return report
                self._sleep(self.poll_s)
                continue

            idle_since = None
            cid, shard = claimed
            self._beat([cid], report, shard=shard.id)
            self._run_shard(cid, shard, report, progress)
            if shard.campaign_id not in report.campaigns:
                report.campaigns.append(shard.campaign_id)
            if (
                self.max_shards is not None
                and report.shards_done + report.shards_lost >= self.max_shards
            ):
                self._beat([cid], report, shard=None)
                return report

    def _all_drained(self, cids: list[str]) -> bool:
        try:
            return all(self.transport.drained(cid) for cid in cids)
        except TransportError:
            return False  # can't tell: keep polling

    # ------------------------------------------------------------------
    def _run_shard(self, cid: str, shard: Shard, report: WorkerReport,
                   progress) -> None:
        configs = [config_from_identity(identity) for identity in shard.configs]
        try:
            ttl_s = self.transport.ttl_s(cid)
        except TransportError:
            ttl_s = 60.0  # renew on the default cadence; ticks self-heal
        renewer = LeaseRenewer(
            _RenewHandle(self.transport, cid, self.worker_id),
            shard.id, interval_s=ttl_s / 4.0,
        )
        renewer.start()
        try:
            report.pulled += self._pull_missing(shard)
            scheduler = CampaignScheduler(
                workers=self.inner_workers,
                store=self.store,
                retries=self.retries,
                timeout=self.timeout,
                partial=True,
                checkpoint=False,   # the queue is the distributed checkpoint
                run_fn=self.run_fn,
                on_result=self._on_result,
                heartbeat_interval=None,  # the coordinator owns the heartbeat
                seed_batch=self.seed_batch,
            )
            shard_report = scheduler.run(configs)
        except Exception as exc:
            # Give the shard back *now* -- the next claimant retries
            # immediately instead of waiting out the lease TTL.
            try:
                self.transport.release(
                    cid, shard.id, self.worker_id,
                    error=f"{type(exc).__name__}: {exc}",
                )
            except TransportError:
                pass  # lease expiry remains the backstop
            raise
        finally:
            renewer.stop()
        pushed, conflicts = self._push_results(cid, shard, report)
        info = {
            "runs": len(configs),
            "executed": shard_report.executed,
            "cache_hits": shard_report.cache_hits,
            "failed": len(shard_report.failures),
            "retries": shard_report.retries,
            "timeouts": shard_report.timeouts,
            "pool_breaks": shard_report.pool_breaks,
            "pushed": pushed,
            "push_conflicts": conflicts,
        }
        try:
            completed = self.transport.complete(
                cid, shard.id, self.worker_id, info
            )
        except TransportError:
            # Results are safe (local store, pushed objects); the lease
            # expires and the stealer re-runs into cache hits.
            completed = False
        if completed:
            report.shards_done += 1
        else:
            # Stolen and finished by someone else first: the runs are in
            # our store (merge will dedupe them) but the shard was
            # already counted -- exactly once, by the winner.
            report.shards_lost += 1
        report.runs += shard_report.executed + shard_report.cache_hits
        report.executed += shard_report.executed
        report.cache_hits += shard_report.cache_hits
        report.failed += len(shard_report.failures)
        report.retries += shard_report.retries
        report.timeouts += shard_report.timeouts
        report.pool_breaks += shard_report.pool_breaks
        if progress is not None:
            progress(shard, shard_report, completed)

    def _pull_missing(self, shard: Shard) -> int:
        """Fetch shard objects the local store lacks (remote mode only).

        Makes the coordinator's cache visible to a private store: a
        rerun or a re-claimed shard becomes pure cache hits instead of
        re-executing.  A pull failure costs nothing but a (bit-identical)
        re-execution, so transport errors here are swallowed.
        """
        if not self.transport.remote:
            return 0
        pulled = 0
        for fp in shard.fingerprints:
            if self.store.contains_fp(fp):
                continue
            try:
                bundle = self.transport.pull_object(fp)
            except TransportError:
                continue
            if bundle is None:
                continue  # not cached server-side: we will run it
            entry, meta_bytes, npz_bytes = bundle
            try:
                receive_object(self.store, fp, entry, meta_bytes, npz_bytes)
            except ValueError:
                continue  # corrupt bundle: run it locally instead
            pulled += 1
        return pulled

    def _push_results(self, cid: str, shard: Shard,
                      report: WorkerReport) -> tuple[int, int]:
        """Upload this shard's finished objects (remote mode only)."""
        if not self.transport.remote:
            return 0, 0
        entries = {e["fp"]: e for e in self.store.ls()}
        pushed = conflicts = 0
        for fp in shard.fingerprints:
            entry = entries.get(fp)
            if entry is None:
                continue  # failed run: nothing to ship
            payload = self.store.object_bytes(fp)
            if payload is None:
                continue  # torn local object; gc's problem, not the wire's
            try:
                status = self.transport.push_object(entry, *payload)
            except TransportError:
                continue  # lease expiry re-runs this shard into cache hits
            if status == "stored":
                pushed += 1
            elif status == "conflict":
                conflicts += 1
        report.pushed += pushed
        report.push_conflicts += conflicts
        return pushed, conflicts

    def _on_result(self, result, done, total, cached) -> None:
        """Per-run hook: counts completions for the self-kill test hook.

        Runs *after* the scheduler persisted the result, so a kill here
        models the worst honest crash: results on disk, lease still
        held, completion never recorded.
        """
        self._runs_completed += 1
        if (
            self.kill_after_runs is not None
            and self._runs_completed >= self.kill_after_runs
        ):
            os._exit(KILL_EXIT_CODE)

    def _beat(self, cids: list[str], report: WorkerReport,
              shard: str | None) -> None:
        for cid in cids:
            self.transport.beat(
                cid,
                self.worker_id,
                shard=shard,
                shards_done=report.shards_done,
                runs=report.runs,
                executed=report.executed,
                cache_hits=report.cache_hits,
                failed=report.failed,
                stolen=report.stolen,
            )
