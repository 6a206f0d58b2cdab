"""The file-backed, crash-safe shard queue.

A distributed campaign's unit of work is a **shard**: a batch of run
fingerprints plus the config identities that produce them.  Shards live
as JSON files under the coordinator store::

    <store>/campaigns/<id>/queue/
      spec.json                  # campaign spec: totals, shard map, TTL
      pending/<sid>.json         # unclaimed shards
      claimed/<sid>.json         # leased shards
      claimed/<sid>.lease.json   # lease record: worker, deadline, renewals
      done/<sid>.json            # completed shards
      done/<sid>.info.json       # winner's completion record (best effort)
      workers/<wid>.json         # worker heartbeats (atomic rewrites)
      failures.jsonl             # released-with-error trail (append-only)

Every state transition is a single ``os.rename`` of the shard file
itself -- ``pending -> claimed`` (claim), ``claimed -> pending`` (steal
after lease expiry, or an explicit release), ``claimed -> done``
(completion) -- so exactly one mover wins any race (the losers get
``FileNotFoundError`` and move on) and a crash mid-transition can never
duplicate or lose a shard.

Leases are TTL-based and carry their own clock: claim and renew write
an explicit **deadline** (``clock() + ttl``) into the ``.lease.json``
sidecar, so expiry never depends on file mtimes -- which break under
cross-host clock skew and coarse-granularity filesystems.  Whoever
performs the mutation supplies the clock: in the shared-directory
deployment that is the claiming worker, and in the HTTP deployment
every lease mutation happens server-side, so deadlines and expiry
checks share one clock (the ``renewals`` counter in the sidecar is the
monotonic stamp of that server-side lease history).  Anyone -- an idle
worker, the watching coordinator -- may steal a claim whose deadline
has passed by renaming it back to ``pending/``; a sidecar missing or
torn mid-write falls back to the claimed file's mtime.  A stolen worker
that later finishes anyway is harmless: results are content-addressed
in the run store, so the queue's job is only to make sure every shard
is *eventually* completed and counted **once** -- the first ``done/``
rename wins, every later completion attempt is a detected no-op (see
:meth:`ShardQueue.complete`).

The queue deliberately has no server and no locks beyond rename
atomicity: point N worker processes (local, or remote hosts sharing the
directory) at the same queue root and the campaign converges as long as
at least one of them stays alive.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.config import RunConfig
from repro.experiments.profiles import Timeline
from repro.store.runstore import _atomic_write_bytes

__all__ = [
    "QueueError",
    "Shard",
    "ShardQueue",
    "check_id",
    "config_from_identity",
    "default_worker_id",
]

#: Bump on queue layout changes; mismatched specs refuse to load.
QUEUE_FORMAT = 1


class QueueError(RuntimeError):
    """A queue directory is missing, torn, or from another format."""


def check_id(kind: str, value) -> str:
    """Return ``value`` if it may name a ``kind`` (shard or worker) file.

    Queue ids become file names (``workers/<worker>.json``,
    ``claimed/<shard>.lease.json``, ...), so an id must be one plain
    name: a non-empty string with no path separator, no NUL and no
    leading dot.  A shard id has no dot at all: that is how
    :meth:`ShardQueue._shard_files` tells shard files from their
    sidecars.  Raises ``ValueError`` otherwise.
    """
    if (
        not isinstance(value, str) or not value or value.startswith(".")
        or any(c in value for c in "/\\\0")
        or (kind == "shard" and "." in value)
    ):
        raise ValueError(f"bad {kind} id {value!r}")
    return value


def default_worker_id() -> str:
    """Host-unique default identity for a worker process."""
    return f"{socket.gethostname()}-{os.getpid()}"


def config_from_identity(identity: dict) -> RunConfig:
    """Reconstruct a :class:`RunConfig` from its fingerprint identity.

    The inverse of :func:`repro.store.fingerprint.config_identity`:
    shard files carry identities (plain JSON), workers rebuild configs.
    """
    return RunConfig(
        system=identity["system"],
        capacity_bps=float(identity["capacity_bps"]),
        queue_mult=float(identity["queue_mult"]),
        cca=identity.get("cca"),
        seed=int(identity["seed"]),
        timeline=Timeline(scale=float(identity["timeline_scale"])),
        qdisc=identity.get("qdisc", "droptail"),
    )


@dataclass(frozen=True)
class Shard:
    """One claimed unit of work."""

    id: str
    campaign_id: str
    configs: tuple
    fingerprints: tuple

    @property
    def runs(self) -> int:
        return len(self.fingerprints)

    def to_doc(self) -> dict:
        """The shard's JSON form: a queue shard file, a claim reply."""
        return {
            "shard": self.id,
            "campaign_id": self.campaign_id,
            "configs": list(self.configs),
            "fingerprints": list(self.fingerprints),
        }

    @classmethod
    def from_doc(cls, doc: dict, campaign_id: str) -> "Shard":
        """Inverse of :meth:`to_doc` (``campaign_id`` is the default)."""
        return cls(
            id=doc["shard"],
            campaign_id=doc.get("campaign_id", campaign_id),
            configs=tuple(doc.get("configs", ())),
            fingerprints=tuple(doc.get("fingerprints", ())),
        )


class ShardQueue:
    """One campaign's work queue (see the module docstring for layout).

    Args:
        root: the ``.../queue`` directory.
        ttl_s: lease time-to-live; ``None`` reads it from ``spec.json``.
        clock: epoch-seconds injection point.  Lease deadlines are
            written as ``clock() + ttl`` at claim/renew time and expiry
            compares stored deadlines against the same clock, so tests
            age leases by injecting a clock instead of sleeping.
    """

    def __init__(self, root: str | Path, ttl_s: float | None = None, clock=time.time):
        self.root = Path(root)
        self.spec_path = self.root / "spec.json"
        self.pending_dir = self.root / "pending"
        self.claimed_dir = self.root / "claimed"
        self.done_dir = self.root / "done"
        self.workers_dir = self.root / "workers"
        self.failures_path = self.root / "failures.jsonl"
        self._clock = clock
        self._spec: dict | None = None
        self._ttl_override = ttl_s

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def exists(root: str | Path) -> bool:
        """Whether a fully-created queue lives at ``root``."""
        return (Path(root) / "spec.json").exists()

    @classmethod
    def create(
        cls,
        root: str | Path,
        campaign_id: str,
        shards: list[dict],
        cached_runs: int,
        total_runs: int,
        ttl_s: float = 60.0,
        matrix: dict | None = None,
        clock=time.time,
    ) -> "ShardQueue":
        """Materialise a new queue: shard files first, spec last.

        The spec is written after every pending shard, so its existence
        marks the queue complete -- a coordinator crash mid-create
        leaves no spec and the next invocation rebuilds from scratch.
        """
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        queue = cls(root, clock=clock)
        if queue.spec_path.exists():
            raise QueueError(f"queue already exists at {queue.root}; open it instead")
        for d in (queue.pending_dir, queue.claimed_dir, queue.done_dir, queue.workers_dir):
            d.mkdir(parents=True, exist_ok=True)
        shard_runs = {}
        for shard in shards:
            sid = check_id("shard", shard["shard"])
            shard_runs[sid] = len(shard["fingerprints"])
            _atomic_write_bytes(
                queue.pending_dir / f"{sid}.json", json.dumps(shard).encode()
            )
        spec = {
            "format": QUEUE_FORMAT,
            "campaign_id": campaign_id,
            "total_runs": total_runs,
            "cached_runs": cached_runs,
            "shard_runs": shard_runs,
            "ttl_s": ttl_s,
            "created_ts": clock(),
        }
        if matrix is not None:
            spec["matrix"] = matrix
        _atomic_write_bytes(queue.spec_path, json.dumps(spec).encode())
        queue._spec = spec
        return queue

    @classmethod
    def open(cls, root: str | Path, ttl_s: float | None = None, clock=time.time) -> "ShardQueue":
        queue = cls(root, ttl_s=ttl_s, clock=clock)
        queue.spec  # force the load (and the format check)
        return queue

    @property
    def spec(self) -> dict:
        if self._spec is None:
            try:
                spec = json.loads(self.spec_path.read_text())
            except OSError as exc:
                raise QueueError(f"no queue at {self.root} ({exc})") from exc
            except ValueError as exc:
                raise QueueError(f"torn queue spec at {self.spec_path}") from exc
            if spec.get("format") != QUEUE_FORMAT:
                raise QueueError(
                    f"queue at {self.root} has format {spec.get('format')}, "
                    f"this build reads format {QUEUE_FORMAT}"
                )
            self._spec = spec
        return self._spec

    @property
    def campaign_id(self) -> str:
        return self.spec["campaign_id"]

    @property
    def ttl_s(self) -> float:
        if self._ttl_override is not None:
            return self._ttl_override
        return float(self.spec.get("ttl_s", 60.0))

    # ------------------------------------------------------------------
    # The lease protocol
    # ------------------------------------------------------------------
    def claim(self, worker_id: str) -> Shard | None:
        """Atomically claim one pending shard, or None when none remain.

        The rename is the lock: of N workers racing for the same shard
        file exactly one rename succeeds, the rest skip to the next
        pending file.
        """
        for path in sorted(self.pending_dir.glob("*.json")):
            target = self.claimed_dir / path.name
            try:
                os.rename(path, target)
            except FileNotFoundError:
                continue  # lost the race for this shard
            except OSError:
                continue  # e.g. a concurrent gc of the queue dir
            # Lease starts now: mtime for the sidecar-less fallback
            # window, then the explicit deadline record.
            os.utime(target)
            self._write_lease(path.stem, worker_id, renewals=0)
            try:
                data = json.loads(target.read_text())
            except ValueError:
                # A torn shard file cannot be run; park it in done/ as
                # damaged rather than ping-ponging between workers.
                os.rename(target, self.done_dir / f"{path.stem}.json")
                self._drop_lease(path.stem)
                _atomic_write_bytes(
                    self.done_dir / f"{path.stem}.info.json",
                    json.dumps({"shard": path.stem, "worker": worker_id,
                                "damaged": True, "ts": self._clock()}).encode(),
                )
                continue
            # The file name is the id every later verb is keyed on.
            return Shard.from_doc(
                {**data, "shard": path.stem}, self.campaign_id
            )
        return None

    def renew(self, shard_id: str, worker_id: str | None = None) -> bool:
        """Refresh the lease; False means the claim is no longer renewable.

        A renewal writes a fresh deadline (``clock() + ttl``) into the
        lease sidecar.  With ``worker_id`` given, the renewal is keyed
        to the lease holder: after a steal *and* a re-claim by another
        worker, the original worker's renew is rejected instead of
        silently refreshing somebody else's lease.  A steal racing this
        renewal surfaces as ``FileNotFoundError`` on the claimed file
        and is reported as a lost lease, never raised.
        """
        name = f"{shard_id}.json"
        lease = self.lease(shard_id)
        if (
            lease is not None
            and worker_id is not None
            and lease.get("worker") not in (None, worker_id)
        ):
            return False  # stolen and re-claimed: the lease has a new owner
        try:
            # mtime tracks the renewal too, so the sidecar-less fallback
            # (torn lease record) stays conservative.
            os.utime(self.claimed_dir / name)
        except FileNotFoundError:
            return False  # stolen or completed while we were deciding
        renewals = int(lease.get("renewals", 0)) + 1 if lease else 1
        owner = worker_id if worker_id is not None else (
            (lease or {}).get("worker")
        )
        self._write_lease(shard_id, owner, renewals=renewals)
        return True

    def expired(self) -> list[str]:
        """Claimed shards whose lease deadline has passed.

        The deadline stored in the lease sidecar is authoritative; a
        claim whose sidecar is missing or torn (crash between the claim
        rename and the lease write, or a legacy queue) falls back to
        the claimed file's mtime plus the TTL.
        """
        stale = []
        now = self._clock()
        for path in self._shard_files(self.claimed_dir):
            lease = self.lease(path.stem)
            if lease is not None and "deadline" in lease:
                if now > float(lease["deadline"]):
                    stale.append(path.stem)
                continue
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue  # moved while scanning
            if now - mtime > self.ttl_s:
                stale.append(path.stem)
        return sorted(stale)

    def steal_expired(self) -> list[str]:
        """Move expired claims back to pending; returns what was stolen.

        Safe to call from any process: the rename races exactly like
        :meth:`claim`, so concurrent stealers cannot duplicate a shard,
        and a renew racing the steal at worst leaves an orphan lease
        sidecar (dropped here and by :meth:`gc_leases`, and rewritten
        wholesale by the next claim).
        """
        stolen = []
        for sid in self.expired():
            name = f"{sid}.json"
            try:
                os.rename(self.claimed_dir / name, self.pending_dir / name)
            except FileNotFoundError:
                continue  # renewed, completed, or stolen by someone else
            self._drop_lease(sid)
            stolen.append(sid)
        return stolen

    def release(self, shard_id: str, worker_id: str | None = None,
                error: str | None = None) -> bool:
        """Hand a claimed shard back to pending without waiting for TTL.

        The explicit give-back a worker uses when it cannot finish a
        shard (scheduler blew up, shutdown requested): the next claimant
        retries immediately instead of after lease expiry.  ``error`` is
        appended to the queue's ``failures.jsonl`` trail (best effort).
        Returns False when the shard was not claimed (already stolen,
        released, or completed).
        """
        name = f"{shard_id}.json"
        try:
            os.rename(self.claimed_dir / name, self.pending_dir / name)
        except FileNotFoundError:
            return False
        self._drop_lease(shard_id)
        if error is not None:
            record = {"shard": shard_id, "worker": worker_id,
                      "error": str(error)[:500], "ts": self._clock()}
            try:
                with open(self.failures_path, "a") as fh:
                    fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            except OSError:  # pragma: no cover - queue being torn down
                pass
        return True

    def complete(self, shard_id: str, worker_id: str | None = None,
                 info: dict | None = None) -> bool:
        """Mark a shard done; returns False when it was already counted.

        The normal path renames ``claimed -> done``.  If the claim was
        stolen while this worker kept running (its results are in the
        store regardless), the shard may sit in ``pending`` (stolen, not
        yet reclaimed) -- completing from there is equally valid -- or
        already be in ``done`` (the stealer finished first), in which
        case this completion is the idempotent no-op the campaign
        accounting relies on: one ``done/`` file, counted once.
        """
        name = f"{shard_id}.json"
        destination = self.done_dir / name
        for source_dir in (self.claimed_dir, self.pending_dir):
            try:
                os.rename(source_dir / name, destination)
                break
            except FileNotFoundError:
                continue
        else:
            return False
        self._drop_lease(shard_id)
        if info is not None or worker_id is not None:
            record = {"shard": shard_id, "worker": worker_id,
                      "ts": self._clock(), **(info or {})}
            _atomic_write_bytes(
                self.done_dir / f"{shard_id}.info.json",
                json.dumps(record).encode(),
            )
        return True

    # ------------------------------------------------------------------
    # Lease records
    # ------------------------------------------------------------------
    def _lease_path(self, shard_id: str) -> Path:
        return self.claimed_dir / f"{shard_id}.lease.json"

    def _write_lease(self, shard_id: str, worker_id: str | None,
                     renewals: int) -> None:
        now = self._clock()
        _atomic_write_bytes(
            self._lease_path(shard_id),
            json.dumps({
                "shard": shard_id,
                "worker": worker_id,
                "deadline": now + self.ttl_s,
                "renewals": renewals,
                "ts": now,
            }, separators=(",", ":")).encode(),
        )

    def _drop_lease(self, shard_id: str) -> None:
        try:
            self._lease_path(shard_id).unlink()
        except OSError:
            pass  # never written, or already dropped by a racing mover

    def lease(self, shard_id: str) -> dict | None:
        """The current lease record, or None when missing/torn."""
        try:
            return json.loads(self._lease_path(shard_id).read_text())
        except (OSError, ValueError):
            return None

    def gc_leases(self) -> int:
        """Drop lease sidecars whose claimed shard file is gone.

        A renew racing a steal can recreate a sidecar after the shard
        left ``claimed/``; such orphans are inert (expiry reads shard
        files first) but this janitor keeps the directory clean.  Safe
        from any process; returns how many orphans were removed.
        """
        if not self.claimed_dir.is_dir():
            return 0
        removed = 0
        for path in sorted(self.claimed_dir.glob("*.lease.json")):
            sid = path.name[: -len(".lease.json")]
            if not (self.claimed_dir / f"{sid}.json").exists():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue  # claimed again (new sidecar) or gone already
        return removed

    # ------------------------------------------------------------------
    # Worker presence
    # ------------------------------------------------------------------
    def worker_beat(self, worker_id: str, /, **info) -> None:
        """Publish a worker's state; ``worker``/``ts`` override ``info``."""
        record = {**info, "worker": worker_id, "ts": self._clock()}
        _atomic_write_bytes(
            self.workers_dir / f"{worker_id}.json",
            json.dumps(record, separators=(",", ":")).encode(),
        )

    def workers(self) -> list[dict]:
        """Every worker heartbeat this queue has seen (latest states)."""
        seen = []
        if not self.workers_dir.is_dir():
            return seen
        for path in sorted(self.workers_dir.glob("*.json")):
            try:
                seen.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                continue  # torn write or concurrent removal
        return seen

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def _shard_files(directory: Path):
        # Completion info sidecars (<sid>.info.json) share the suffix;
        # shard ids never contain a dot, so the stem filter drops them.
        if not directory.is_dir():
            return
        for path in sorted(directory.glob("*.json")):
            if "." not in path.stem:
                yield path

    def _sids(self, directory: Path) -> list[str]:
        return [path.stem for path in self._shard_files(directory)]

    def status(self) -> dict:
        """One snapshot of the whole queue (counts, lists, completions)."""
        spec = self.spec
        shard_runs = {k: int(v) for k, v in spec.get("shard_runs", {}).items()}
        pending = self._sids(self.pending_dir)
        claimed = self._sids(self.claimed_dir)
        done = self._sids(self.done_dir)
        totals = {"executed": 0, "cache_hits": 0, "failed": 0,
                  "retries": 0, "timeouts": 0, "pool_breaks": 0}
        for sid in done:
            info_path = self.done_dir / f"{sid}.info.json"
            try:
                info = json.loads(info_path.read_text())
            except (OSError, ValueError):
                continue  # completion recorded without a sidecar
            for key in totals:
                totals[key] += int(info.get(key, 0))
        runs = lambda sids: sum(shard_runs.get(sid, 0) for sid in sids)  # noqa: E731
        leases = {}
        for sid in claimed:
            lease = self.lease(sid)
            if lease is not None:
                leases[sid] = {"worker": lease.get("worker"),
                               "deadline": lease.get("deadline"),
                               "renewals": lease.get("renewals")}
        return {
            "campaign_id": spec["campaign_id"],
            "total_runs": int(spec["total_runs"]),
            "cached_runs": int(spec.get("cached_runs", 0)),
            "ttl_s": self.ttl_s,
            "shards": len(shard_runs),
            "pending": pending,
            "claimed": claimed,
            "done": done,
            "leases": leases,
            "pending_runs": runs(pending),
            "claimed_runs": runs(claimed),
            "done_runs": runs(done),
            "expired": self.expired(),
            **totals,
        }

    def drained(self) -> bool:
        """No work left: nothing pending and nothing claimed."""
        return not self._sids(self.pending_dir) and not self._sids(self.claimed_dir)
