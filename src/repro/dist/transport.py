"""Queue transports: how a worker reaches a campaign's shard queue.

PR 7's fabric required every worker to mount the coordinator store;
this module makes the queue protocol *pluggable* so the same
:class:`~repro.dist.worker.DistWorker` loop runs over either medium:

- :class:`FileTransport` -- the shared-directory deployment.  Every
  operation goes straight to the :class:`~repro.dist.queue.ShardQueue`
  renames; object shipping is a no-op because ``store merge`` folds the
  worker stores afterwards.
- :class:`HttpTransport` -- the no-shared-filesystem deployment.  Claim,
  renew, complete, fail, and heartbeat are small JSON POSTs against a
  ``repro-gsnet dist serve`` endpoint (which applies them to the same
  atomic-rename queue server-side, so HTTP and file workers coexist on
  one campaign), and finished objects are pushed back with
  ``PUT /objects/<fp>`` -- the single-object form of the store merge.

Every HTTP call carries a bounded timeout, and transient transport
failures surface as :class:`TransportError` so the worker loop can keep
polling instead of dying with a traceback mid-campaign.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from http.client import HTTPException

from repro.store.sync import pack_object, unpack_object

from repro.dist.coordinator import queue_root
from repro.dist.queue import QueueError, Shard, ShardQueue

__all__ = [
    "FileTransport",
    "HttpTransport",
    "TransportError",
    "normalize_service_url",
]

#: Control-plane calls (claim/renew/complete/...) are tiny JSON bodies.
CONTROL_TIMEOUT_S = 10.0

#: Object up/downloads move arrays; give them more headroom.
OBJECT_TIMEOUT_S = 60.0


class TransportError(RuntimeError):
    """The queue endpoint is unreachable, slow, or answered garbage.

    Deliberately transient in spirit: the worker loop treats it as
    "nothing claimable this scan" and retries, because a coordinator
    restart must not kill the fleet (the queue directory is the state;
    the service holds none).  ``status`` is the HTTP status of an error
    reply, or None when no well-formed reply came back.
    """

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


def normalize_service_url(url: str) -> str:
    """Canonical service base for a bare host:port, root, or /status URL."""
    if "://" not in url:
        url = f"http://{url}"
    url = url.rstrip("/")
    if url.endswith("/status"):
        url = url[: -len("/status")]
    return url


class FileTransport:
    """Queue access through a mounted coordinator store (PR 7 semantics).

    Args:
        coord_store: the :class:`~repro.store.runstore.RunStore` hosting
            the shard queues.
        clock: epoch-seconds injection point handed to every queue, so
            lease deadlines written by this worker use one clock.
    """

    #: Objects do not travel on this transport; ``store merge`` does.
    remote = False

    def __init__(self, coord_store, clock=time.time):
        self.store = coord_store
        self._clock = clock
        self._queues: dict[str, ShardQueue] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FileTransport {self.store.root}>"

    def _queue(self, cid: str) -> ShardQueue:
        queue = self._queues.get(cid)
        if queue is None:
            try:
                queue = ShardQueue.open(
                    queue_root(self.store, cid), clock=self._clock
                )
            except QueueError as exc:
                # Torn or vanished mid-scan: transient to the worker loop.
                raise TransportError(str(exc)) from exc
            self._queues[cid] = queue
        return queue

    def campaigns(self) -> list[str]:
        """Campaign ids with a live queue, re-scanned every call."""
        return [
            cid for cid in self.store.campaign_ids()
            if ShardQueue.exists(queue_root(self.store, cid))
        ]

    def claim(self, cid: str, worker_id: str):
        """Steal expired leases, then claim one shard.

        Returns ``(shard_or_none, stolen_ids)`` -- stealing rides on the
        claim scan so idle workers police dead ones, exactly as before.
        """
        queue = self._queue(cid)
        stolen = queue.steal_expired()
        queue.gc_leases()
        return queue.claim(worker_id), stolen

    def renew(self, cid: str, shard_id: str, worker_id: str) -> bool:
        return self._queue(cid).renew(shard_id, worker_id)

    def complete(self, cid: str, shard_id: str, worker_id: str,
                 info: dict | None = None) -> bool:
        return self._queue(cid).complete(shard_id, worker_id, info)

    def release(self, cid: str, shard_id: str, worker_id: str,
                error: str | None = None) -> bool:
        return self._queue(cid).release(shard_id, worker_id, error)

    def beat(self, cid: str, worker_id: str, /, **info) -> None:
        try:
            self._queue(cid).worker_beat(worker_id, **info)
        except (TransportError, OSError):  # pragma: no cover - teardown
            pass

    def ttl_s(self, cid: str) -> float:
        return self._queue(cid).ttl_s

    def status(self, cid: str) -> dict:
        return self._queue(cid).status()

    def drained(self, cid: str) -> bool:
        return self._queue(cid).drained()

    def pull_object(self, fp: str):
        return None  # the local store *is* the medium; nothing to pull

    def push_object(self, entry: dict, meta_bytes: bytes,
                    npz_bytes: bytes) -> str:
        return "skipped"  # ``store merge`` ships objects in this mode


class HttpTransport:
    """Queue access over a ``repro-gsnet dist serve`` endpoint.

    Args:
        url: service base (bare ``host:port``, root, or ``/status`` URL).
        timeout_s: per-request bound for control-plane calls.
        object_timeout_s: per-request bound for object up/downloads.
    """

    #: Results must be pushed back; there is no shared directory.
    remote = True

    def __init__(self, url: str, timeout_s: float = CONTROL_TIMEOUT_S,
                 object_timeout_s: float = OBJECT_TIMEOUT_S):
        self.base = normalize_service_url(url)
        self.timeout_s = timeout_s
        self.object_timeout_s = object_timeout_s
        self._ttl: dict[str, float] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HttpTransport {self.base}>"

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, body: bytes | None = None,
                 content_type: str = "application/json",
                 timeout_s: float | None = None,
                 raw: bool = False):
        try:
            request = urllib.request.Request(
                self.base + path, data=body, method=method,
                headers={"Content-Type": content_type} if body is not None else {},
            )
            with urllib.request.urlopen(
                request, timeout=timeout_s or self.timeout_s
            ) as response:
                data = response.read()
        except urllib.error.HTTPError as exc:
            detail = self._error_body(exc)
            raise TransportError(
                f"{method} {path}: HTTP {exc.code} {detail}".rstrip(),
                status=exc.code,
            ) from exc
        except (OSError, HTTPException, ValueError) as exc:
            # Besides socket errors: a peer that does not speak HTTP or
            # cuts its reply short (HTTPException), and a URL that does
            # not parse (ValueError).
            raise TransportError(f"{method} {path}: {exc}") from exc
        if raw:
            return data
        try:
            return json.loads(data.decode())
        except ValueError as exc:
            raise TransportError(f"{method} {path}: torn response") from exc

    @staticmethod
    def _error_body(exc: urllib.error.HTTPError) -> str:
        try:
            payload = json.loads(exc.read().decode())
            return str(payload.get("error", ""))
        except (OSError, ValueError, HTTPException):
            return ""

    def get(self, path: str, **kwargs):
        """GET one service document (``raw=True``: its bytes)."""
        return self._request("GET", path, **kwargs)

    def _post(self, path: str, payload: dict) -> dict:
        return self._request(
            "POST", path, body=json.dumps(payload).encode()
        )

    # ------------------------------------------------------------------
    # The queue protocol
    # ------------------------------------------------------------------
    def campaigns(self) -> list[str]:
        snapshot = self.get("/status")
        return [
            c["campaign_id"] for c in snapshot.get("campaigns", [])
            if c.get("queue") is not None
        ]

    def claim(self, cid: str, worker_id: str):
        doc = self._post(f"/campaigns/{cid}/claim", {"worker": worker_id})
        if "ttl_s" in doc:
            self._ttl[cid] = float(doc["ttl_s"])
        shard = doc.get("shard")
        if shard is not None:
            shard = Shard.from_doc(shard, cid)
        return shard, list(doc.get("stolen", ()))

    def renew(self, cid: str, shard_id: str, worker_id: str) -> bool:
        doc = self._post(
            f"/campaigns/{cid}/renew",
            {"worker": worker_id, "shard": shard_id},
        )
        return bool(doc.get("ok"))

    def complete(self, cid: str, shard_id: str, worker_id: str,
                 info: dict | None = None) -> bool:
        doc = self._post(
            f"/campaigns/{cid}/complete",
            {"worker": worker_id, "shard": shard_id, "info": info or {}},
        )
        return bool(doc.get("completed"))

    def release(self, cid: str, shard_id: str, worker_id: str,
                error: str | None = None) -> bool:
        doc = self._post(
            f"/campaigns/{cid}/fail",
            {"worker": worker_id, "shard": shard_id, "error": error},
        )
        return bool(doc.get("released"))

    def beat(self, cid: str, worker_id: str, /, **info) -> None:
        try:
            self._post(f"/campaigns/{cid}/beat",
                       {**info, "worker": worker_id})
        except TransportError:
            pass  # presence is telemetry; never fail work over it

    def ttl_s(self, cid: str) -> float:
        ttl = self._ttl.get(cid)
        if ttl is None:
            spec = self.get(f"/campaigns/{cid}/spec")
            ttl = float(spec.get("ttl_s", 60.0))
            self._ttl[cid] = ttl
        return ttl

    def status(self, cid: str) -> dict:
        return self.get(f"/campaigns/{cid}/queue")

    def drained(self, cid: str) -> bool:
        status = self.status(cid)
        return not status["pending"] and not status["claimed"]

    # ------------------------------------------------------------------
    # Object shipping
    # ------------------------------------------------------------------
    def pull_object(self, fp: str):
        """Fetch one object bundle, or None when the server lacks it."""
        try:
            data = self.get(f"/objects/{fp}", raw=True,
                            timeout_s=self.object_timeout_s)
        except TransportError as exc:
            if exc.status == 404:
                return None
            raise
        try:
            return unpack_object(data)
        except ValueError as exc:
            raise TransportError(f"GET /objects/{fp}: {exc}") from exc

    def push_object(self, entry: dict, meta_bytes: bytes,
                    npz_bytes: bytes) -> str:
        """Upload one object; returns stored/duplicate/conflict."""
        fp = entry["fp"]
        body = pack_object(entry, meta_bytes, npz_bytes)
        try:
            doc = self._request(
                "PUT", f"/objects/{fp}", body=body,
                content_type="application/octet-stream",
                timeout_s=self.object_timeout_s,
            )
        except TransportError as exc:
            if exc.status == 409:
                return "conflict"
            raise
        return str(doc.get("status", "stored"))
