"""The campaign service: queue API + telemetry over HTTP.

``repro-gsnet dist serve`` wraps one store in a JSON API.  The read
half makes a distributed campaign observable from anywhere the store is
not mounted; the write half (new in this tier) is the **network
transport for the shard queue**, so a worker needs no shared
filesystem at all:

- ``GET /status`` (or ``/``) -- every campaign's latest heartbeat and
  queue summary, plus all known workers;
- ``GET /campaigns/<id>`` -- one campaign in full: heartbeat trail,
  per-state shard lists, workers;
- ``GET /campaigns/<id>/spec`` / ``GET /campaigns/<id>/queue`` -- the
  immutable queue spec and a live queue status snapshot;
- ``GET /workers`` -- the worker fleet across every queue;
- ``POST /campaigns/<id>/claim|renew|complete|fail|beat`` -- the lease
  protocol.  Every verb is the
  :class:`~repro.dist.transport.FileTransport` method a file-mode
  worker calls, run on the served store (under one server-side lock),
  so HTTP and shared-directory workers coexist on one campaign; lease
  deadlines are stamped with the **server's** clock only, which is
  what makes TTL expiry immune to worker clock skew;
- ``PUT /objects/<fp>`` / ``GET /objects/<fp>`` -- single-object
  push/pull with :mod:`repro.store.sync` merge semantics (duplicate
  detection, conflict refusal with 409).

Pure stdlib (``http.server.ThreadingHTTPServer``).  Every response is
built from a fresh read of the store, so the service holds no state a
restart could lose; a restarted server resumes serving the same queue
files mid-campaign.  Error bodies are deliberately terse -- a 404
distinguishes unknown campaigns/objects/routes, a 400 rejects malformed
requests, and a 500 carries only the exception *type*, never a message
that could leak filesystem paths to a remote caller.  A per-connection
socket timeout bounds how long a stalled client can pin a handler
thread.  The one client is :class:`repro.dist.transport.HttpTransport`:
workers drive the lease protocol through it, and :func:`fetch_status`
(what ``repro-gsnet status --url`` reads) is a GET through it.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.store.heartbeat import load_heartbeat
from repro.store.sync import (
    MAX_BUNDLE_BYTES,
    pack_object,
    receive_object,
    unpack_object,
)

from repro.dist.coordinator import queue_root
from repro.dist.queue import QueueError, ShardQueue, check_id
from repro.dist.transport import FileTransport, HttpTransport, TransportError

__all__ = [
    "CampaignService",
    "campaign_snapshot",
    "fetch_campaign",
    "fetch_status",
    "service_snapshot",
    "workers_snapshot",
]

#: Heartbeat records included in a ``/campaigns/<id>`` trail.
_TRAIL_LIMIT = 50

#: Largest JSON control body (claim/renew/complete/fail/beat) a handler
#: thread will buffer; object bundles have their own, larger cap.
_MAX_JSON_BYTES = 1 << 20

#: Per-connection socket timeout: the longest a stalled or vanished
#: client can hold a handler thread mid-read or mid-write.
SOCKET_TIMEOUT_S = 30.0

#: Fingerprints are lowercase hex; anything else in an /objects/ path
#: (traversal attempts included) is rejected before touching the store.
_FP_RE = re.compile(r"[0-9a-f]{6,128}")

#: Campaign ids are store directory names; same hex discipline.
_CID_RE = re.compile(r"[0-9a-f]{6,128}")


# ----------------------------------------------------------------------
# Snapshots (plain functions; the HTTP layer only serialises them)
# ----------------------------------------------------------------------
def _queue_summary(store, cid: str) -> dict | None:
    root = queue_root(store, cid)
    if not ShardQueue.exists(root):
        return None
    try:
        status = ShardQueue.open(root).status()
    except QueueError:
        return None  # torn spec: the campaign exists, its queue does not
    # Shard id lists are detail-level; the summary carries counts.
    for state in ("pending", "claimed", "done", "expired"):
        status[state] = len(status[state])
    return status


def service_snapshot(store) -> dict:
    """The ``/status`` document: every campaign at a glance."""
    campaigns = []
    for cid in store.campaign_ids():
        records = load_heartbeat(store.heartbeat_path(cid))
        campaigns.append({
            "campaign_id": cid,
            "last": records[-1] if records else None,
            "heartbeats": len(records),
            "queue": _queue_summary(store, cid),
        })
    return {
        "store": str(store.root),
        "campaigns": campaigns,
        "workers": workers_snapshot(store)["workers"],
    }


def campaign_snapshot(store, cid: str) -> dict | None:
    """The ``/campaigns/<id>`` document, or None for an unknown id."""
    if cid not in store.campaign_ids():
        return None
    records = load_heartbeat(store.heartbeat_path(cid))
    root = queue_root(store, cid)
    queue_status = workers = None
    if ShardQueue.exists(root):
        try:
            queue = ShardQueue.open(root)
            queue_status = queue.status()
            workers = queue.workers()
        except QueueError:
            pass  # torn spec reads as "no queue", not a 500
    return {
        "campaign_id": cid,
        "last": records[-1] if records else None,
        "records": records[-_TRAIL_LIMIT:],
        "heartbeats": len(records),
        "queue": queue_status,
        "workers": workers,
    }


def workers_snapshot(store) -> dict:
    """The ``/workers`` document: the fleet across every queue."""
    workers = []
    for cid in store.campaign_ids():
        root = queue_root(store, cid)
        if not ShardQueue.exists(root):
            continue
        try:
            records = ShardQueue.open(root).workers()
        except QueueError:
            continue
        for record in records:
            workers.append({"campaign_id": cid, **record})
    return {"workers": workers}


# ----------------------------------------------------------------------
# The HTTP server
# ----------------------------------------------------------------------
class _BadRequest(ValueError):
    """A malformed request; the message is safe to echo to the client."""


class _Handler(BaseHTTPRequestHandler):
    # The store/clock/lock are attached to the server by CampaignService.
    server_version = "repro-dist/2"
    # Bounds blocking reads (and writes) on the connection socket, so a
    # client that stalls mid-request cannot pin this thread forever.
    timeout = SOCKET_TIMEOUT_S

    # -- plumbing ------------------------------------------------------
    @property
    def store(self):
        return self.server.store  # type: ignore[attr-defined]

    def _queue(self, cid: str) -> ShardQueue:
        root = queue_root(self.store, cid)
        if not _CID_RE.fullmatch(cid) or not ShardQueue.exists(root):
            raise QueueError(f"campaign {cid!r} has no queue")
        return ShardQueue.open(root, clock=self.server.clock)  # type: ignore[attr-defined]

    def _body(self, limit: int = MAX_BUNDLE_BYTES) -> bytes:
        length = self.headers.get("Content-Length")
        try:
            length = int(length)
        except (TypeError, ValueError):
            raise _BadRequest("missing or invalid Content-Length")
        if length < 0 or length > limit:
            raise _BadRequest(f"body exceeds {limit} bytes")
        return self.rfile.read(length)

    def _json_body(self) -> dict:
        body = self._body(_MAX_JSON_BYTES)
        try:
            payload = json.loads(body.decode())
        except (ValueError, UnicodeDecodeError):
            raise _BadRequest("body is not valid JSON")
        if not isinstance(payload, dict):
            raise _BadRequest("body must be a JSON object")
        return payload

    def _dispatch(self, handler) -> None:
        """Run one route with the service-wide error discipline."""
        try:
            handler()
        except _BadRequest as exc:
            self._reply(400, {"error": str(exc)})
        except (QueueError, TransportError):
            # Missing campaign/queue or a torn spec is the client's 404,
            # not a server fault -- and the raw message may carry paths.
            self._reply(404, {"error": "campaign has no queue"})
        except TimeoutError:
            # The client stalled past the socket timeout; reply is
            # best-effort, then drop the connection.
            self.close_connection = True
            try:
                self._reply(408, {"error": "request timed out"})
            except OSError:
                pass
        except Exception as exc:  # noqa: BLE001 - surface, don't kill the server
            # Only the exception *type* crosses the wire: messages from
            # OSError and friends embed server filesystem paths.
            self._reply(500, {"error": "internal server error",
                              "type": type(exc).__name__})

    def _reply(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode()
        self._reply_raw(code, body, "application/json")

    def _reply_raw(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass  # requests are campaign traffic; don't spam the terminal

    # -- GET routes ----------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._get_route)

    def _get_route(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path in ("/", "/status"):
            self._reply(200, service_snapshot(self.store))
        elif path == "/workers":
            self._reply(200, workers_snapshot(self.store))
        elif path.startswith("/objects/"):
            self._get_object(path[len("/objects/"):])
        elif path.startswith("/campaigns/"):
            rest = path[len("/campaigns/"):]
            cid, _, sub = rest.partition("/")
            if sub == "spec":
                self._reply(200, self._queue(cid).spec)
            elif sub == "queue":
                self._reply(200, self._queue(cid).status())
            elif sub == "":
                snapshot = campaign_snapshot(self.store, cid)
                if snapshot is None:
                    self._reply(404, {"error": f"unknown campaign {cid!r}"})
                else:
                    self._reply(200, snapshot)
            else:
                self._reply(404, {"error": f"no route {path!r}"})
        else:
            self._reply(404, {"error": f"no route {path!r}",
                              "routes": ["/status", "/workers",
                                         "/campaigns/<id>[/spec|/queue]",
                                         "/objects/<fp>"]})

    def _get_object(self, fp: str) -> None:
        if not _FP_RE.fullmatch(fp):
            raise _BadRequest("malformed object fingerprint")
        payload = self.store.object_bytes(fp)
        if payload is None:
            self._reply(404, {"error": f"no object {fp}"})
            return
        entry = self.store.manifest_entry(fp) or {"fp": fp}
        self._reply_raw(
            200, pack_object(entry, payload[0], payload[1]),
            "application/octet-stream",
        )

    # -- POST routes (the lease protocol) ------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._post_route)

    def _post_route(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if not path.startswith("/campaigns/"):
            self._reply(404, {"error": f"no route {path!r}"})
            return
        cid, _, action = path[len("/campaigns/"):].partition("/")
        if action not in ("claim", "renew", "complete", "fail", "beat"):
            self._reply(404, {"error": f"no route {path!r}"})
            return
        payload = self._json_body()
        worker = payload.pop("worker", None)
        try:
            # Ids become file names in the queue: check them before any
            # verb can touch a file.
            check_id("worker", worker)
            if action not in ("claim", "beat"):
                check_id("shard", payload.get("shard"))
        except ValueError as exc:
            raise _BadRequest(str(exc))
        if not _CID_RE.fullmatch(cid):
            raise QueueError(f"campaign {cid!r} has no queue")
        transport = FileTransport(self.store, clock=self.server.clock)  # type: ignore[attr-defined]
        # One writer at a time: renames are atomic on their own, but the
        # lock keeps compound mutations (steal+claim, complete+sidecar)
        # and manifest appends serial across handler threads.
        with self.server.mutate_lock:  # type: ignore[attr-defined]
            # Opens the queue, so an unknown campaign or a torn spec is
            # a 404 before any verb runs (``beat`` would swallow it).
            transport.ttl_s(cid)
            self._reply(
                200, self._lease_verb(transport, action, cid, worker, payload)
            )

    @staticmethod
    def _lease_verb(transport, action, cid, worker, payload) -> dict:
        """Run one lease verb on the served store; returns the reply."""
        if action == "claim":
            shard, stolen = transport.claim(cid, worker)
            return {
                "shard": None if shard is None else shard.to_doc(),
                "stolen": stolen,
                "ttl_s": transport.ttl_s(cid),
            }
        if action == "beat":
            transport.beat(cid, worker, **payload)
            return {"ok": True}
        shard_id = payload["shard"]
        if action == "renew":
            return {"ok": transport.renew(cid, shard_id, worker)}
        if action == "complete":
            info = payload.get("info")
            if info is not None and not isinstance(info, dict):
                raise _BadRequest("'info' must be an object")
            return {"completed": transport.complete(cid, shard_id, worker, info)}
        error = payload.get("error")
        return {"released": transport.release(
            cid, shard_id, worker, None if error is None else str(error)
        )}

    # -- PUT routes (object push) --------------------------------------
    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._put_route)

    def _put_route(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if not path.startswith("/objects/"):
            self._reply(404, {"error": f"no route {path!r}"})
            return
        fp = path[len("/objects/"):]
        if not _FP_RE.fullmatch(fp):
            raise _BadRequest("malformed object fingerprint")
        try:
            entry, meta_bytes, npz_bytes = unpack_object(self._body())
        except ValueError as exc:
            raise _BadRequest(str(exc))
        with self.server.mutate_lock:  # type: ignore[attr-defined]
            try:
                status = receive_object(
                    self.store, fp, entry, meta_bytes, npz_bytes
                )
            except ValueError as exc:
                raise _BadRequest(str(exc))
        if status == "conflict":
            # The store's copy is kept; the pusher must surface this --
            # with a deterministic simulator it means version skew or
            # corruption, exactly like a directory-merge conflict.
            self._reply(409, {"status": status, "fp": fp})
        else:
            self._reply(200, {"status": status, "fp": fp})


class CampaignService:
    """A threaded HTTP server publishing one store's campaign state.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    available as :attr:`url` after construction.  ``serve_forever``
    blocks (the CLI foreground mode); ``start``/``shutdown`` run it on
    a daemon thread (tests, embedding).

    Args:
        store: the coordinator :class:`~repro.store.runstore.RunStore`.
        host/port: bind address.
        clock: epoch-seconds source for every lease deadline this
            server writes -- the single clock that makes HTTP-mode
            leases immune to worker clock skew (injectable in tests).
    """

    def __init__(self, store, host: str = "127.0.0.1", port: int = 8765,
                 clock=None):
        import time as _time

        self.store = store
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.store = store  # type: ignore[attr-defined]
        self._server.clock = clock or _time.time  # type: ignore[attr-defined]
        self._server.mutate_lock = threading.Lock()  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def start(self) -> "CampaignService":
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True, name="dist-serve"
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def fetch_status(url: str, timeout_s: float = 5.0) -> dict:
    """GET a service's ``/status`` document (client half of ``--url``).

    Accepts a bare ``host:port``, a service root, or the full
    ``/status`` URL.  Any failure raises
    :class:`~repro.dist.transport.TransportError`.
    """
    return HttpTransport(url, timeout_s=timeout_s).get("/status")


def fetch_campaign(url: str, cid: str, timeout_s: float = 5.0) -> dict:
    """GET one campaign's detail document (heartbeat trail included)."""
    return HttpTransport(url, timeout_s=timeout_s).get(f"/campaigns/{cid}")
