"""Tests for the pluggable queue transports and the no-shared-filesystem
worker deployment (claim over HTTP, run locally, push objects back)."""

import dataclasses
import socket
import threading

import pytest

from repro.dist import Coordinator, DistWorker, queue_root
from repro.dist.queue import ShardQueue
from repro.dist.service import CampaignService
from repro.dist.transport import (
    FileTransport,
    HttpTransport,
    TransportError,
    normalize_service_url,
)
from repro.store import RunStore
from repro.store.fingerprint import config_fingerprint

from tests.store.test_runstore import (
    DAMAGED, damage_object, make_config, make_result,
)


def fake_run(config, timeout_s=None, attempt=1):
    return make_result(config)


class FakeClock:
    def __init__(self, now=1_000_000.0):
        self.now = now

    def __call__(self):
        return self.now


@pytest.fixture
def coord(tmp_path):
    return RunStore(tmp_path / "coord")


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def service(coord, clock):
    svc = CampaignService(coord, port=0, clock=clock).start()
    yield svc
    svc.shutdown()


def enqueue(coord, n=4, shard_size=1, ttl_s=60.0):
    configs = [make_config(seed=i) for i in range(n)]
    report = Coordinator(coord, shard_size=shard_size, ttl_s=ttl_s).enqueue(
        configs
    )
    return configs, report


class TestNormalizeUrl:
    def test_bare_host_port(self):
        assert normalize_service_url("localhost:8765") == \
            "http://localhost:8765"

    def test_strips_trailing_slash_and_status(self):
        assert normalize_service_url("http://h:1/") == "http://h:1"
        assert normalize_service_url("http://h:1/status") == "http://h:1"


class TestFileTransport:
    def test_mirrors_queue_operations(self, coord):
        configs, enq = enqueue(coord, n=2)
        transport = FileTransport(coord)
        assert transport.campaigns() == [enq.campaign_id]
        shard, stolen = transport.claim(enq.campaign_id, "w1")
        assert shard.id == "shard-00000"
        assert stolen == []
        assert transport.renew(enq.campaign_id, shard.id, "w1")
        assert transport.complete(enq.campaign_id, shard.id, "w1",
                                  {"executed": 1})
        assert not transport.drained(enq.campaign_id)  # one shard left
        assert transport.ttl_s(enq.campaign_id) == 60.0

    def test_object_shipping_is_noop(self, coord):
        transport = FileTransport(coord)
        assert transport.pull_object("ab" * 16) is None
        assert transport.push_object({"fp": "x"}, b"", b"") == "skipped"


class TestHttpTransport:
    def test_unreachable_server_raises_transport_error(self):
        transport = HttpTransport("127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(TransportError):
            transport.campaigns()

    def test_campaigns_and_claim_roundtrip(self, coord, service):
        configs, enq = enqueue(coord, n=2)
        transport = HttpTransport(service.url)
        assert transport.campaigns() == [enq.campaign_id]
        shard, stolen = transport.claim(enq.campaign_id, "w1")
        assert shard.id == "shard-00000"
        assert shard.campaign_id == enq.campaign_id
        assert len(shard.fingerprints) == 1
        # config identities survive the JSON hop bit-exactly
        from repro.dist.queue import config_from_identity
        assert config_fingerprint(config_from_identity(shard.configs[0])) \
            == shard.fingerprints[0]
        assert transport.ttl_s(enq.campaign_id) == 60.0  # cached from claim

    def test_http_claim_writes_the_lease_a_file_claim_writes(
        self, coord, service, clock
    ):
        # The service's lease routes are FileTransport behind HTTP: two
        # claims on one queue, one per transport, leave sidecars that
        # differ only in what names the shard and its holder.
        _, report = enqueue(coord, n=2)
        cid = report.campaign_id
        by_http, _ = HttpTransport(service.url).claim(cid, "w-http")
        by_file, _ = FileTransport(coord, clock=clock).claim(cid, "w-file")
        assert (by_http.campaign_id, by_file.campaign_id) == (cid, cid)
        assert by_http.id != by_file.id
        queue = ShardQueue.open(queue_root(coord, cid))
        http_lease = queue.lease(by_http.id)
        file_lease = queue.lease(by_file.id)
        assert http_lease.keys() == file_lease.keys()
        assert (http_lease["worker"], file_lease["worker"]) == (
            "w-http", "w-file"
        )
        for field in ("deadline", "renewals", "ts"):
            assert http_lease[field] == file_lease[field]
        assert http_lease["deadline"] == clock.now + 60.0

    def test_double_complete_idempotent_over_http(self, coord, service):
        _, enq = enqueue(coord, n=1)
        transport = HttpTransport(service.url)
        shard, _ = transport.claim(enq.campaign_id, "w1")
        assert transport.complete(enq.campaign_id, shard.id, "w1",
                                  {"executed": 1, "runs": 1}) is True
        assert transport.complete(enq.campaign_id, shard.id, "w1",
                                  {"executed": 1, "runs": 1}) is False
        status = transport.status(enq.campaign_id)
        assert status["done"].count(shard.id) == 1

    def test_push_then_pull_object(self, coord, service, tmp_path):
        config = make_config(seed=0)
        local = RunStore(tmp_path / "local")
        local.put(config, make_result(config))
        fp = config_fingerprint(config)
        entry = {e["fp"]: e for e in local.ls()}[fp]
        payload = local.object_bytes(fp)

        transport = HttpTransport(service.url)
        assert transport.push_object(entry, *payload) == "stored"
        assert coord.contains_fp(fp)  # landed in the served store
        assert transport.push_object(entry, *payload) == "duplicate"

        bundle = transport.pull_object(fp)
        assert bundle is not None
        got_entry, meta_bytes, npz_bytes = bundle
        assert got_entry["fp"] == fp
        assert (meta_bytes, npz_bytes) == payload  # byte-exact roundtrip

    def test_push_conflict_is_409(self, coord, service, tmp_path):
        config = make_config(seed=0)
        local = RunStore(tmp_path / "local")
        local.put(config, make_result(config))
        fp = config_fingerprint(config)
        entry = {e["fp"]: e for e in local.ls()}[fp]
        meta_bytes, npz_bytes = local.object_bytes(fp)
        transport = HttpTransport(service.url)
        assert transport.push_object(entry, meta_bytes, npz_bytes) == "stored"
        # Same fingerprint, different arrays: the serve-side store keeps
        # its copy and the pusher sees the conflict.
        other = RunStore(tmp_path / "other")
        result = make_result(config)
        other.put(config, dataclasses.replace(
            result, game_bps=result.game_bps * 2.0
        ))
        assert transport.push_object(entry, *other.object_bytes(fp)) == "conflict"
        assert coord.object_bytes(fp) == (meta_bytes, npz_bytes)

    @pytest.mark.parametrize("how", DAMAGED)
    def test_push_of_damaged_object_is_400(self, coord, service, tmp_path,
                                           how):
        config = make_config(seed=0)
        local = RunStore(tmp_path / "local")
        fp = local.put(config, make_result(config))
        damage_object(local, fp, how)
        entry = {e["fp"]: e for e in local.ls()}[fp]
        with pytest.raises(TransportError) as err:
            HttpTransport(service.url).push_object(
                entry, *local.object_bytes(fp)
            )
        assert err.value.status == 400
        assert "unreadable object" in str(err.value)
        assert not coord.contains_fp(fp)

    def test_pull_missing_object_is_none(self, coord, service):
        assert HttpTransport(service.url).pull_object("ab" * 16) is None


#: Replies from peers that are not a healthy ``dist serve``: something
#: that does not speak HTTP, and a 200 that promises 100 bytes and
#: hangs up after 14.
_BROKEN_REPLIES = {
    "not-http": b"SSH-2.0-OpenSSH\r\n\r\n",
    "cut-short": b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n"
                 b'{"campaigns": ',
}


@pytest.fixture(params=sorted(_BROKEN_REPLIES))
def broken_peer(request):
    """``host:port`` of a local socket that answers every request with
    one of :data:`_BROKEN_REPLIES`, then closes the connection."""
    reply = _BROKEN_REPLIES[request.param]
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.recv(65536)
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield "127.0.0.1:%d" % listener.getsockname()[1]
    stop.set()
    thread.join(timeout=5.0)
    listener.close()


class TestProtocolErrors:
    """A peer that breaks the HTTP protocol is a TransportError, never
    an exception the worker loop or the CLI does not expect."""

    def test_transport_raises_transport_error(self, broken_peer):
        with pytest.raises(TransportError) as err:
            HttpTransport(broken_peer, timeout_s=5.0).campaigns()
        assert err.value.status is None

    def test_cli_status_url_exits_1_with_error(self, broken_peer, capsys):
        from repro.cli import main

        assert main(["status", "--url", broken_peer]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestHttpWorker:
    """The tentpole, in-process: a worker with no shared directory."""

    def test_http_worker_drains_and_pushes_back(self, coord, service,
                                                tmp_path):
        configs, enq = enqueue(coord, n=4)
        private = RunStore(tmp_path / "private")
        report = DistWorker(
            store=private, queue_url=service.url,
            run_fn=fake_run, worker_id="hw1",
        ).run()
        assert report.shards_done == 4
        assert report.executed == 4
        assert report.pushed == 4
        assert report.push_conflicts == 0
        # Every result is in the coordinator store without any merge.
        assert all(config in coord for config in configs)
        queue = ShardQueue.open(queue_root(coord, enq.campaign_id))
        assert queue.drained()
        # The worker's heartbeats travelled over HTTP too.
        assert any(w["worker"] == "hw1" for w in queue.workers())

    def test_rerun_pulls_cache_and_executes_nothing(self, coord, service,
                                                    tmp_path, clock):
        configs, enq = enqueue(coord, n=3)
        DistWorker(store=RunStore(tmp_path / "w1"), queue_url=service.url,
                   run_fn=fake_run, worker_id="hw1").run()

        # Second campaign over the same matrix: every run is pre-done,
        # so coordinate records them as cached and enqueues nothing.
        second = Coordinator(coord, shard_size=1).enqueue(configs)
        assert second.created is False or second.enqueued == 0

        # Re-enqueue by hand (fresh queue dir) to force shard traffic,
        # then prove a *fresh-store* worker pulls instead of re-running.
        root = queue_root(coord, enq.campaign_id)
        for path in sorted((root / "done").glob("*.json")):
            if "." not in path.stem:
                path.rename(root / "pending" / path.name)
        report = DistWorker(
            store=RunStore(tmp_path / "w2"), queue_url=service.url,
            run_fn=fake_run, worker_id="hw2",
        ).run()
        assert report.executed == 0
        assert report.cache_hits == 3
        assert report.pulled == 3     # objects came down the wire
        assert report.pushed == 0     # nothing new to send back

    @pytest.mark.parametrize("how", DAMAGED)
    def test_damaged_cached_object_is_run_locally(self, coord, service,
                                                  tmp_path, how):
        configs, enq = enqueue(coord, n=3)
        DistWorker(store=RunStore(tmp_path / "w1"), queue_url=service.url,
                   run_fn=fake_run, worker_id="hw1").run()
        damaged = config_fingerprint(configs[0])
        damage_object(coord, damaged, how)

        root = queue_root(coord, enq.campaign_id)
        for path in sorted((root / "done").glob("*.json")):
            if "." not in path.stem:
                path.rename(root / "pending" / path.name)
        fresh = RunStore(tmp_path / "w2")
        report = DistWorker(
            store=fresh, queue_url=service.url,
            run_fn=fake_run, worker_id="hw2",
        ).run()
        assert report.pulled == 2     # the damaged object was refused
        assert report.executed == 1
        assert report.cache_hits == 2
        assert fresh.verify() == []

    def test_dead_http_worker_lease_stolen_and_converges(
        self, coord, service, tmp_path, clock
    ):
        # A worker claims over HTTP, persists one run locally, then dies
        # without completing (its renewer dies with it).  After TTL the
        # survivor steals the shard and the campaign converges with the
        # shard counted once.
        configs, enq = enqueue(coord, n=2, ttl_s=60.0)
        cid = enq.campaign_id
        doomed = HttpTransport(service.url)
        shard, _ = doomed.claim(cid, "dead-worker")
        dead_store = RunStore(tmp_path / "dead")
        config = next(c for c in configs
                      if config_fingerprint(c) == shard.fingerprints[0])
        dead_store.put(config, make_result(config))
        # ...and the worker vanishes here.  The server clock advances
        # past the lease deadline:
        clock.now += 61.0

        survivor = DistWorker(
            store=RunStore(tmp_path / "survivor"), queue_url=service.url,
            run_fn=fake_run, worker_id="survivor",
        )
        report = survivor.run()
        assert report.stolen == 1
        assert report.shards_done == 2
        queue = ShardQueue.open(queue_root(coord, cid))
        assert queue.drained()
        status = queue.status()
        assert sorted(status["done"]) == ["shard-00000", "shard-00001"]
        assert status["done_runs"] == 2  # stolen shard counted once
        assert all(config in coord for config in configs)

    def test_scheduler_crash_releases_shard_over_http(self, coord, service,
                                                      tmp_path, monkeypatch):
        # partial=True absorbs per-run failures, so model the crash one
        # layer up: the scheduler itself blowing up mid-shard.
        _, enq = enqueue(coord, n=1)
        import repro.dist.worker as worker_mod

        class ExplodingScheduler:
            def __init__(self, **kwargs):
                pass

            def run(self, configs):
                raise RuntimeError("worker meltdown")

        monkeypatch.setattr(worker_mod, "CampaignScheduler",
                            ExplodingScheduler)
        worker = DistWorker(
            store=RunStore(tmp_path / "w1"), queue_url=service.url,
            run_fn=fake_run, worker_id="hw1",
        )
        with pytest.raises(RuntimeError, match="meltdown"):
            worker.run()
        queue = ShardQueue.open(queue_root(coord, enq.campaign_id))
        # Released immediately -- back in pending with a failure record,
        # not stuck in claimed until TTL.
        assert queue.status()["pending"] == ["shard-00000"]
        assert "RuntimeError" in queue.failures_path.read_text()

    def test_worker_requires_result_store_with_url(self):
        with pytest.raises(ValueError, match="result store"):
            DistWorker(queue_url="http://127.0.0.1:9")

    def test_worker_requires_some_queue_source(self):
        with pytest.raises(ValueError, match="queue source"):
            DistWorker()

    def test_server_down_idles_out_cleanly(self, tmp_path):
        ticks = iter(range(100))
        report = DistWorker(
            store=RunStore(tmp_path / "w1"),
            queue_url="http://127.0.0.1:9",
            run_fn=fake_run, worker_id="hw1",
            idle_timeout_s=3.0, poll_s=0.0,
            sleep=lambda _: None, clock=lambda: float(next(ticks)),
        ).run()
        assert report.shards_done == 0


class TestHttpEquivalence:
    """Acceptance: an HTTP-transport campaign reports byte-identically
    to the same campaign run single-host."""

    def test_http_campaign_matches_single_host(self, coord, service,
                                               tmp_path, monkeypatch):
        from repro.report import aggregate_store, get_formatter
        from repro.store.scheduler import CampaignScheduler
        from repro.store.sync import merge_stores

        configs = [make_config(seed=i) for i in range(4)]
        Coordinator(coord, shard_size=1).enqueue(configs)
        DistWorker(store=RunStore(tmp_path / "w1"), queue_url=service.url,
                   run_fn=fake_run, max_shards=2, worker_id="hw1").run()
        DistWorker(store=RunStore(tmp_path / "w2"), queue_url=service.url,
                   run_fn=fake_run, worker_id="hw2").run()

        # The pushes made the served store complete -- no merge step.
        # Copy into a same-named relative root for the byte comparison
        # (report.json embeds the store path string).
        (tmp_path / "h").mkdir()
        monkeypatch.chdir(tmp_path / "h")
        http_store = RunStore("store")
        assert merge_stores(http_store, coord).clean

        (tmp_path / "s").mkdir()
        monkeypatch.chdir(tmp_path / "s")
        single = RunStore("store")
        result = CampaignScheduler(
            store=single, run_fn=fake_run, heartbeat_interval=None
        ).run(configs)
        assert result.executed == 4

        fmt = get_formatter("json")
        monkeypatch.chdir(tmp_path / "h")
        http_files = fmt(aggregate_store(RunStore("store")))
        monkeypatch.chdir(tmp_path / "s")
        single_files = fmt(aggregate_store(RunStore("store")))
        assert http_files == single_files  # byte-identical
