"""Tests for the live campaign service (HTTP JSON tier) and its client."""

import http.client
import json
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.dist import Coordinator, queue_root
from repro.dist.queue import ShardQueue
from repro.dist.service import (
    CampaignService,
    campaign_snapshot,
    fetch_campaign,
    fetch_status,
    service_snapshot,
    workers_snapshot,
)
from repro.dist.transport import TransportError
from repro.store import RunStore
from repro.store.heartbeat import CampaignHeartbeat

from tests.store.test_runstore import make_config


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store")


def populate(store, n=3):
    """Enqueue a campaign, fake some activity, write one heartbeat."""
    configs = [make_config(seed=i) for i in range(n)]
    report = Coordinator(store, shard_size=1).enqueue(configs)
    queue = ShardQueue.open(queue_root(store, report.campaign_id))
    shard = queue.claim("w1")
    queue.complete(shard.id, "w1", {"executed": 1, "runs": 1})
    queue.worker_beat("w1", shard=None, runs=1)
    CampaignHeartbeat(store, report.campaign_id, total=n).beat(
        done=1, counters={}, phase="running", force=True
    )
    return report.campaign_id


class TestSnapshots:
    def test_service_snapshot_lists_campaigns_and_workers(self, store):
        cid = populate(store)
        snapshot = service_snapshot(store)
        assert [c["campaign_id"] for c in snapshot["campaigns"]] == [cid]
        campaign = snapshot["campaigns"][0]
        assert campaign["last"]["phase"] == "running"
        # Queue summary carries counts, not shard-id lists.
        assert campaign["queue"]["done"] == 1
        assert campaign["queue"]["pending"] == 2
        assert [w["worker"] for w in snapshot["workers"]] == ["w1"]

    def test_campaign_snapshot_has_trail_and_full_queue(self, store):
        cid = populate(store)
        snapshot = campaign_snapshot(store, cid)
        assert snapshot["campaign_id"] == cid
        assert len(snapshot["records"]) == 1
        assert snapshot["queue"]["done"] == ["shard-00000"]

    def test_campaign_snapshot_unknown_id_is_none(self, store):
        assert campaign_snapshot(store, "deadbeef") is None

    def test_workers_snapshot_tags_campaign(self, store):
        cid = populate(store)
        workers = workers_snapshot(store)["workers"]
        assert workers[0]["campaign_id"] == cid
        assert workers[0]["worker"] == "w1"

    def test_empty_store_snapshots(self, store):
        assert service_snapshot(store)["campaigns"] == []
        assert workers_snapshot(store)["workers"] == []


@pytest.fixture
def service(store):
    svc = CampaignService(store, port=0).start()
    yield svc
    svc.shutdown()


class TestHTTP:
    def test_status_route(self, store, service):
        cid = populate(store)
        payload = fetch_status(service.url)
        assert payload["campaigns"][0]["campaign_id"] == cid
        # Bare host:port and trailing /status both work.
        bare = service.url[len("http://"):]
        assert fetch_status(bare) == payload
        assert fetch_status(service.url + "/status") == payload

    def test_campaign_route(self, store, service):
        cid = populate(store)
        payload = fetch_campaign(service.url, cid)
        assert payload["campaign_id"] == cid
        assert payload["queue"]["total_runs"] == 3

    def test_unknown_campaign_404(self, store, service):
        with pytest.raises(TransportError) as err:
            fetch_campaign(service.url, "deadbeef")
        assert err.value.status == 404

    def test_unknown_route_404_lists_routes(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(service.url + "/nope")
        assert err.value.code == 404
        body = json.loads(err.value.read().decode())
        assert "/status" in body["routes"]

    def test_workers_route(self, store, service):
        populate(store)
        with urllib.request.urlopen(service.url + "/workers") as response:
            payload = json.loads(response.read().decode())
        assert [w["worker"] for w in payload["workers"]] == ["w1"]

    def test_response_is_fresh_not_cached(self, store, service):
        assert fetch_status(service.url)["campaigns"] == []
        populate(store)
        assert len(fetch_status(service.url)["campaigns"]) == 1


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        return json.loads(response.read().decode())


class FakeClock:
    def __init__(self, now=1_000_000.0):
        self.now = now

    def __call__(self):
        return self.now


class TestQueueAPI:
    """The write half: POST claim/renew/complete/fail against the same
    atomic-rename queue a file-mode worker uses."""

    @pytest.fixture
    def clock(self):
        return FakeClock()

    @pytest.fixture
    def service(self, store, clock):
        svc = CampaignService(store, port=0, clock=clock).start()
        yield svc
        svc.shutdown()

    def enqueue(self, store, n=2, ttl_s=60.0):
        configs = [make_config(seed=i) for i in range(n)]
        return Coordinator(store, shard_size=1, ttl_s=ttl_s).enqueue(
            configs
        ).campaign_id

    def test_claim_returns_shard_and_ttl(self, store, service):
        cid = self.enqueue(store)
        doc = _post(f"{service.url}/campaigns/{cid}/claim", {"worker": "w1"})
        assert doc["shard"]["shard"] == "shard-00000"
        assert doc["shard"]["campaign_id"] == cid
        assert len(doc["shard"]["fingerprints"]) == 1
        assert doc["ttl_s"] == 60.0
        assert doc["stolen"] == []
        # The mutation is visible to a file-mode observer immediately.
        queue = ShardQueue.open(queue_root(store, cid))
        assert queue.status()["claimed"] == ["shard-00000"]
        assert queue.lease("shard-00000")["worker"] == "w1"

    def test_claim_drains_to_none(self, store, service):
        cid = self.enqueue(store, n=1)
        url = f"{service.url}/campaigns/{cid}/claim"
        assert _post(url, {"worker": "w1"})["shard"] is not None
        assert _post(url, {"worker": "w1"})["shard"] is None

    def test_server_clock_rules_lease_expiry(self, store, service, clock):
        # The server's injected clock is light-years from the claim
        # file's wall mtime; expiry must follow the server clock only.
        cid = self.enqueue(store, n=1, ttl_s=60.0)
        url = f"{service.url}/campaigns/{cid}/claim"
        first = _post(url, {"worker": "w1"})
        sid = first["shard"]["shard"]
        assert _post(url, {"worker": "w2"})["shard"] is None  # fresh lease
        clock.now += 61.0
        second = _post(url, {"worker": "w2"})
        assert second["stolen"] == [sid]
        assert second["shard"]["shard"] == sid

    def test_renew_after_steal_and_reclaim_rejected(self, store, service,
                                                    clock):
        cid = self.enqueue(store, n=1)
        claim_url = f"{service.url}/campaigns/{cid}/claim"
        renew_url = f"{service.url}/campaigns/{cid}/renew"
        sid = _post(claim_url, {"worker": "w1"})["shard"]["shard"]
        assert _post(renew_url, {"worker": "w1", "shard": sid})["ok"]
        clock.now += 61.0
        assert _post(claim_url, {"worker": "w2"})["shard"]["shard"] == sid
        # w1 renews into w2's lease: rejected.
        assert not _post(renew_url, {"worker": "w1", "shard": sid})["ok"]
        assert _post(renew_url, {"worker": "w2", "shard": sid})["ok"]

    def test_double_complete_idempotent_counted_once(self, store, service):
        cid = self.enqueue(store, n=1)
        sid = _post(f"{service.url}/campaigns/{cid}/claim",
                    {"worker": "w1"})["shard"]["shard"]
        url = f"{service.url}/campaigns/{cid}/complete"
        first = _post(url, {"worker": "w1", "shard": sid,
                            "info": {"executed": 1, "runs": 1}})
        second = _post(url, {"worker": "w2", "shard": sid,
                             "info": {"executed": 1, "runs": 1}})
        assert first["completed"] is True
        assert second["completed"] is False
        status = ShardQueue.open(queue_root(store, cid)).status()
        assert status["done"].count(sid) == 1
        assert status["executed"] == 1  # the loser's tally is discarded
        info = json.loads(
            (queue_root(store, cid) / "done" / f"{sid}.info.json").read_text()
        )
        assert info["worker"] == "w1"  # winner's record survives

    def test_fail_releases_and_records(self, store, service):
        cid = self.enqueue(store, n=1)
        sid = _post(f"{service.url}/campaigns/{cid}/claim",
                    {"worker": "w1"})["shard"]["shard"]
        doc = _post(f"{service.url}/campaigns/{cid}/fail",
                    {"worker": "w1", "shard": sid, "error": "boom"})
        assert doc["released"] is True
        queue = ShardQueue.open(queue_root(store, cid))
        assert queue.status()["pending"] == [sid]
        assert "boom" in queue.failures_path.read_text()

    def test_beat_publishes_worker(self, store, service):
        cid = self.enqueue(store)
        _post(f"{service.url}/campaigns/{cid}/beat",
              {"worker": "w9", "runs": 3})
        workers = ShardQueue.open(queue_root(store, cid)).workers()
        assert any(w["worker"] == "w9" and w["runs"] == 3 for w in workers)

    def test_beat_ts_is_the_server_clock(self, store, service, clock):
        cid = self.enqueue(store)
        doc = _post(f"{service.url}/campaigns/{cid}/beat",
                    {"worker": "w1", "ts": 0})
        assert doc == {"ok": True}
        (record,) = ShardQueue.open(queue_root(store, cid)).workers()
        assert record["ts"] == clock.now

    @pytest.mark.parametrize("key", ["worker_id", "cid", "self"])
    def test_beat_body_key_is_data_never_a_500(self, store, service, key):
        # Body keys that share a name with a parameter of the beat call
        # chain are recorded as fields, not bound as arguments.
        cid = self.enqueue(store)
        doc = _post(f"{service.url}/campaigns/{cid}/beat",
                    {"worker": "w1", key: "x"})
        assert doc == {"ok": True}
        (record,) = ShardQueue.open(queue_root(store, cid)).workers()
        assert record["worker"] == "w1"
        assert record[key] == "x"

    @pytest.mark.parametrize("action, body", [
        ("beat", {"worker": "../../../../../outside"}),
        ("complete", {"worker": "w", "shard": "../../../../../victim",
                      "info": {"x": 1}}),
        ("renew", {"worker": "w", "shard": "../../../../../victim"}),
        ("fail", {"worker": "w", "shard": "..", "error": "boom"}),
        ("claim", {"worker": ".hidden"}),
    ], ids=["beat", "complete", "renew", "fail", "claim"])
    def test_id_that_is_not_a_plain_name_is_400(
        self, tmp_path, store, service, action, body
    ):
        # Worker and shard ids become file names under the queue; one
        # that walks out of it is refused before any verb runs.
        cid = self.enqueue(store)
        (tmp_path / "victim.json").write_text("{}")
        outside = sorted(p.name for p in tmp_path.iterdir())
        queue = ShardQueue.open(queue_root(store, cid))
        before = queue.status()
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{service.url}/campaigns/{cid}/{action}", body)
        assert err.value.code == 400
        assert "bad" in json.loads(err.value.read().decode())["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == outside
        assert queue.status() == before
        assert queue.workers() == []

    def test_dotted_worker_id_is_a_plain_name(self, store, service):
        # Host names carry dots, and so do default worker ids.
        cid = self.enqueue(store)
        doc = _post(f"{service.url}/campaigns/{cid}/beat",
                    {"worker": "node1.example.org-42"})
        assert doc == {"ok": True}
        workers = ShardQueue.open(queue_root(store, cid)).workers()
        assert [w["worker"] for w in workers] == ["node1.example.org-42"]

    def test_spec_and_queue_routes(self, store, service):
        cid = self.enqueue(store, n=2)
        with urllib.request.urlopen(
            f"{service.url}/campaigns/{cid}/spec"
        ) as response:
            spec = json.loads(response.read().decode())
        assert spec["campaign_id"] == cid
        assert spec["ttl_s"] == 60.0
        with urllib.request.urlopen(
            f"{service.url}/campaigns/{cid}/queue"
        ) as response:
            status = json.loads(response.read().decode())
        assert len(status["pending"]) == 2

    def test_claim_unknown_campaign_404(self, store, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{service.url}/campaigns/deadbeef/claim", {"worker": "w"})
        assert err.value.code == 404

    def test_missing_worker_400(self, store, service):
        cid = self.enqueue(store)
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{service.url}/campaigns/{cid}/claim", {})
        assert err.value.code == 400

    def test_malformed_json_400(self, store, service):
        cid = self.enqueue(store)
        request = urllib.request.Request(
            f"{service.url}/campaigns/{cid}/claim",
            data=b"{torn", method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5)
        assert err.value.code == 400


    def test_oversized_json_body_400_without_buffering(self, store, service):
        # A control body is capped at 1 MiB (object bundles keep their
        # own cap).  Only the header is sent: the server must refuse on
        # Content-Length alone instead of waiting to buffer the body.
        cid = self.enqueue(store)
        address = urlsplit(service.url)
        conn = http.client.HTTPConnection(
            address.hostname, address.port, timeout=5
        )
        try:
            conn.putrequest("POST", f"/campaigns/{cid}/claim")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str((1 << 20) + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert "exceeds" in json.loads(response.read().decode())["error"]
        finally:
            conn.close()
        # Nothing was claimed on the way.
        queue = ShardQueue.open(queue_root(store, cid))
        assert queue.status()["claimed"] == []


class TestObjectRoutes:
    def test_get_missing_object_404(self, store, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(service.url + "/objects/" + "ab" * 16)
        assert err.value.code == 404

    def test_traversal_fingerprint_rejected(self, store, service):
        # Path metacharacters never reach the store layer.
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(service.url + "/objects/..%2f..%2fetc")
        assert err.value.code in (400, 404)

    def test_put_garbage_400(self, store, service):
        request = urllib.request.Request(
            service.url + "/objects/" + "ab" * 16,
            data=b"not a bundle", method="PUT",
            headers={"Content-Type": "application/octet-stream"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5)
        assert err.value.code == 400


class TestErrorSanitization:
    """Satellite: 500 bodies carry the exception type, never a message
    that could leak server filesystem paths."""

    def test_500_body_has_no_paths(self, store, service, monkeypatch):
        secret = str(store.root)

        def explode():
            raise RuntimeError(f"cannot read {secret}/manifest.jsonl")

        monkeypatch.setattr(store, "campaign_ids", explode)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(service.url + "/status")
        assert err.value.code == 500
        body = err.value.read().decode()
        assert secret not in body
        assert "manifest" not in body
        payload = json.loads(body)
        assert payload["error"] == "internal server error"
        assert payload["type"] == "RuntimeError"

    def test_torn_queue_spec_is_404_not_500(self, store, service):
        cid = populate(store)
        (queue_root(store, cid) / "spec.json").write_text("{torn")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{service.url}/campaigns/{cid}/queue")
        assert err.value.code == 404
        # The campaign detail degrades to "no queue" instead of 500.
        payload = fetch_campaign(service.url, cid)
        assert payload["queue"] is None

    def test_missing_heartbeat_is_empty_not_500(self, store, service):
        configs = [make_config(seed=0)]
        cid = Coordinator(store, shard_size=1).enqueue(configs).campaign_id
        payload = fetch_campaign(service.url, cid)  # no heartbeat written
        assert payload["last"] is None
        assert payload["records"] == []


class TestStatusURL:
    def test_cli_status_url_renders_remote(self, store, service, capsys):
        from repro.cli import main

        cid = populate(store)
        code = main(["status", "--url", service.url])
        out = capsys.readouterr().out
        assert code == 0
        assert cid[:8] in out or cid in out

    def test_cli_status_url_json(self, store, service, capsys):
        from repro.cli import main

        cid = populate(store)
        assert main(["status", "--url", service.url, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["campaign_id"] == cid
        assert payload[0]["phase"] == "running"

    def test_cli_status_url_unreachable_exits_1(self, capsys):
        from repro.cli import main

        assert main(["status", "--url", "http://127.0.0.1:9"]) == 1
        assert "error" in capsys.readouterr().err

    def test_cli_status_needs_path_or_url(self, capsys):
        from repro.cli import main

        assert main(["status"]) == 2
