"""Tests for the command-line interface (smoke-scale runs)."""

import json

import pytest

from repro.cli import main
from tests.store.test_runstore import DAMAGED, damage_object, make_config, make_result


def test_run_command_prints_summary(capsys):
    rc = main(["run", "--system", "luna", "--cca", "cubic",
               "--capacity", "25", "--queue", "2", "--profile", "smoke"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "baseline bitrate" in out
    assert "game / iperf" in out
    assert "mean RTT" in out


def test_run_solo_omits_fairness(capsys):
    rc = main(["run", "--system", "stadia", "--capacity", "25",
               "--queue", "2", "--profile", "smoke"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "game / iperf" not in out


def test_run_json_output(capsys):
    rc = main(["run", "--system", "geforce", "--cca", "bbr",
               "--capacity", "15", "--queue", "0.5", "--profile", "smoke",
               "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["system"] == "geforce"
    assert data["cca"] == "bbr"
    assert len(data["times"]) == len(data["game_bps"])
    # The serialised result is complete: identity, provenance, summaries.
    assert data["seed"] == 0
    assert data["queue_mult"] == 0.5
    assert data["qdisc"] == "droptail"
    assert data["wall_time_s"] > 0
    assert data["rtt_summary"]["count"] > 0
    assert data["rtt_summary"]["min"] <= data["rtt_summary"]["mean"]
    assert data["rtt_summary"]["mean"] <= data["rtt_summary"]["max"]
    assert -1.0 <= data["fairness_ratio"] <= 1.0


def test_condition_command(capsys):
    rc = main(["condition", "--system", "luna", "--cca", "cubic",
               "--capacity", "25", "--queue", "2", "--profile", "smoke",
               "--iterations", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fairness ratio" in out
    assert "response time" in out
    assert "frame rate" in out


def test_condition_solo_reports_rtt_over_the_solo_window(capsys, monkeypatch):
    # No competitor, no contention phase: the RTT line must use the
    # window Table 3 uses for solo runs.
    from repro.experiments import SMOKE
    from repro.experiments.results import RunResult

    windows = []
    rtts_in = RunResult.rtts_in

    def spy(self, t_start, t_end):
        windows.append((t_start, t_end))
        return rtts_in(self, t_start, t_end)

    monkeypatch.setattr(RunResult, "rtts_in", spy)
    rc = main(["condition", "--system", "stadia", "--profile", "smoke",
               "--iterations", "1"])
    assert rc == 0
    assert windows == [SMOKE.solo_window]
    out = capsys.readouterr().out
    assert "RTT" in out and "fairness ratio" not in out


def test_invalid_system_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--system", "psnow", "--profile", "smoke"])


def test_invalid_cca_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--system", "luna", "--cca", "quic", "--profile", "smoke"])


def test_version_flag(capsys):
    import repro

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_list_subcommand(capsys):
    assert main(["list", "systems"]) == 0
    assert capsys.readouterr().out.split() == ["geforce", "luna", "stadia"]
    assert main(["list", "ccas"]) == 0
    out = capsys.readouterr().out.split()
    assert "cubic" in out and "bbr" in out
    assert main(["list", "profiles"]) == 0
    assert capsys.readouterr().out.split() == ["paper", "quick", "smoke"]
    assert main(["list", "qdiscs"]) == 0
    assert capsys.readouterr().out.split() == ["droptail", "codel", "fq_codel"]


def test_list_rejects_unknown_category():
    with pytest.raises(SystemExit):
        main(["list", "quantum"])


def test_bench_subcommand_is_gone(capsys):
    # The benchmark is benchmarks/perf/run.py; the CLI has no bench verb.
    with pytest.raises(SystemExit) as exc:
        main(["bench", "list"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_campaign_rerun_served_from_cache(tmp_path, capsys):
    store = str(tmp_path / "store")
    argv = ["campaign", "--systems", "luna", "--ccas", "cubic",
            "--capacities", "25", "--queues", "2", "--iterations", "2",
            "--profile", "smoke", "--store", store, "--json"]

    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["executed"] == 2
    assert first["cache_hits"] == 0
    assert first["failures"] == []

    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["executed"] == 0
    assert second["cache_hits"] == 2
    assert second["campaign_id"] == first["campaign_id"]
    assert second["conditions"] == first["conditions"]


def test_campaign_human_output(tmp_path, capsys):
    rc = main(["campaign", "--systems", "stadia", "--ccas", "solo",
               "--capacities", "25", "--queues", "2", "--iterations", "1",
               "--profile", "smoke", "--store", str(tmp_path / "s")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "campaign" in out
    assert "1 runs | 0 from cache | 1 executed" in out
    assert "stadia vs solo" in out


@pytest.mark.parametrize("command", [
    ["run", "--system", "luna", "--profile", "smoke"],
    ["run", "--system", "luna", "--profile", "smoke", "--seeds", "1", "2"],
    ["campaign", "--systems", "luna", "--ccas", "solo", "--capacities", "25",
     "--queues", "2", "--iterations", "1", "--profile", "smoke"],
], ids=["run", "run-seeds", "campaign"])
def test_unusable_store_path_is_an_error_not_a_traceback(
    command, tmp_path, capsys
):
    # A regular file cannot hold a store; every command that takes
    # --store says so and exits 1 before simulating anything.
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert main(command + ["--store", str(not_a_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert str(not_a_dir) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("observer", [
    ["--trace", "t.jsonl"], ["--metrics", "m.json"], ["--profile-sim"],
], ids=["trace", "metrics", "profile-sim"])
def test_run_seeds_rejects_per_run_observers(observer, tmp_path, capsys,
                                             monkeypatch):
    # An observer binds to one run; refused before anything simulates
    # or any file is opened.
    monkeypatch.chdir(tmp_path)
    command = ["run", "--system", "luna", "--profile", "smoke",
               "--seeds", "1", "2"]
    assert main(command + observer) == 2
    assert "--seeds cannot be combined" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_campaign_resume_requires_store(capsys):
    rc = main(["campaign", "--resume", "--profile", "smoke"])
    assert rc == 2
    assert "--resume requires --store" in capsys.readouterr().err


def test_store_subcommands(tmp_path, capsys):
    store = str(tmp_path / "store")
    main(["campaign", "--systems", "luna", "--ccas", "solo",
          "--capacities", "25", "--queues", "2", "--iterations", "1",
          "--profile", "smoke", "--store", store, "--json"])
    capsys.readouterr()

    assert main(["store", "ls", store]) == 0
    out = capsys.readouterr().out
    assert "luna-solo-25M-2x-s0" in out
    assert "1 stored run(s)" in out

    assert main(["store", "ls", store, "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 1 and entries[0]["system"] == "luna"

    assert main(["store", "verify", store]) == 0
    assert "ok (1 entries)" in capsys.readouterr().out

    assert main(["store", "gc", store]) == 0
    assert "kept 1 entries" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["missing", "not-a-store"])
@pytest.mark.parametrize("verb", ["ls", "verify", "gc", "merge"])
def test_store_commands_refuse_a_path_that_is_not_a_store(verb, kind,
                                                          tmp_path, capsys):
    # A mistyped path must not turn into a new, empty store that the
    # command then reports on as if it were fine.  merge takes it as a
    # source, after a sound one: neither is merged, no destination made.
    from repro.store import RunStore

    typo = tmp_path / "typo"
    if kind == "not-a-store":
        typo.mkdir()
        (typo / "notes.txt").write_text("")
    sound = RunStore(tmp_path / "sound")
    sound.put(make_config(), make_result(make_config()))
    before = sorted(tmp_path.rglob("*"))
    argv = ["store", verb, str(typo)]
    if verb == "merge":
        argv[2:2] = [str(tmp_path / "dest"), str(sound.root)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {typo} is not a run store (no store.json)\n"
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("kind", ["missing", "not-a-store"])
@pytest.mark.parametrize("verb", [
    ["status"], ["dist", "work"], ["dist", "serve"],
], ids=["status", "dist-work", "dist-serve"])
def test_status_and_dist_refuse_a_path_that_is_not_a_store(verb, kind,
                                                           tmp_path, capsys,
                                                           monkeypatch):
    # The same rule for the commands that read a store's campaigns or
    # serve its queue: a typo is refused, not created and served empty.
    import repro.dist.service

    def bind(*args, **kwargs):
        raise AssertionError("dist serve bound a port for a non-store")

    monkeypatch.setattr(repro.dist.service, "CampaignService", bind)
    typo = tmp_path / "typo"
    if kind == "not-a-store":
        typo.mkdir()
        (typo / "notes.txt").write_text("")
    before = sorted(tmp_path.rglob("*"))
    options = {"work": ["--idle-exit", "1", "--json"], "serve": ["--port", "0"]}
    assert main([*verb, str(typo), *options.get(verb[-1], [])]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {typo} is not a run store (no store.json)\n"
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_store_verify_reports_corruption(tmp_path, capsys):
    from repro.store import RunStore

    store_dir = str(tmp_path / "store")
    main(["campaign", "--systems", "luna", "--ccas", "solo",
          "--capacities", "25", "--queues", "2", "--iterations", "1",
          "--profile", "smoke", "--store", store_dir, "--json"])
    capsys.readouterr()

    store = RunStore(store_dir)
    fp = store.ls()[0]["fp"]
    (store._object_dir(fp) / "arrays.npz").unlink()
    assert main(["store", "verify", store_dir]) == 1
    assert "missing arrays.npz" in capsys.readouterr().out


@pytest.mark.parametrize("how", DAMAGED)
def test_store_verify_reports_torn_object(tmp_path, capsys, how):
    from repro.store import RunStore

    store = RunStore(tmp_path / "store")
    config = make_config()
    fp = store.put(config, make_result(config))
    damage_object(store, fp, how)
    assert main(["store", "verify", str(store.root)]) == 1
    assert f"{fp}: unreadable object" in capsys.readouterr().out


def test_run_with_store_caches(tmp_path, capsys):
    store = str(tmp_path / "store")
    argv = ["run", "--system", "luna", "--capacity", "25", "--queue", "2",
            "--profile", "smoke", "--store", store, "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["game_bps"] == first["game_bps"]
    assert second["wall_time_s"] == first["wall_time_s"]  # cached, not re-run


def test_campaign_rejects_bad_chaos_spec(capsys):
    rc = main(["campaign", "--profile", "smoke",
               "--chaos", "frobnicate=0.5"])
    assert rc == 2
    assert "chaos" in capsys.readouterr().err


def test_campaign_chaos_converges_and_store_verifies(tmp_path, capsys):
    # exc=1.0 + once=true injects a transient fault on every run's first
    # attempt; one retry converges to the fault-free result set.
    store = str(tmp_path / "store")
    rc = main(["campaign", "--systems", "luna", "--ccas", "cubic",
               "--capacities", "25", "--queues", "2", "--iterations", "1",
               "--profile", "smoke", "--store", store, "--retries", "1",
               "--timeout", "600", "--chaos", "exc=1.0,seed=7", "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["executed"] == 1
    assert summary["retries"] == 1
    assert summary["failures"] == []
    assert summary["timeouts"] == 0
    assert summary["interrupted"] is False
    assert summary["abandoned"] == 0

    assert main(["store", "verify", store]) == 0
    assert "ok (1 entries)" in capsys.readouterr().out


def test_run_trace_metrics_profile_round_trip(tmp_path, capsys):
    """run --trace/--metrics/--profile-sim, then inspect the capture."""
    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.json"
    rc = main(["run", "--system", "stadia", "--cca", "bbr",
               "--capacity", "25", "--queue", "2", "--profile", "smoke",
               "--trace", str(trace_path), "--metrics", str(metrics_path),
               "--profile-sim"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sim profile" in out
    assert str(trace_path) in out

    # The trace is valid non-empty JSONL with the key probes present.
    lines = trace_path.read_text().splitlines()
    assert len(lines) > 1000
    events = {json.loads(line)["ev"] for line in lines}
    assert {"run.config", "tcp.cwnd", "bbr.state",
            "queue.occupancy", "gcc.target", "run.end"} <= events

    # The metrics file round-trips.
    metrics = json.loads(metrics_path.read_text())
    assert metrics["series"]["iperf.cwnd"]["v"]
    assert metrics["series"]["queue.bytes"]["kind"] == "gauge"

    # inspect summarises the same capture without error.
    rc = main(["inspect", str(trace_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "event counts" in out
    assert "bbr iperf" in out

    rc = main(["inspect", str(trace_path), "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["events"] == len(lines)
    assert summary["config"]["system"] == "stadia"


@pytest.fixture(scope="module")
def report_store(tmp_path_factory):
    """A small store with one contended and one solo condition."""
    store = str(tmp_path_factory.mktemp("cli-report") / "store")
    rc = main(["campaign", "--systems", "luna", "--ccas", "solo", "cubic",
               "--capacities", "25", "--queues", "2", "--iterations", "1",
               "--profile", "smoke", "--store", store, "--json"])
    assert rc == 0
    return store


def test_report_table_format(report_store, capsys):
    assert main(["report", report_store]) == 0
    out = capsys.readouterr().out
    assert "2 runs, 2 conditions" in out
    assert "luna" in out and "cubic" in out and "solo" in out


def test_report_every_registered_format(report_store, capsys):
    from repro.report import formatter_names

    for fmt in formatter_names():
        assert main(["report", report_store, "--format", fmt]) == 0, fmt
        assert capsys.readouterr().out


def test_report_csv_and_json_parse(report_store, capsys):
    assert main(["report", report_store, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # header + 2 conditions
    assert lines[0].startswith("system,cca,")

    assert main(["report", report_store, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"] == 2
    assert len(payload["conditions"]) == 2


def test_report_where_filters(report_store, capsys):
    rc = main(["report", report_store, "--where", "cca=solo",
               "--format", "json"])
    assert rc == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["runs"] == 1
    assert payload["conditions"][0]["cca"] is None

    rc = main(["report", report_store, "--where", "cca=reno",
               "--format", "json"])
    assert rc == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["runs"] == 0
    assert "no stored runs matched" in captured.err


def test_report_bad_where_clause(report_store, capsys):
    assert main(["report", report_store, "--where", "nonsense"]) == 2
    assert "error" in capsys.readouterr().err


def test_report_figures_to_directory(report_store, tmp_path, capsys):
    out_dir = tmp_path / "figs"
    rc = main(["report", report_store, "--format", "figures",
               "-o", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    written = sorted(p.name for p in out_dir.iterdir())
    assert "figure2_bitrate.txt" in written
    assert "figure3_fairness.txt" in written
    assert out.count("wrote ") == len(written)


def test_report_missing_store(tmp_path, capsys):
    missing = tmp_path / "absent" / "store"
    assert main(["report", str(missing), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["runs"] == 0


def test_status_after_campaign(report_store, capsys):
    assert main(["status", report_store]) == 0
    out = capsys.readouterr().out
    assert "campaign " in out and ": done" in out
    assert "2/2 (100%)" in out

    assert main(["status", report_store, "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 1
    assert records[0]["phase"] == "done"
    assert records[0]["done"] == records[0]["total"] == 2


def test_status_without_heartbeat(tmp_path, capsys):
    store = str(tmp_path / "store")
    from repro.store import RunStore

    RunStore(store)  # exists but has no campaigns
    assert main(["status", store]) == 1
    assert "no heartbeat recorded" in capsys.readouterr().out
    assert main(["status", store, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == []


def test_status_unknown_campaign(report_store, capsys):
    assert main(["status", report_store, "--campaign", "feedface"]) == 1
    assert "feedface" in capsys.readouterr().out


def test_store_ls_json_carries_stat_fields(report_store, capsys):
    assert main(["store", "ls", report_store, "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 2
    for entry in entries:
        assert entry["size_bytes"] > 0
        assert entry["mtime"] > 0

