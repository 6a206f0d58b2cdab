"""The benchmark harness's own test: ``pytest benchmarks/perf``.

Not collected by tier-1 (``testpaths = ["tests"]``).  Runs every
workload at a tiny ``--scale`` and holds the result JSON to
``BENCHMARK.json``: exactly its workload and metric names, units
present, names and counts within the contract's limits, every check
passing -- and the hook's layer map covering every file of the package.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import compare
import layers
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_py(*args, cwd=run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class TestLayerMap:
    def test_covers_every_file_of_the_package(self):
        assert layers.unmapped_files() == []

    def test_lists_no_file_that_is_gone(self):
        listed = [f for files in layers.LAYER_FILES.values() for f in files]
        listed += layers.OTHER_FILES
        assert [f for f in listed if not (layers.PACKAGE / f).is_file()] == []
        assert len(listed) == len(set(listed))

    def test_hook_layers_are_the_declared_ones(self):
        declared = {m["name"] for m in SPEC["per_layer"]}
        assert len(layers.SIM_LAYERS) == 10 and len(layers.FABRIC_LAYERS) == 13
        for layer in layers.HOOK_LAYERS:
            assert {f"{layer}.self_s", f"{layer}.calls"} <= declared


class TestContract:
    def test_keys_and_limits(self):
        assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert SPEC["paths"] == ["benchmarks/perf"]
        assert 2 <= len(SPEC["workloads"]) <= 8
        assert 1 <= len(SPEC["end_to_end"]) <= 16
        assert 1 <= len(SPEC["per_layer"]) <= 128
        assert isinstance(SPEC["run_seconds"], int)
        assert 1 <= SPEC["run_seconds"] <= 60
        runs = 4 + 22 * len(SPEC["workloads"])
        assert runs * SPEC["run_seconds"] < 3420

    def test_names_units_bounds(self):
        names = []
        for workload in SPEC["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
            names.append(workload["name"])
        for metric in SPEC["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
            names.append(metric["name"])
        for metric in SPEC["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
            names.append(metric["name"])
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
        assert all(NAME.fullmatch(name) for name in names)
        assert len(names) == len(set(names))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
        assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "result.json"
    done = run_py("--scale", "0.05", "--seconds", "0.2", "--out", str(out))
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "trace.json"
    done = run_py("--scale", "0.05", "--seconds", "0.2", "--trace", "1",
                  "--out", str(out))
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


class TestResults:
    def test_untraced_carries_exactly_the_declared_names(self, untraced):
        assert list(untraced["workloads"]) == WORKLOADS
        declared = {m["name"]: m for m in SPEC["end_to_end"]}
        for name, result in untraced["workloads"].items():
            assert result["failed"] == 0, (name, result["failures"])
            assert result["attempted"] >= 1
            assert set(result["end_to_end"]) == set(declared), name
            for metric, row in result["end_to_end"].items():
                assert row["unit"] == declared[metric]["unit"]
                assert row["n"] == len(row["samples"]) >= 1
                assert row["q1"] <= row["median"] <= row["q3"]
                assert row["median"] > 0, (name, metric)
            assert result["end_to_end"]["setup_s"]["n"] == run.SETUPS

    def test_untraced_records_the_environment(self, untraced):
        env = untraced["env"]
        assert {"git_rev", "python", "nproc", "REPRO_SCHEDULER", "seed",
                "seconds", "scale", "trace", "setups"} <= set(env)
        assert env["trace"] == 0 and env["seed"] == 0
        assert all(r["scheduler"] for r in untraced["workloads"].values())

    def test_traced_carries_every_per_layer_metric(self, traced):
        assert list(traced["workloads"]) == WORKLOADS
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name, result in traced["workloads"].items():
            assert result["failed"] == 0, (name, result["failures"])
            rows = result["per_layer"]
            assert set(rows) == set(declared), name
            assert all(rows[m]["unit"] == declared[m] for m in declared)
            assert rows["trace.overhead_x"]["value"] > 0
            assert rows["trace.py_calls"]["value"] > 0
            spans = json.loads((run.ROOT / result["span_file"]).read_text())
            assert spans and all(
                {"name", "start", "end", "parent", "workload"} <= set(s)
                for s in spans
            )

    def test_traced_layers_follow_the_interaction_table(self, traced):
        def calls(workload, prefix):
            return sum(
                row["value"]
                for metric, row in
                traced["workloads"][workload]["per_layer"].items()
                if metric.startswith(prefix) and metric.endswith(".calls")
            )

        for cell in ("cell-cubic-2x", "cell-bbr-halfx"):
            assert calls(cell, "sim.") > 0 and calls(cell, "tcp.") > 0
            for prefix in ("store.", "dist.", "report."):
                assert calls(cell, prefix) == 0
        for grid in ("grid-write", "grid-read"):
            for prefix in ("sim.", "tcp.", "streaming.", "testbed"):
                assert calls(grid, prefix) == 0
        assert calls("grid-write", "dist.") > 0
        assert calls("grid-read", "report.") > 0
        assert calls("grid-read", "dist.") == 0
        pool = traced["workloads"]["campaign-pool"]["per_layer"]
        assert pool["store.scheduler.executed"]["value"] == 16
        assert 0 < pool["store.scheduler.pool_efficiency"]["value"] <= 1.05


class TestDriverLine:
    def test_last_line_is_the_summary_object(self, tmp_path):
        done = run_py("--workload", "grid-read", "--seed", "7", "--seconds",
                      "0.2", "--trace", "0", "--scale", "0.05",
                      "--out", str(tmp_path / "r.json"))
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())

    def test_refuses_a_directory_without_the_program(self, tmp_path):
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(
            run.HERE, tmp_path / "benchmarks" / "perf",
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        done = run_py("--workload", "grid-read", "--seed", "0", "--seconds",
                      "1", "--trace", "0", cwd=tmp_path,
                      script=tmp_path / "benchmarks" / "perf" / "run.py")
        assert done.returncode != 0
        assert "{" not in done.stdout


class TestCompare:
    @staticmethod
    def row(values, better="lower", bound=0.08):
        return {"values": values, "unit": "s", "better": better, "bound": bound}

    def test_same(self):
        label, _ = compare.verdict(self.row([1.0, 1.01, 1.02]),
                                   self.row([1.01, 1.0, 1.02]))
        assert label == "same"

    def test_worse_and_better(self):
        a, b = self.row([1.0, 1.01, 1.02]), self.row([1.2, 1.21, 1.22])
        assert compare.verdict(a, b)[0] == "worse"
        assert compare.verdict(b, a)[0] == "better"

    def test_higher_is_better(self):
        a = self.row([100.0, 101.0, 102.0], better="higher")
        b = self.row([80.0, 81.0, 82.0], better="higher")
        assert compare.verdict(a, b)[0] == "worse"

    def test_unresolved_when_spread_exceeds_bound(self):
        a, b = self.row([1.0, 1.2, 1.4]), self.row([1.05, 1.25, 1.3])
        assert compare.verdict(a, b)[0] == "unresolved"

    def test_wide_spread_is_better_when_every_run_wins(self):
        a, b = self.row([1.0, 1.2, 1.4]), self.row([0.5, 0.6, 0.7])
        assert compare.verdict(a, b)[0] == "better"

    def test_exit_status(self, untraced, tmp_path, capsys):
        def with_wall(samples, path):
            document = json.loads(json.dumps(untraced))
            row = document["workloads"]["grid-read"]["end_to_end"]["wall_s"]
            row["samples"] = samples
            path.write_text(json.dumps(document))
            return str(path)

        a = with_wall([1.0, 1.01, 1.02], tmp_path / "a.json")
        b = with_wall([2.0, 2.02, 2.04], tmp_path / "b.json")
        assert compare.main([a, a]) == 0
        assert compare.main([a, b]) == 1
        assert "worse" in capsys.readouterr().out
