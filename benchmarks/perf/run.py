#!/usr/bin/env python3
"""The repository's benchmark: one command, five workloads.

    python3 benchmarks/perf/run.py                      # all workloads
    python3 benchmarks/perf/run.py --trace 1            # per-layer numbers
    python3 benchmarks/perf/run.py --workload grid-read --seed 3

Every workload runs in its own fresh child process (``workloads.py``)
with ``PYTHONHASHSEED=0``; this process only starts children, checks
what they report against ``BENCHMARK.json``, prints every metric by name
and unit and writes the result JSON under ``benchmarks/perf/out/``.
With ``--workload`` the last line of standard output is the one-object
summary the benchmark driver reads.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import os
import platform
import shutil
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

from compare import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Fresh processes that set a workload up per run; ``setup_s`` is their
#: median.  One of them goes on to measure.
SETUPS = 3

#: A run must end within 180 s; leave room to report.
DEADLINE_S = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarise(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def run_child(args: list[str], deadline: float) -> dict:
    """Run ``workloads.py`` to completion and parse its last line.

    The child leads its own process group so that a timeout (or any
    error here) also ends the pool workers it forked; a child that ends
    by itself has already waited for them.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    child = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *args],
        stdout=subprocess.PIPE, env=env, text=True, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=max(deadline - time.monotonic(), 1))
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"workload child exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def scratch_dir(name: str) -> Path:
    """A fresh directory for one run's stores and queues.

    On ext4 with online discard (this sandbox), blocks freed by deleting
    a run's thousands of files are slow to write again, and the next
    run's directory would be allocated right beside them: back-to-back
    ``grid-write`` runs drifted from 2.8 s to 5.0 s per iteration.
    Flagging the parent as a top of directory hierarchies (``chattr
    +T``) lets the allocator spread each run's directory to another
    block group, which removed the drift.  It is a hint only; where the
    filesystem has no such flag, nothing is lost.
    """
    parent = OUT / "work"
    parent.mkdir(parents=True, exist_ok=True)
    get_flags, set_flags, topdir = 0x80086601, 0x40086602, 0x00020000
    fd = os.open(parent, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = bytearray(struct.pack("l", 0))
        fcntl.ioctl(fd, get_flags, flags)
        fcntl.ioctl(fd, set_flags,
                    struct.pack("l", struct.unpack("l", flags)[0] | topdir))
    except OSError:
        pass
    finally:
        os.close(fd)
    path = parent / f"{name}-{os.getpid()}"
    path.mkdir()
    return path


def run_workload(name: str, args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    # Deleted only once the last child has ended: no child deletes
    # files while it, or a later child, is timing fsyncs.
    workdir = scratch_dir(name)
    common = ["--workload", name, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--scale", str(args.scale),
              "--workdir", str(workdir)]
    try:
        setups = [
            run_child([*common, "--setup-only"], deadline)["setup_s"]
            for _ in range(SETUPS - 1)
        ]
        doc = run_child([*common, "--trace", str(args.trace)], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(doc["setup_s"])

    result = {
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "failed_frac": doc["failed"] / doc["attempted"],
        "failures": doc["failures"],
        "scheduler": doc["scheduler"],
        "info": doc["info"],
    }
    if args.trace:
        declared = {m["name"]: m for m in spec["per_layer"]}
        unknown = sorted(set(doc["per_layer"]) - set(declared))
        if unknown:
            raise RuntimeError(f"{name}: undeclared metrics {unknown}")
        # A layer the workload never enters reports nothing; that is a
        # measured zero, and the driver wants every metric every time.
        result["per_layer"] = {
            metric: {"value": doc["per_layer"].get(metric, 0),
                     "unit": declared[metric]["unit"]}
            for metric in declared
        }
        spans = OUT / f"trace-{name}.json"
        spans.write_text(json.dumps(doc["spans"]))
        result["span_file"] = str(spans.relative_to(ROOT))
    else:
        samples = dict(doc["samples"], setup_s=setups)
        declared = {m["name"]: m for m in spec["end_to_end"]}
        if set(samples) != set(declared):
            raise RuntimeError(
                f"{name}: measured {sorted(samples)}, "
                f"BENCHMARK.json declares {sorted(declared)}"
            )
        result["iterations"] = len(samples["wall_s"])
        result["end_to_end"] = {
            metric: {**declared[metric], **summarise(samples[metric])}
            for metric in declared
        }
    return result


def environment(args) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None  # the driver's checkout is not a git repository
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "REPRO_SCHEDULER": os.environ.get("REPRO_SCHEDULER"),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "setups": SETUPS,
    }


def print_table(results: dict, trace: int) -> None:
    for name, result in results.items():
        print(f"== {name}: attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for failure in result["failures"]:
            print(f"   FAILED: {failure}")
        if trace:
            for metric, row in result["per_layer"].items():
                print(f"   {metric:42s} {row['value']:>16.6g} {row['unit']}")
        else:
            for metric, row in result["end_to_end"].items():
                print(f"   {metric:18s} {row['median']:>12.6g} {row['unit']:6s}"
                      f" q1 {row['q1']:.6g} q3 {row['q3']:.6g} n {row['n']}"
                      f"  ({row['better']} is better, bound {row['bound']:.0%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="offsets every RunConfig seed")
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics and a span file")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (tests only)")
    parser.add_argument("--out", type=Path, help="result JSON path")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("error: no src/repro beside the benchmark; nothing to measure",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"options: {', '.join(names)}")
        names = [args.workload]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    OUT.mkdir(exist_ok=True)
    try:
        results = {name: run_workload(name, args, spec) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    document = {"schema": 1, "env": environment(args), "workloads": results}
    out = args.out or OUT / (
        "result" + (f"-{args.workload}" if args.workload else "")
        + ("-trace" if args.trace else "") + ".json"
    )
    out.write_text(json.dumps(document, indent=1))
    print_table(results, args.trace)
    print(f"result written to {out}")

    if args.workload is not None:
        result = results[args.workload]
        rows = result["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric: {"value": row["value" if args.trace else "median"],
                         "unit": row["unit"]}
                for metric, row in rows.items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
