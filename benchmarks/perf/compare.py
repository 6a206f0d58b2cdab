#!/usr/bin/env python3
"""Compare two sets of benchmark results: ``compare.py A B``.

``A`` (the parent) and ``B`` (the change) are each a result JSON written
by ``run.py``, or a directory of them (one per run, e.g. ten seeds).
With several runs per side a metric's values are the runs' medians; with
one run they are that run's own iterations.

One row per (end-to-end metric, workload): both medians and quartiles,
the bound from ``BENCHMARK.json`` as recorded in the results, and a
verdict:

- ``worse``       B's median is worse than A's by more than the bound;
- ``better``      B's median is better by more than the spread;
- ``unresolved``  the spread (widest interquartile range over A's
                  median) exceeds the bound, so "no regression" cannot
                  be told from noise -- unless every B value beats every
                  A value, which is ``better``;
- ``same``        otherwise.

Exit status 1 on any ``worse`` row or on a higher failed fraction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_set(path: Path) -> dict:
    """``{workload: {"failed_frac": x, "metrics": {name: row}}}`` where a
    row has ``values``, ``unit``, ``better`` and ``bound``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"error: no result JSON under {path}")
    runs: dict[str, list[dict]] = {}
    for file in files:
        document = json.loads(file.read_text())
        for workload, result in document["workloads"].items():
            if "end_to_end" in result:
                runs.setdefault(workload, []).append(result)
    merged = {}
    for workload, results in runs.items():
        metrics = {}
        for name, first in results[0]["end_to_end"].items():
            if len(results) == 1:
                values = list(first["samples"])
            else:
                values = [r["end_to_end"][name]["median"] for r in results]
            metrics[name] = {
                "values": values, "unit": first["unit"],
                "better": first["better"], "bound": first["bound"],
            }
        merged[workload] = {
            "failed_frac": max(r["failed_frac"] for r in results),
            "metrics": metrics,
        }
    return merged


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: dict, b: dict) -> tuple[str, dict]:
    """Classify one metric on one workload; also returns the numbers."""
    sign = -1.0 if a["better"] == "lower" else 1.0
    a_q1, a_med, a_q3 = quartiles(a["values"])
    b_q1, b_med, b_q3 = quartiles(b["values"])
    gain = sign * (b_med - a_med) / a_med          # > 0: B is better
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / abs(a_med)
    bound = a["bound"]
    if a["better"] == "lower":
        dominates = max(b["values"]) < min(a["values"])
    else:
        dominates = min(b["values"]) > max(a["values"])
    if spread > bound and not dominates:
        label = "unresolved"
    elif gain < -bound:
        label = "worse"
    elif gain > spread:
        label = "better"
    else:
        label = "same"
    return label, {
        "a": (a_med, a_q1, a_q3), "b": (b_med, b_q1, b_q3),
        "gain": gain, "spread": spread, "bound": bound,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("a", type=Path, help="parent: result file or directory")
    parser.add_argument("b", type=Path, help="change: result file or directory")
    args = parser.parse_args(argv)
    a_set, b_set = load_set(args.a), load_set(args.b)

    failed = False
    print(f"{'workload':16s} {'metric':18s} {'unit':6s} "
          f"{'A median [q1, q3]':>36s} {'B median [q1, q3]':>36s} "
          f"{'B gain':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in a_set:
        if workload not in b_set:
            print(f"{workload:16s} missing from B")
            failed = True
            continue
        a_run, b_run = a_set[workload], b_set[workload]
        for name, a in a_run["metrics"].items():
            label, n = verdict(a, b_run["metrics"][name])
            failed |= label == "worse"
            cells = [
                f"{med:.5g} [{q1:.5g}, {q3:.5g}]"
                for med, q1, q3 in (n["a"], n["b"])
            ]
            print(f"{workload:16s} {name:18s} {a['unit']:6s} "
                  f"{cells[0]:>36s} {cells[1]:>36s} {n['gain']:>+8.1%} "
                  f"{n['spread']:>7.1%} {n['bound']:>6.0%}  {label}")
        if b_run["failed_frac"] > a_run["failed_frac"]:
            print(f"{workload:16s} failed_frac rose: "
                  f"{a_run['failed_frac']:.4g} -> {b_run['failed_frac']:.4g}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
