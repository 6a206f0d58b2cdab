#!/usr/bin/env python
"""Run the paper's full measurement campaign and print every artefact.

This is the driver a downstream user runs to regenerate Figures 2-4
and Tables 4-5 in one go: the ``figures`` report formatter over the
campaign's results, the same files ``repro-gsnet report runs/ --format
figures`` renders from a store.  At the default ``--profile quick``
(1/3-scale runs) and ``--iterations 2`` it takes tens of minutes on one
core; ``--profile paper --iterations 15`` is the faithful (and very
long) version of the paper's 48-hour campaign.

With ``--store DIR`` completed runs are persisted to a content-addressed
run store as they finish, so an interrupted campaign resumes where it
left off and a finished one replays its artefacts from cache in
seconds.

Run:  python examples/full_campaign.py --iterations 2 --store runs/
"""

import argparse
import time
from pathlib import Path

from repro import Campaign, PAPER, QUICK, SMOKE, striped_order
from repro.report import aggregate_results, get_formatter
from repro.store import RunStore

_PROFILES = {"paper": PAPER, "quick": QUICK, "smoke": SMOKE}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=2)
    parser.add_argument("--profile", choices=sorted(_PROFILES), default="quick")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for per-run JSON results")
    parser.add_argument("--store", type=Path, default=None,
                        help="run store directory (cache + resumability)")
    parser.add_argument("--retries", type=int, default=1,
                        help="extra attempts per failing run")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-run wall-clock budget in seconds; a run "
                             "over budget is killed (or cooperatively "
                             "aborted) and retried")
    parser.add_argument("--chaos", default=None, metavar="SPEC",
                        help="deterministic fault-injection spec, e.g. "
                             "'crash=0.1,exc=0.2,seed=7' -- soak-tests the "
                             "scheduler, never use for real measurements")
    args = parser.parse_args()
    timeline = _PROFILES[args.profile]

    configs = list(striped_order(args.iterations, timeline=timeline))
    print(f"campaign: {len(configs)} runs "
          f"({args.iterations} iterations x 54 conditions), "
          f"{timeline.end:.0f}s each...")
    t0 = time.time()
    store = RunStore(args.store) if args.store else None
    campaign = Campaign(
        workers=args.workers, store=store, retries=args.retries,
        timeout=args.timeout, chaos=args.chaos,
    ).run(configs)
    report = campaign.report
    extras = ""
    if report.timeouts:
        extras += f", {report.timeouts} timed out"
    if report.pool_breaks:
        extras += f", {report.pool_breaks} pool break(s)"
    print(f"campaign done in {time.time() - t0:.0f}s "
          f"({report.cache_hits} from cache, {report.executed} executed, "
          f"{report.retries} retries{extras})\n")
    if report.interrupted:
        print(f"interrupted: {len(report.abandoned)} run(s) abandoned; "
              "re-run with the same --store to resume")
        return

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for run in report.results:
            name = (f"{run.system}-{run.cca}-{run.capacity_bps / 1e6:.0f}M-"
                    f"{run.queue_mult:g}x-s{run.seed}.json")
            run.save(args.out / name)
        print(f"per-run results saved to {args.out}/\n")

    figures = get_formatter("figures")(aggregate_results(report.results))
    for name, text in sorted(figures.items()):
        print(f"=== {name} ===")
        print(text)


if __name__ == "__main__":
    main()
