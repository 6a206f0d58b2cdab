"""Command-line interface: run conditions and print the paper's artefacts.

Examples::

    # One run, summarised
    repro-gsnet run --system stadia --cca cubic --capacity 25 --queue 2

    # A condition with several iterations, Figure-3-style cell value
    repro-gsnet condition --system luna --cca bbr --capacity 35 \
        --queue 0.5 --iterations 3

    # Table 1 (baseline bitrates, no constraint, no competitor)
    repro-gsnet table1 --iterations 3

    # A resumable multi-condition campaign backed by a run store:
    # re-running it serves every completed run from cache
    repro-gsnet campaign --systems stadia luna --ccas cubic bbr \
        --capacities 25 --queues 0.5 2 --iterations 3 \
        --workers 4 --store runs/ --retries 2 --partial

    # Soak-test the scheduler's fault tolerance: per-run timeouts plus
    # deterministic injected crashes / hangs / transient faults
    repro-gsnet campaign --systems luna --ccas cubic --capacities 25 \
        --queues 2 --workers 2 --store runs/ --retries 3 \
        --timeout 120 --chaos "crash=0.2,exc=0.3,seed=7"

    # Inspect / check / clean the store
    repro-gsnet store ls runs/ --json
    repro-gsnet store verify runs/
    repro-gsnet store gc runs/

    # Distribute a campaign across worker processes (or hosts):
    # terminal 1 enqueues shards and watches, terminals 2..N claim and
    # run them into their own stores, merged back afterwards
    repro-gsnet dist coordinate --systems luna --ccas cubic \
        --capacities 25 --queues 2 --store runs/ --shard-size 4
    repro-gsnet dist work runs/ --store w1/ --idle-exit 60
    repro-gsnet store merge runs/ w1/ w2/

    # Watch campaigns live over HTTP from anywhere
    repro-gsnet dist serve runs/ --port 8765
    repro-gsnet status --url localhost:8765

    # Aggregate stored runs into the paper's artefacts -- zero
    # simulations, any registered output format
    repro-gsnet report runs/ --where cca=bbr --where capacity=25
    repro-gsnet report runs/ --format csv -o out/
    repro-gsnet report runs/ --format figures -o figures/

    # Watch a campaign from another terminal (heartbeat stream)
    repro-gsnet status runs/
    repro-gsnet status runs/ --campaign a1b2c3 --history 10

    # Capture a trace + metrics + profiler report, then inspect it
    repro-gsnet run --system stadia --cca bbr --profile smoke \
        --trace out.jsonl --metrics metrics.json --profile-sim
    repro-gsnet inspect out.jsonl

    # What can I ask for?
    repro-gsnet list systems

The heavy multi-condition artefacts (Figures 2-4, Tables 3-5) live in
``benchmarks/`` where their results are recorded; the CLI covers
interactive spot checks.
"""

from __future__ import annotations

import argparse
import json
import sys

import repro
from repro.analysis.render import render_table
from repro.experiments import Campaign, PAPER, QUICK, RunConfig, SMOKE, run_single
from repro.experiments.conditions import SYSTEM_NAMES, condition_grid
from repro.obs import (
    JsonlSink,
    MetricsRecorder,
    SimProfiler,
    Tracer,
    load_trace,
    render_trace_summary,
    summarize_trace,
)
from repro.report import (
    aggregate_results,
    aggregate_store,
    campaign_status,
    formatter_names,
    get_formatter,
    render_status,
)
from repro.store import ChaosSpec, RunStore, StoreVersionError, parse_where
from repro.streaming.systems import SYSTEMS
from repro.tcp import CCA_REGISTRY
from repro.testbed.topology import QUEUE_DISCIPLINES

__all__ = ["main"]

_TIMELINES = {"paper": PAPER, "quick": QUICK, "smoke": SMOKE}


def _flags() -> argparse.ArgumentParser:
    """A parent parser: flags declared once, added to a command with
    ``parents=[...]``."""
    return argparse.ArgumentParser(add_help=False)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gsnet",
        description="Game streaming vs TCP Cubic/BBR (IMC 2022 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro.__version__}"
    )

    # Every flag more than one command takes, declared once.
    json_flag = _flags()
    json_flag.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON")
    store = _flags()
    store.add_argument(
        "--store", metavar="DIR", default=None,
        help="run store directory: serve runs from it when present, "
             "persist them otherwise",
    )
    profile = _flags()
    profile.add_argument(
        "--profile", choices=sorted(_TIMELINES), default="quick",
        help="timeline scale (paper = full 9-minute runs)",
    )
    seed = _flags()
    seed.add_argument("--seed", type=int, default=0,
                      help="base seed (iteration i adds i)")
    iterations = _flags()
    iterations.add_argument("--iterations", type=int, default=3,
                            help="runs per condition")
    poll = _flags()
    poll.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                      help="delay between queue scans")
    execution = _flags()
    execution.add_argument("--workers", type=int, default=1,
                           help="process-pool width")
    execution.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts per failing run (capped exponential backoff)",
    )
    execution.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget; a run exceeding it is killed "
             "and retried like any other failure",
    )
    execution.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="deterministic fault injection for soak testing, e.g. "
             "'crash=0.2,exc=0.3,seed=7' "
             "(keys: crash/hang/exc rates, seed, hang_s, once)",
    )
    execution.add_argument(
        "--seed-batch", type=int, default=1, metavar="N",
        help="group up to N runs that differ only in their competitor "
             "into one dispatch unit that simulates their shared warm-up "
             "once (store contents are identical to per-run dispatch)",
    )
    cell = _flags()  # one condition
    cell.add_argument("--system", choices=sorted(SYSTEMS), required=True)
    cell.add_argument(
        "--cca", choices=sorted(CCA_REGISTRY), default=None,
        help="competing TCP congestion control (omit for a solo run)",
    )
    cell.add_argument("--capacity", type=float, default=25.0,
                      help="bottleneck capacity, Mb/s")
    cell.add_argument("--queue", type=float, default=2.0,
                      help="queue size, multiples of BDP")
    # A sweep of conditions.  campaign and dist coordinate share it, so
    # both expand the same grid to the same fingerprints (the
    # distributed acceptance criterion depends on it).
    matrix = _flags()
    matrix.add_argument(
        "--systems", nargs="+", choices=sorted(SYSTEMS),
        default=sorted(SYSTEMS), metavar="SYSTEM",
    )
    matrix.add_argument(
        "--ccas", nargs="+", choices=sorted(CCA_REGISTRY) + ["solo"],
        default=["cubic", "bbr"], metavar="CCA",
        help="competing flows to sweep ('solo' = no competitor)",
    )
    matrix.add_argument(
        "--capacities", nargs="+", type=float, default=[15.0, 25.0, 35.0],
        metavar="MBPS", help="bottleneck capacities, Mb/s",
    )
    matrix.add_argument(
        "--queues", nargs="+", type=float, default=[0.5, 2.0, 7.0],
        metavar="MULT", help="queue sizes, multiples of BDP",
    )

    def command(subparsers, name, handler, help, parents=()):
        leaf = subparsers.add_parser(name, help=help, parents=list(parents))
        leaf.set_defaults(handler=handler)
        return leaf

    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = command(sub, "run", _cmd_run, "run one configuration",
                         [cell, seed, profile, store, json_flag])
    run_parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a JSONL tracepoint stream to PATH",
    )
    run_parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write sampled internal-state metrics (JSON) to PATH",
    )
    run_parser.add_argument(
        "--profile-sim", action="store_true",
        help="profile the event loop and report per-callback wall time",
    )
    run_parser.add_argument(
        "--seeds", type=int, nargs="+", metavar="SEED", default=None,
        help="run this condition once per seed, in one process "
             "(overrides --seed; incompatible with "
             "--trace/--metrics/--profile-sim)",
    )

    command(sub, "condition", _cmd_condition, "run several iterations",
            [cell, seed, profile, iterations])

    campaign_parser = command(
        sub, "campaign", _cmd_campaign,
        "run a (resumable) grid of conditions against a run store",
        [matrix, iterations, seed, profile, execution, store, json_flag],
    )
    campaign_parser.add_argument(
        "--resume", action="store_true",
        help="with --store: report configs the checkpoint records as "
             "permanently failed instead of re-executing them",
    )
    campaign_parser.add_argument(
        "--no-cache", action="store_true",
        help="force re-simulation even when the store has a result",
    )
    campaign_parser.add_argument(
        "--partial", action="store_true",
        help="record persistently failing configs instead of aborting",
    )

    store_sub = sub.add_parser(
        "store", help="run-store maintenance"
    ).add_subparsers(dest="store_command", required=True)
    for name, handler, help_text, parents in (
        ("ls", _cmd_store_ls, "list stored runs (manifest order)",
         [json_flag]),
        ("verify", _cmd_store_verify,
         "check store integrity; exit 1 on problems", []),
        ("gc", _cmd_store_gc,
         "drop orphans, stray temp files, stale manifest entries", []),
    ):
        command(store_sub, name, handler, help_text, parents).add_argument(
            "path", help="store directory (must already be a store)"
        )
    store_merge = command(
        store_sub, "merge", _cmd_store_merge,
        "fold source stores into a destination (manifest-union, "
        "object dedupe by fingerprint); exit 1 on conflicts",
        [json_flag],
    )
    store_merge.add_argument("dest", help="destination store (created if new)")
    store_merge.add_argument("sources", nargs="+", metavar="SRC",
                             help="source store directories")

    dist_sub = sub.add_parser(
        "dist", help="distributed campaign fabric (coordinator/workers/service)"
    ).add_subparsers(dest="dist_command", required=True)

    dist_coord = command(
        dist_sub, "coordinate", _cmd_dist_coordinate,
        "expand the matrix, dedupe against the store, enqueue "
        "shards, and watch until workers drain the queue",
        [matrix, iterations, seed, profile, poll, json_flag],
    )
    dist_coord.add_argument(
        "--store", metavar="DIR", required=True,
        help="coordinator store (hosts the queue, heartbeat, and dedupe)",
    )
    dist_coord.add_argument(
        "--shard-size", type=int, default=4, metavar="N",
        help="runs per shard (the unit workers claim)",
    )
    dist_coord.add_argument(
        "--ttl", type=float, default=60.0, metavar="SECONDS",
        help="lease time-to-live; an unrenewed claim older than this "
             "is stolen back to pending",
    )
    dist_coord.add_argument(
        "--enqueue-only", action="store_true",
        help="enqueue and exit instead of watching for convergence",
    )
    dist_coord.add_argument(
        "--watch-timeout", type=float, default=None, metavar="SECONDS",
        help="give up watching after this long (queue is left intact)",
    )

    dist_work = command(
        dist_sub, "work", _cmd_dist_work,
        "worker loop: claim shards from a coordinator store or a "
        "dist-serve endpoint, run them through the scheduler into "
        "--store (default: the coordinator store), renew leases, heartbeat",
        [execution, store, poll, json_flag],
    )
    dist_work.add_argument(
        "queue_store", nargs="?", default=None,
        help="coordinator store directory (where the shard queues "
             "live; must already be a store); omit when claiming over "
             "HTTP with --queue-url",
    )
    dist_work.add_argument(
        "--queue-url", metavar="URL", default=None,
        help="claim shards from a 'dist serve' endpoint instead of a "
             "shared directory; results run against --store (required) "
             "and finished objects are pushed back over HTTP",
    )
    dist_work.add_argument(
        "--campaign", metavar="ID", default=None,
        help="serve only this campaign (default: all queues found)",
    )
    dist_work.add_argument(
        "--worker-id", metavar="ID", default=None,
        help="stable worker identity (default: <hostname>-<pid>)",
    )
    dist_work.add_argument(
        "--max-shards", type=int, default=None, metavar="N",
        help="stop after completing N shards",
    )
    dist_work.add_argument(
        "--idle-exit", type=float, default=None, metavar="SECONDS",
        help="exit after this long with nothing claimable",
    )
    dist_work.add_argument(
        "--keep-alive", action="store_true",
        help="keep polling for new campaigns after the visible queues "
             "drain (fleet-daemon mode)",
    )
    dist_work.add_argument(
        "--chaos-kill-after", type=int, default=None, metavar="RUNS",
        help="test hook: hard-exit the worker process after RUNS "
             "completed runs (lease left to expire and be stolen)",
    )

    dist_serve = command(
        dist_sub, "serve", _cmd_dist_serve,
        "publish a store's campaign state and queue API over HTTP "
        "(the --queue-url side; routes: see repro.dist.service)",
    )
    dist_serve.add_argument("path", help="store directory (must already be a store)")
    dist_serve.add_argument("--host", default="127.0.0.1")
    dist_serve.add_argument("--port", type=int, default=8765)

    report_parser = command(
        sub, "report", _cmd_report,
        "aggregate stored runs into tables/figures (never simulates)",
    )
    report_parser.add_argument("path", help="store directory")
    report_parser.add_argument(
        "--where", action="append", metavar="KEY=VALUE[,VALUE...]",
        help="filter runs by condition axis (repeatable; e.g. cca=bbr, "
             "capacity=25, system=stadia,luna, cca=solo)",
    )
    report_parser.add_argument(
        "--format", choices=formatter_names(), default="table",
        help="output format (registered formatters)",
    )
    report_parser.add_argument(
        "-o", "--out", metavar="DIR", default=None,
        help="write the formatter's files under DIR instead of stdout",
    )

    status_parser = command(
        sub, "status", _cmd_status,
        "show live campaign progress from the heartbeat stream", [json_flag],
    )
    status_parser.add_argument(
        "path", nargs="?", default=None,
        help="store directory, which must already be a store (or use "
             "--url for a remote service)",
    )
    status_parser.add_argument(
        "--url", metavar="URL", default=None,
        help="read campaign state from a 'dist serve' endpoint instead "
             "of a local store",
    )
    status_parser.add_argument(
        "--campaign", metavar="ID", default=None,
        help="campaign id (default: every campaign with a heartbeat)",
    )
    status_parser.add_argument(
        "--history", type=int, default=0, metavar="N",
        help="also show the last N heartbeat records per campaign",
    )

    command(sub, "table1", _cmd_table1, "baseline bitrates (paper Table 1)",
            [iterations, profile])

    command(
        sub, "inspect", _cmd_inspect,
        "summarise a JSONL trace captured with run --trace", [json_flag],
    ).add_argument("trace", help="path to the JSONL trace")

    command(sub, "list", _cmd_list, "enumerate available options").add_argument(
        "what", choices=("systems", "ccas", "profiles", "qdiscs"),
    )
    return parser


class _Refused(Exception):
    """Ends a command: :func:`main` prints ``error: <message>`` and
    exits with ``code``."""

    def __init__(self, message: object, code: int = 1):
        super().__init__(str(message))
        self.code = code


def _open_store(path: str | None, create: bool = True) -> RunStore | None:
    """The run store at ``path``, or None when no path was given.

    With ``create=False`` a path that is not already a store is refused
    (nothing is created).  A path that cannot hold a store (a file, an
    unreadable directory, another store format) is refused too.
    """
    if not path:
        return None
    try:
        return RunStore(path, create=create)
    except (OSError, ValueError, StoreVersionError) as exc:
        raise _Refused(exc) from None


def _configs(args, ccas, capacities, queues, systems,
             seeds=None) -> list[RunConfig]:
    """The configs of one grid: each seed (the outer loop) over every
    :func:`condition_grid` cell, at ``--profile``'s timeline.

    Capacities are Mb/s, and a cca of None or ``"solo"`` runs without a
    competitor.  Seeds default to ``--seed`` + iteration for each of
    ``--iterations``.
    """
    if seeds is None:
        seeds = range(args.seed, args.seed + args.iterations)
    timeline = _TIMELINES[args.profile]
    return [
        RunConfig(
            system=system,
            capacity_bps=capacity * 1e6,
            queue_mult=queue,
            cca=None if cca == "solo" else cca,
            seed=seed,
            timeline=timeline,
        )
        for seed in seeds
        for cca, capacity, queue, system in condition_grid(
            ccas, capacities, queues, systems
        )
    ]


def _cell_configs(args, seeds=None) -> list[RunConfig]:
    return _configs(args, [args.cca], [args.capacity], [args.queue],
                    [args.system], seeds)


def _matrix_configs(args) -> list[RunConfig]:
    return _configs(args, args.ccas, args.capacities, args.queues,
                    args.systems)


def _cmd_run(args: argparse.Namespace) -> int:
    configs = _cell_configs(args, args.seeds or [args.seed])
    if args.seeds:
        if args.trace or args.metrics or args.profile_sim:
            raise _Refused("--seeds cannot be combined with "
                           "--trace/--metrics/--profile-sim", 2)
        store = _open_store(args.store)
        results = [run_single(config, store=store) for config in configs]
        if args.json:
            print(json.dumps([result.to_dict() for result in results]))
            return 0
        print(f"run {args.system} vs {args.cca or 'solo'} "
              f"@ {args.capacity:g} Mb/s, {args.queue:g}x BDP "
              f"({len(results)} seeds, one process)")
        for result in results:
            print(f"  seed {result.seed:<3d} baseline "
                  f"{result.baseline_bps / 1e6:6.2f} Mb/s  loss "
                  f"{result.game_loss_rate:8.4f}  f/s "
                  f"{result.displayed_fps_contention:6.1f}  wall "
                  f"{result.wall_time_s:5.2f} s")
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        try:
            tracer.attach(JsonlSink(args.trace))
        except OSError as exc:
            raise _Refused(f"cannot open trace file: {exc}") from None
    metrics = MetricsRecorder() if args.metrics else None
    profiler = SimProfiler() if args.profile_sim else None
    store = _open_store(args.store)

    try:
        result = run_single(
            configs[0], tracer=tracer, metrics=metrics,
            sim_profiler=profiler, store=store,
        )
    finally:
        if tracer is not None:
            tracer.close()
    if metrics is not None:
        metrics.save(args.metrics)

    if args.json:
        print(json.dumps(result.to_dict()))
        return 0
    print(f"run {args.system} vs {args.cca or 'solo'} "
          f"@ {args.capacity:g} Mb/s, {args.queue:g}x BDP (seed {args.seed})")
    print(f"  baseline bitrate : {result.baseline_bps / 1e6:6.2f} Mb/s")
    if args.cca:
        ratio = (result.fairness_game_bps - result.fairness_iperf_bps) / result.capacity_bps
        print(f"  game / iperf     : {result.fairness_game_bps / 1e6:6.2f} / "
              f"{result.fairness_iperf_bps / 1e6:6.2f} Mb/s (ratio {ratio:+.2f})")
    print(f"  loss rate        : {result.game_loss_rate:8.4f}")
    print(f"  displayed f/s    : {result.displayed_fps_contention:6.1f}")
    rtts = result.rtt_samples[:, 1] if result.rtt_samples.size else []
    if len(rtts):
        import numpy as np

        print(f"  mean RTT         : {float(np.mean(rtts)) * 1e3:6.1f} ms")
    print(f"  wall time        : {result.wall_time_s:6.2f} s")
    if args.trace:
        print(f"  trace            : {args.trace}")
    if args.metrics:
        print(f"  metrics          : {args.metrics}")
    if profiler is not None:
        print()
        print(profiler.render())
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    try:
        events = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        raise _Refused(exc) from None
    summary = summarize_trace(events)
    if args.json:
        print(json.dumps(summary))
    else:
        print(render_trace_summary(summary))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    catalog = {
        "systems": sorted(SYSTEMS),
        "ccas": sorted(CCA_REGISTRY),
        "profiles": sorted(_TIMELINES),
        "qdiscs": list(QUEUE_DISCIPLINES),
    }
    for name in catalog[args.what]:
        print(name)
    return 0


def _cmd_condition(args: argparse.Namespace) -> int:
    results = Campaign().run(_cell_configs(args)).report.results
    condition = aggregate_results(results, keep_bands=False).get(
        args.system, args.cca, args.capacity * 1e6, args.queue
    )
    print(f"condition {args.system} vs {args.cca or 'solo'} "
          f"@ {args.capacity:g} Mb/s, {args.queue:g}x BDP, "
          f"{args.iterations} iterations")
    mean, std = condition.baseline_bps.mean_std()
    print(f"  baseline bitrate : {mean / 1e6:.2f} ({std / 1e6:.2f}) Mb/s")
    if args.cca:
        print(f"  fairness ratio   : {condition.fairness.mean:+.2f}")
        print(f"  response time    : {condition.response_s.mean:.1f} s")
        print(f"  recovery time    : {condition.recovery_s.mean:.1f} s")
    # Pooled over the contention window, or for a solo run (no
    # contention phase) the window Table 3 uses.
    mean, std = condition.rtt_s.mean_std()
    print(f"  RTT              : {mean * 1e3:.1f} ({std * 1e3:.1f}) ms")
    mean, std = condition.loss_rate.mean_std()
    print(f"  loss rate        : {mean:.4f} ({std:.4f})")
    mean, std = condition.fps.mean_std()
    print(f"  frame rate       : {mean:.1f} ({std:.1f}) f/s")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.resume and not args.store:
        raise _Refused("--resume requires --store", 2)
    chaos = None
    if args.chaos:
        try:
            chaos = ChaosSpec.parse(args.chaos)
        except ValueError as exc:
            raise _Refused(exc, 2) from None
    configs = _matrix_configs(args)
    store = _open_store(args.store)

    progress = None
    if not args.json:
        def progress(done, total, label, wall_s):
            print(f"  [{done}/{total}] {label} ({wall_s:.2f} s)")

    campaign = Campaign(
        workers=args.workers,
        progress=progress,
        store=store,
        retries=args.retries,
        timeout=args.timeout,
        partial=args.partial,
        use_cache=not args.no_cache,
        resume=args.resume,
        chaos=chaos,
        seed_batch=args.seed_batch,
    ).run(configs)
    report = campaign.report
    # Listed in the order the grid first names each condition.
    grid = {}
    for config in configs:
        grid.setdefault(
            (config.system, config.cca, config.capacity_bps, config.queue_mult),
            len(grid),
        )
    conditions = sorted(
        aggregate_results(report.results, keep_bands=False).conditions.values(),
        key=lambda c: grid[(c.system, c.cca, c.capacity_bps, c.queue_mult)],
    )

    summary = {
        "campaign_id": report.campaign_id,
        "total": len(configs),
        "cache_hits": report.cache_hits,
        "executed": report.executed,
        "retries": report.retries,
        "timeouts": report.timeouts,
        "pool_breaks": report.pool_breaks,
        "interrupted": report.interrupted,
        "abandoned": len(report.abandoned),
        "failures": [
            {"label": f.config.label, "error": f.error, "attempts": f.attempts}
            for f in report.failures
        ],
        "conditions": [
            {
                "system": c.system,
                "cca": c.cca,
                "capacity_bps": c.capacity_bps,
                "queue_mult": c.queue_mult,
                "runs": c.runs,
            }
            for c in conditions
        ],
    }
    if args.json:
        print(json.dumps(summary))
    else:
        line = (f"campaign {report.campaign_id}: {len(configs)} runs | "
                f"{report.cache_hits} from cache | {report.executed} executed | "
                f"{report.retries} retries | {len(report.failures)} failed")
        if report.timeouts:
            line += f" | {report.timeouts} timed out"
        if report.pool_breaks:
            line += f" | {report.pool_breaks} pool break(s)"
        print(line)
        for failure in report.failures:
            print(f"  FAILED {failure.config.label} "
                  f"after {failure.attempts} attempt(s): {failure.error}")
        for condition in conditions:
            cca = condition.cca or "solo"
            line = (f"  {condition.system} vs {cca} @ "
                    f"{condition.capacity_bps / 1e6:g} Mb/s, "
                    f"{condition.queue_mult:g}x BDP: "
                    f"{condition.runs} runs")
            if condition.contended:
                line += f", fairness {condition.fairness.mean:+.2f}"
            print(line)
    if report.interrupted:
        if not args.json:
            msg = f"interrupted: {len(report.abandoned)} run(s) abandoned"
            if args.store:
                msg += "; re-run the same command to resume"
            print(msg)
        return 130
    return 1 if report.failures else 0


def _cmd_store_ls(args: argparse.Namespace) -> int:
    store = _open_store(args.path, create=False)
    if args.json:
        # Machine-readable listing: manifest entries enriched with
        # each object's on-disk size and mtime.
        print(json.dumps(store.ls(stat=True)))
        return 0
    entries = store.ls()
    for entry in entries:
        print(f"{entry['fp'][:12]}  {entry['label']}")
    print(f"{len(entries)} stored run(s)")
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    store = _open_store(args.path, create=False)
    problems = store.verify()
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} problem(s)")
        return 1
    print(f"ok ({len(store.ls())} entries)")
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    stats = _open_store(args.path, create=False).gc()
    print(f"kept {stats['entries_kept']} entries | "
          f"dropped {stats['entries_dropped']} stale manifest entries | "
          f"removed {stats['objects_removed']} orphan objects, "
          f"{stats['tmp_removed']} temp files")
    return 0


def _cmd_store_merge(args: argparse.Namespace) -> int:
    from repro.store.sync import merge_stores

    # Every source must already be a store before the destination is
    # created or anything is copied.
    sources = [(src, _open_store(src, create=False)) for src in args.sources]
    dest = _open_store(args.dest)
    try:
        reports = [(label, merge_stores(dest, src)) for label, src in sources]
    except (OSError, ValueError, StoreVersionError) as exc:
        raise _Refused(exc) from None
    conflicts = [fp for _, report in reports for fp in report.conflicts]
    if args.json:
        print(json.dumps({
            label: report.to_dict() for label, report in reports
        }))
    else:
        for label, report in reports:
            line = (f"{label}: {report.copied} copied | "
                    f"{report.duplicates} duplicate(s)")
            if report.missing:
                line += f" | {len(report.missing)} source object(s) missing"
            if report.conflicts:
                line += f" | {len(report.conflicts)} CONFLICT(S)"
            print(line)
        for fp in conflicts:
            print(f"  CONFLICT {fp}: source and destination hold "
                  "different results for the same fingerprint "
                  "(destination kept)", file=sys.stderr)
    return 1 if conflicts else 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = _open_store(args.path)
    try:
        where = parse_where(args.where)
    except ValueError as exc:
        raise _Refused(exc, 2) from None
    formatter = get_formatter(args.format)
    try:
        report = aggregate_store(
            store,
            where=where,
            # The band arrays only feed the figure set; metric-only
            # formats skip accumulating them.
            keep_bands=(args.format == "figures"),
        )
    except ValueError as exc:
        raise _Refused(exc, 2) from None
    files = formatter(report)
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, content in sorted(files.items()):
            (out / name).write_text(content)
            print(f"wrote {out / name}")
    else:
        for i, name in enumerate(sorted(files)):
            if len(files) > 1:
                if i:
                    print()
                print(f"=== {name} ===")
            print(files[name], end="" if files[name].endswith("\n") else "\n")
    if report.total_runs == 0:
        print("warning: no stored runs matched the selection", file=sys.stderr)
    return 0


def _remote_statuses(args: argparse.Namespace) -> list[dict]:
    """Campaign statuses from a ``dist serve`` endpoint.

    Shaped like :func:`campaign_status` output so the local renderer
    applies unchanged; ``--history`` pulls the per-campaign trail.
    """
    from repro.dist.service import fetch_campaign, fetch_status
    from repro.dist.transport import TransportError

    try:
        snapshot = fetch_status(args.url)
    except TransportError as exc:
        raise _Refused(f"cannot read {args.url}: {exc}") from None
    campaigns = [
        c for c in snapshot.get("campaigns", [])
        if c.get("last") is not None
        and (args.campaign is None or c["campaign_id"] == args.campaign)
    ]
    statuses = []
    for c in campaigns:
        records = [c["last"]]
        if args.history > 0:
            try:
                detail = fetch_campaign(args.url, c["campaign_id"])
                records = detail.get("records") or records
            except TransportError:
                pass  # trail is best-effort; the summary line still renders
        statuses.append({
            "campaign_id": c["campaign_id"], "last": c["last"],
            "records": records,
        })
    return statuses


def _cmd_status(args: argparse.Namespace) -> int:
    if args.url is None and args.path is None:
        raise _Refused("give a store directory or --url", 2)
    if args.url is not None:
        statuses = _remote_statuses(args)
        source = args.url
    else:
        store = _open_store(args.path, create=False)
        ids = [args.campaign] if args.campaign else store.campaign_ids()
        statuses = [
            status
            for status in (campaign_status(store, cid) for cid in ids)
            if status is not None
        ]
        source = args.path
    if args.json:
        print(json.dumps(
            [{"campaign_id": s["campaign_id"], **s["last"]} for s in statuses]
        ))
        return 0 if statuses else 1
    if not statuses:
        which = f"campaign {args.campaign}" if args.campaign else "any campaign"
        print(f"no heartbeat recorded for {which} in {source}")
        return 1
    for i, status in enumerate(statuses):
        if i:
            print()
        print(render_status(status, history=args.history))
    return 0


def _cmd_dist_coordinate(args: argparse.Namespace) -> int:
    from repro.dist import Coordinator, WatchTimeout

    if args.shard_size < 1:
        raise _Refused("--shard-size must be >= 1", 2)
    coordinator = Coordinator(
        _open_store(args.store), shard_size=args.shard_size, ttl_s=args.ttl
    )
    enq = coordinator.enqueue(_matrix_configs(args))
    summary = {"campaign_id": enq.campaign_id, "total": enq.total,
               "cached": enq.cached, "enqueued": enq.enqueued,
               "shards": enq.shards, "created": enq.created}
    if not args.json:
        verb = "enqueued" if enq.created else "attached to"
        print(f"campaign {enq.campaign_id}: {verb} {enq.shards} shard(s) "
              f"({enq.enqueued} runs; {enq.cached}/{enq.total} pre-done "
              f"from cache) in {enq.queue_root}")
    if args.enqueue_only:
        if args.json:
            print(json.dumps(summary))
        return 0

    seen = {}

    def progress(status):
        key = (len(status["pending"]), len(status["claimed"]),
               len(status["done"]), status["done_runs"])
        if not args.json and seen.get("key") != key:
            seen["key"] = key
            done = status["cached_runs"] + status["done_runs"]
            print(f"  [{done}/{status['total_runs']}] "
                  f"{len(status['pending'])} pending / "
                  f"{len(status['claimed'])} claimed / "
                  f"{len(status['done'])} done shard(s)"
                  + (f", stole {status['stolen_now']}"
                     if status.get("stolen_now") else ""))

    try:
        final = coordinator.watch(
            enq.campaign_id, poll_s=args.poll,
            timeout_s=args.watch_timeout, progress=progress,
        )
    except WatchTimeout as exc:
        raise _Refused(exc) from None
    except KeyboardInterrupt:
        print("\nwatch interrupted; the queue is intact -- re-run "
              "'dist coordinate' with the same matrix to reattach")
        return 130
    done = final["cached_runs"] + final["done_runs"]
    if args.json:
        summary["done_runs"] = done
        for key in ("executed", "cache_hits", "failed", "retries", "timeouts"):
            summary[key] = final[key]
        print(json.dumps(summary))
    else:
        print(f"campaign {enq.campaign_id}: converged, "
              f"{done}/{final['total_runs']} runs "
              f"({final['executed']} executed by workers, "
              f"{final['failed']} failed)")
    return 1 if final["failed"] else 0


def _cmd_dist_work(args: argparse.Namespace) -> int:
    from repro.dist import DistWorker

    if (args.queue_store is None) == (args.queue_url is None):
        raise _Refused("dist work needs exactly one queue source: a "
                       "coordinator store directory, or --queue-url", 2)
    if args.queue_url is not None and args.store is None:
        raise _Refused("--queue-url needs --store (the worker's own "
                       "result store; there is no shared directory to "
                       "default to)", 2)
    coord_store = _open_store(args.queue_store, create=False)
    store = _open_store(args.store) if args.store else coord_store
    try:
        worker = DistWorker(
            coord_store,
            store=store,
            queue_url=args.queue_url,
            campaign=args.campaign,
            worker_id=args.worker_id,
            inner_workers=args.workers,
            seed_batch=args.seed_batch,
            retries=args.retries,
            timeout=args.timeout,
            chaos=args.chaos,
            poll_s=args.poll,
            exit_when_done=not args.keep_alive,
            max_shards=args.max_shards,
            idle_timeout_s=args.idle_exit,
            kill_after_runs=args.chaos_kill_after,
        )
    except ValueError as exc:
        raise _Refused(exc, 2) from None

    progress = None
    if not args.json:
        def progress(shard, shard_report, completed):
            state = "done" if completed else "lost (stolen+finished)"
            print(f"  shard {shard.id}: {state}, "
                  f"{shard_report.executed} executed, "
                  f"{shard_report.cache_hits} cached, "
                  f"{len(shard_report.failures)} failed")
        source = args.queue_url or args.queue_store
        print(f"worker {worker.worker_id}: serving {source} "
              f"-> {store.root}")
    try:
        report = worker.run(progress=progress)
    except KeyboardInterrupt:
        print("\nworker interrupted; unfinished leases will expire "
              "and be stolen")
        return 130
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        shipping = (
            f" | {report.pulled} pulled, {report.pushed} pushed"
            + (f", {report.push_conflicts} push conflict(s)"
               if report.push_conflicts else "")
        ) if args.queue_url else ""
        print(f"worker {report.worker_id}: {report.shards_done} shard(s) "
              f"done, {report.shards_lost} lost | {report.executed} "
              f"executed, {report.cache_hits} cached, "
              f"{report.failed} failed | {report.stolen} lease(s) stolen"
              f"{shipping}")
    # A push conflict means the service refused an object that
    # disagrees with its store -- version skew or corruption; the
    # worker must not exit clean over it.
    return 1 if (report.failed or report.push_conflicts) else 0


def _cmd_dist_serve(args: argparse.Namespace) -> int:
    from repro.dist.service import CampaignService

    store = _open_store(args.path, create=False)
    try:
        service = CampaignService(store, host=args.host, port=args.port)
    except OSError as exc:
        raise _Refused(f"cannot bind {args.host}:{args.port}: {exc}") from None
    print(f"serving {store.root} at {service.url} "
          "(routes: see repro.dist.service; ctrl-c to stop)")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    # No competitor, no constraint (1 Gb/s): seeds are the iterations.
    configs = _configs(args, [None], [1e3], [2.0], SYSTEM_NAMES,
                       seeds=range(args.iterations))
    results = Campaign().run(configs).report.results
    report = aggregate_results(results, keep_bands=False)
    cells = {}
    for system in SYSTEM_NAMES:
        mean, std = report.get(system, None, 1e9, 2.0).baseline_bps.mean_std()
        cells[(system, "Bitrate (Mb/s)")] = (mean / 1e6, std / 1e6)
    print(
        render_table(
            "Table 1: game system bitrates without constraints",
            list(SYSTEM_NAMES),
            ["Bitrate (Mb/s)"],
            cells,
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # Downstream closed the pipe (| head, | less quit): exit quietly
        # like other Unix tools.  Redirect stdout to devnull so the
        # interpreter's shutdown flush does not raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
