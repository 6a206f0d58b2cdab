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
from repro.experiments.conditions import SYSTEM_NAMES
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


def _add_matrix_args(parser: argparse.ArgumentParser) -> None:
    """The condition-matrix sweep arguments ``campaign`` and
    ``dist coordinate`` share, so both expand the same grid to the same
    fingerprints (the distributed acceptance criterion depends on it)."""
    parser.add_argument(
        "--systems", nargs="+", choices=sorted(SYSTEMS),
        default=sorted(SYSTEMS), metavar="SYSTEM",
    )
    parser.add_argument(
        "--ccas", nargs="+", choices=sorted(CCA_REGISTRY) + ["solo"],
        default=["cubic", "bbr"], metavar="CCA",
        help="competing flows to sweep ('solo' = no competitor)",
    )
    parser.add_argument(
        "--capacities", nargs="+", type=float, default=[15.0, 25.0, 35.0],
        metavar="MBPS", help="bottleneck capacities, Mb/s",
    )
    parser.add_argument(
        "--queues", nargs="+", type=float, default=[0.5, 2.0, 7.0],
        metavar="MULT", help="queue sizes, multiples of BDP",
    )
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed (iteration i adds i)")
    parser.add_argument(
        "--profile", choices=sorted(_TIMELINES), default="quick",
    )


def _matrix_configs(args: argparse.Namespace) -> list[RunConfig]:
    """Expand the sweep grid into configs (same order as always)."""
    timeline = _TIMELINES[args.profile]
    return [
        RunConfig(
            system=system,
            capacity_bps=capacity * 1e6,
            queue_mult=queue,
            cca=None if cca == "solo" else cca,
            seed=args.seed + iteration,
            timeline=timeline,
        )
        for iteration in range(args.iterations)
        for cca in args.ccas
        for capacity in args.capacities
        for queue in args.queues
        for system in args.systems
    ]


def _add_condition_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--system", choices=sorted(SYSTEMS), required=True)
    parser.add_argument(
        "--cca", choices=sorted(CCA_REGISTRY), default=None,
        help="competing TCP congestion control (omit for a solo run)",
    )
    parser.add_argument(
        "--capacity", type=float, default=25.0, help="bottleneck capacity, Mb/s"
    )
    parser.add_argument(
        "--queue", type=float, default=2.0, help="queue size, multiples of BDP"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--profile", choices=sorted(_TIMELINES), default="quick",
        help="timeline scale (paper = full 9-minute runs)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gsnet",
        description="Game streaming vs TCP Cubic/BBR (IMC 2022 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {repro.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one configuration")
    _add_condition_args(run_parser)
    run_parser.add_argument("--json", action="store_true", help="emit JSON")
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
        "--store", metavar="DIR", default=None,
        help="run store directory: serve this config from cache if "
             "present, persist the result otherwise",
    )
    run_parser.add_argument(
        "--seeds", type=int, nargs="+", metavar="SEED", default=None,
        help="run this condition once per seed, in one process "
             "(overrides --seed; incompatible with "
             "--trace/--metrics/--profile-sim)",
    )

    cond_parser = sub.add_parser("condition", help="run several iterations")
    _add_condition_args(cond_parser)
    cond_parser.add_argument("--iterations", type=int, default=3)

    campaign_parser = sub.add_parser(
        "campaign",
        help="run a (resumable) grid of conditions against a run store",
    )
    _add_matrix_args(campaign_parser)
    campaign_parser.add_argument("--workers", type=int, default=1)
    campaign_parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="run store directory (enables caching, checkpoints, resume)",
    )
    campaign_parser.add_argument(
        "--resume", action="store_true",
        help="with --store: report configs the checkpoint records as "
             "permanently failed instead of re-executing them",
    )
    campaign_parser.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts per failing run (capped exponential backoff)",
    )
    campaign_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget; a run exceeding it is killed "
             "and retried like any other failure",
    )
    campaign_parser.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="deterministic fault injection for soak testing, e.g. "
             "'crash=0.2,exc=0.3,seed=7' "
             "(keys: crash/hang/exc rates, seed, hang_s, once)",
    )
    campaign_parser.add_argument(
        "--no-cache", action="store_true",
        help="force re-simulation even when the store has a result",
    )
    campaign_parser.add_argument(
        "--partial", action="store_true",
        help="record persistently failing configs instead of aborting",
    )
    campaign_parser.add_argument(
        "--seed-batch", type=int, default=1, metavar="N",
        help="group up to N same-condition seeds into one dispatch "
             "unit executed in-process (store contents are identical "
             "to per-run dispatch)",
    )
    campaign_parser.add_argument("--json", action="store_true",
                                 help="emit a machine-readable summary")

    store_parser = sub.add_parser("store", help="run-store maintenance")
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)
    for name, help_text in (
        ("ls", "list stored runs (manifest order)"),
        ("verify", "check store integrity; exit 1 on problems"),
        ("gc", "drop orphans, stray temp files, stale manifest entries"),
    ):
        store_cmd = store_sub.add_parser(name, help=help_text)
        store_cmd.add_argument("path", help="store directory")
        if name == "ls":
            store_cmd.add_argument("--json", action="store_true")
    store_merge = store_sub.add_parser(
        "merge",
        help="fold source stores into a destination (manifest-union, "
             "object dedupe by fingerprint); exit 1 on conflicts",
    )
    store_merge.add_argument("dest", help="destination store (created if new)")
    store_merge.add_argument("sources", nargs="+", metavar="SRC",
                             help="source store directories")
    store_merge.add_argument("--json", action="store_true")

    dist_parser = sub.add_parser(
        "dist", help="distributed campaign fabric (coordinator/workers/service)"
    )
    dist_sub = dist_parser.add_subparsers(dest="dist_command", required=True)

    dist_coord = dist_sub.add_parser(
        "coordinate",
        help="expand the matrix, dedupe against the store, enqueue "
             "shards, and watch until workers drain the queue",
    )
    _add_matrix_args(dist_coord)
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
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="watch-loop poll interval",
    )
    dist_coord.add_argument(
        "--watch-timeout", type=float, default=None, metavar="SECONDS",
        help="give up watching after this long (queue is left intact)",
    )
    dist_coord.add_argument("--json", action="store_true")

    dist_work = dist_sub.add_parser(
        "work",
        help="worker loop: claim shards from a coordinator store or a "
             "dist-serve endpoint, run them through the scheduler, "
             "renew leases, heartbeat",
    )
    dist_work.add_argument(
        "queue_store", nargs="?", default=None,
        help="coordinator store directory (where the shard queues "
             "live); omit when claiming over HTTP with --queue-url",
    )
    dist_work.add_argument(
        "--queue-url", metavar="URL", default=None,
        help="claim shards from a 'dist serve' endpoint instead of a "
             "shared directory; results run against --store (required) "
             "and finished objects are pushed back over HTTP",
    )
    dist_work.add_argument(
        "--store", metavar="DIR", default=None,
        help="result store for this worker (default: the coordinator "
             "store itself -- the shared-directory deployment; "
             "required with --queue-url)",
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
        "--workers", type=int, default=1,
        help="process-pool width per shard (the scheduler's workers)",
    )
    dist_work.add_argument(
        "--seed-batch", type=int, default=1, metavar="N",
        help="group up to N same-condition seeds of a shard into one "
             "dispatch unit executed in-process",
    )
    dist_work.add_argument("--retries", type=int, default=1)
    dist_work.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget",
    )
    dist_work.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="deterministic fault injection (same spec as campaign)",
    )
    dist_work.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="idle delay between queue scans",
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
    dist_work.add_argument("--json", action="store_true")

    dist_serve = dist_sub.add_parser(
        "serve",
        help="publish a store's campaign state AND queue API over HTTP: "
             "GET /status, /workers, /campaigns/<id>[/spec|/queue], "
             "GET|PUT /objects/<fp>, POST /campaigns/<id>/"
             "{claim,renew,complete,fail,beat} -- the --queue-url side",
    )
    dist_serve.add_argument("path", help="store directory")
    dist_serve.add_argument("--host", default="127.0.0.1")
    dist_serve.add_argument("--port", type=int, default=8765)

    report_parser = sub.add_parser(
        "report",
        help="aggregate stored runs into tables/figures (never simulates)",
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

    status_parser = sub.add_parser(
        "status", help="show live campaign progress from the heartbeat stream"
    )
    status_parser.add_argument(
        "path", nargs="?", default=None,
        help="store directory (or use --url for a remote service)",
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
    status_parser.add_argument(
        "--json", action="store_true", help="emit the latest snapshots as JSON"
    )

    table1 = sub.add_parser("table1", help="baseline bitrates (paper Table 1)")
    table1.add_argument("--iterations", type=int, default=3)
    table1.add_argument(
        "--profile", choices=sorted(_TIMELINES), default="quick",
    )

    inspect_parser = sub.add_parser(
        "inspect", help="summarise a JSONL trace captured with run --trace"
    )
    inspect_parser.add_argument("trace", help="path to the JSONL trace")
    inspect_parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    list_parser = sub.add_parser("list", help="enumerate available options")
    list_parser.add_argument(
        "what", choices=("systems", "ccas", "profiles", "qdiscs"),
    )
    return parser


class _StoreUnusable(Exception):
    """A store directory that cannot be opened; ends the command."""


def _open_store(path: str | None) -> RunStore | None:
    """The run store at ``path``, or None when no path was given.

    A path that cannot hold a store (a file, an unreadable directory,
    another store format) raises :class:`_StoreUnusable`, which
    :func:`main` turns into ``error: ...`` and exit status 1.
    """
    if not path:
        return None
    try:
        return RunStore(path)
    except (OSError, ValueError, StoreVersionError) as exc:
        raise _StoreUnusable(str(exc)) from None


def _make_config(args: argparse.Namespace, seed: int | None = None) -> RunConfig:
    return RunConfig(
        system=args.system,
        capacity_bps=args.capacity * 1e6,
        queue_mult=args.queue,
        cca=args.cca,
        seed=args.seed if seed is None else seed,
        timeline=_TIMELINES[args.profile],
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.seeds:
        if args.trace or args.metrics or args.profile_sim:
            print(
                "error: --seeds cannot be combined with "
                "--trace/--metrics/--profile-sim",
                file=sys.stderr,
            )
            return 2
        store = _open_store(args.store)
        results = [
            run_single(_make_config(args, seed), store=store)
            for seed in args.seeds
        ]
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
            print(f"error: cannot open trace file: {exc}", file=sys.stderr)
            return 1
    metrics = MetricsRecorder() if args.metrics else None
    profiler = SimProfiler() if args.profile_sim else None
    store = _open_store(args.store)

    try:
        result = run_single(
            _make_config(args), tracer=tracer, metrics=metrics,
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
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
    configs = [_make_config(args, seed=args.seed + i) for i in range(args.iterations)]
    results = Campaign().run(configs).report.results
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
        print("error: --resume requires --store", file=sys.stderr)
        return 2
    chaos = None
    if args.chaos:
        try:
            chaos = ChaosSpec.parse(args.chaos)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
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


def _render_merge(label: str, report) -> str:
    line = (f"{label}: {report.copied} copied | "
            f"{report.duplicates} duplicate(s)")
    if report.missing:
        line += f" | {len(report.missing)} source object(s) missing"
    if report.conflicts:
        line += f" | {len(report.conflicts)} CONFLICT(S)"
    return line


def _cmd_store(args: argparse.Namespace) -> int:
    if args.store_command == "merge":
        from repro.store.sync import merge_stores

        try:
            dest = _open_store(args.dest)
            reports = [
                (src, merge_stores(dest, _open_store(src)))
                for src in args.sources
            ]
        except (OSError, ValueError, StoreVersionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        conflicts = [fp for _, report in reports for fp in report.conflicts]
        if args.json:
            print(json.dumps({
                label: report.to_dict() for label, report in reports
            }))
        else:
            for label, report in reports:
                print(_render_merge(label, report))
            for fp in conflicts:
                print(f"  CONFLICT {fp}: source and destination hold "
                      "different results for the same fingerprint "
                      "(destination kept)", file=sys.stderr)
        return 1 if conflicts else 0

    store = _open_store(args.path)
    if args.store_command == "ls":
        if getattr(args, "json", False):
            # Machine-readable listing: manifest entries enriched with
            # each object's on-disk size and mtime.
            print(json.dumps(store.ls(stat=True)))
            return 0
        entries = store.ls()
        for entry in entries:
            print(f"{entry['fp'][:12]}  {entry['label']}")
        print(f"{len(entries)} stored run(s)")
        return 0
    if args.store_command == "verify":
        problems = store.verify()
        for problem in problems:
            print(problem)
        if problems:
            print(f"{len(problems)} problem(s)")
            return 1
        print(f"ok ({len(store.ls())} entries)")
        return 0
    # gc
    stats = store.gc()
    print(f"kept {stats['entries_kept']} entries | "
          f"dropped {stats['entries_dropped']} stale manifest entries | "
          f"removed {stats['objects_removed']} orphan objects, "
          f"{stats['tmp_removed']} temp files")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = _open_store(args.path)
    try:
        where = parse_where(args.where)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        print(f"error: {exc}", file=sys.stderr)
        return 2
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


def _remote_statuses(args: argparse.Namespace) -> list[dict] | None:
    """Campaign statuses from a ``dist serve`` endpoint, or None on error.

    Shaped like :func:`campaign_status` output so the local renderer
    applies unchanged; ``--history`` pulls the per-campaign trail.
    """
    from repro.dist.service import fetch_campaign, fetch_status
    from repro.dist.transport import TransportError

    try:
        snapshot = fetch_status(args.url)
    except TransportError as exc:
        print(f"error: cannot read {args.url}: {exc}", file=sys.stderr)
        return None
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
        print("error: give a store directory or --url", file=sys.stderr)
        return 2
    if args.url is not None:
        statuses = _remote_statuses(args)
        if statuses is None:
            return 1
        source = args.url
    else:
        store = _open_store(args.path)
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


def _cmd_dist(args: argparse.Namespace) -> int:
    from repro.dist import Coordinator, DistWorker, WatchTimeout
    from repro.dist.service import CampaignService

    if args.dist_command == "coordinate":
        if args.shard_size < 1:
            print("error: --shard-size must be >= 1", file=sys.stderr)
            return 2
        store = _open_store(args.store)
        coordinator = Coordinator(
            store, shard_size=args.shard_size, ttl_s=args.ttl
        )
        enq = coordinator.enqueue(_matrix_configs(args))
        if not args.json:
            verb = "enqueued" if enq.created else "attached to"
            print(f"campaign {enq.campaign_id}: {verb} {enq.shards} shard(s) "
                  f"({enq.enqueued} runs; {enq.cached}/{enq.total} pre-done "
                  f"from cache) in {enq.queue_root}")
        if args.enqueue_only:
            if args.json:
                print(json.dumps({"campaign_id": enq.campaign_id,
                                  "total": enq.total, "cached": enq.cached,
                                  "enqueued": enq.enqueued,
                                  "shards": enq.shards,
                                  "created": enq.created}))
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
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            print("\nwatch interrupted; the queue is intact -- re-run "
                  "'dist coordinate' with the same matrix to reattach")
            return 130
        done = final["cached_runs"] + final["done_runs"]
        if args.json:
            print(json.dumps({"campaign_id": enq.campaign_id,
                              "total": enq.total, "cached": enq.cached,
                              "enqueued": enq.enqueued,
                              "shards": enq.shards, "created": enq.created,
                              "done_runs": done,
                              "executed": final["executed"],
                              "cache_hits": final["cache_hits"],
                              "failed": final["failed"],
                              "retries": final["retries"],
                              "timeouts": final["timeouts"]}))
        else:
            print(f"campaign {enq.campaign_id}: converged, "
                  f"{done}/{final['total_runs']} runs "
                  f"({final['executed']} executed by workers, "
                  f"{final['failed']} failed)")
        return 1 if final["failed"] else 0

    if args.dist_command == "work":
        if (args.queue_store is None) == (args.queue_url is None):
            print("error: dist work needs exactly one queue source: a "
                  "coordinator store directory, or --queue-url",
                  file=sys.stderr)
            return 2
        if args.queue_url is not None and args.store is None:
            print("error: --queue-url needs --store (the worker's own "
                  "result store; there is no shared directory to default "
                  "to)", file=sys.stderr)
            return 2
        coord_store = _open_store(args.queue_store)
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
            print(f"error: {exc}", file=sys.stderr)
            return 2

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

    # serve
    store = _open_store(args.path)
    try:
        service = CampaignService(store, host=args.host, port=args.port)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    print(f"serving {store.root} at {service.url} "
          "(GET /status /workers /campaigns/<id>[/spec|/queue] "
          "/objects/<fp>; POST claim/renew/complete/fail/beat; "
          "PUT /objects/<fp>; ctrl-c to stop)")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    timeline = _TIMELINES[args.profile]
    configs = [
        RunConfig(
            system=system,
            capacity_bps=1e9,
            queue_mult=2.0,
            cca=None,
            seed=i,
            timeline=timeline,
        )
        for i in range(args.iterations)
        for system in SYSTEM_NAMES
    ]
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
    handlers = {
        "run": _cmd_run,
        "condition": _cmd_condition,
        "campaign": _cmd_campaign,
        "table1": _cmd_table1,
        "store": _cmd_store,
        "dist": _cmd_dist,
        "report": _cmd_report,
        "status": _cmd_status,
        "inspect": _cmd_inspect,
        "list": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except _StoreUnusable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed the pipe (| head, | less quit): exit quietly
        # like other Unix tools.  Redirect stdout to devnull so the
        # interpreter's shutdown flush does not raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
