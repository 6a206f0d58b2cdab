"""Layer attribution from outside the program.

Everything here is owned by the benchmark harness; nothing under
``src/repro`` knows it exists.  Three instruments:

- :class:`LayerProfiler` -- a ``sys.setprofile``/``threading.setprofile``
  hook that buckets self time and Python call counts by the *owning
  module* of each frame.  It is frame-based, so it keeps naming layers
  after call fusion folded several layers' work into one event
  callback (the thing ``--profile-sim`` can no longer do).
- :class:`SpanRecorder` -- in-memory spans (``name``, ``start``, ``end``,
  ``parent`` plus workload/run/shard ids) around public calls, written
  out once at exit.
- :class:`Wrappers` -- counting/timing wrappers on public methods
  (``RunStore.put``/``get_fp``, the ``ShardQueue`` lease verbs, the
  ``HttpTransport`` verbs), installed only for the traced span pass.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: The hook's layers, each with the files of ``src/repro`` it owns.  The
#: listing is by file on purpose: a module added to the package matches
#: nothing here and fails the harness test (and the run that first
#: executes it) instead of sliding into "other".
_SIM_FILES: dict[str, tuple[str, ...]] = {
    "sim.engine": ("sim/engine.py", "sim/wheel.py"),
    "sim.link": (
        "sim/link.py", "sim/queues.py", "sim/aqm.py", "sim/token_bucket.py",
        "sim/netem.py", "sim/delayline.py", "sim/node.py",
    ),
    "sim.packet": ("sim/packet.py",),
    "sim.flowstats": ("sim/flowstats.py",),
    "tcp.sender": (
        "tcp/base.py", "tcp/cubic.py", "tcp/bbr.py", "tcp/reno.py",
        "tcp/vegas.py", "tcp/rtt.py", "tcp/windowed_filter.py",
    ),
    "tcp.receiver": ("tcp/receiver.py",),
    "streaming.server": (
        "streaming/server.py", "streaming/encoder.py", "streaming/frames.py",
        "streaming/systems.py",
    ),
    "streaming.client": (
        "streaming/client.py", "streaming/gcc.py", "streaming/feedback.py",
    ),
    "testbed": (
        "testbed/topology.py", "testbed/capture.py", "testbed/iperf.py",
        "testbed/ping.py", "testbed/presentmon.py", "testbed/tc.py",
    ),
    "experiments.runner": (
        "experiments/runner.py", "experiments/multirun.py",
        "experiments/config.py", "experiments/conditions.py",
        "experiments/profiles.py",
    ),
}
_FABRIC_FILES: dict[str, tuple[str, ...]] = {
    "store.runstore": ("store/runstore.py", "store/fingerprint.py"),
    # Campaign is the scheduler's front end (it only builds one and
    # groups what comes back), and chaos wraps the scheduler's run_fn.
    "store.scheduler": (
        "store/scheduler.py", "store/heartbeat.py", "store/chaos.py",
        "experiments/campaign.py",
    ),
    "store.index": ("store/index.py",),
    "store.sync": ("store/sync.py",),
    "dist.queue": ("dist/queue.py",),
    "dist.coordinator": ("dist/coordinator.py",),
    "dist.worker": ("dist/worker.py",),
    "dist.transport": ("dist/transport.py",),
    "dist.service": ("dist/service.py",),
    "report.aggregate": ("report/aggregate.py",),
    "report.formatters": ("report/formatters.py", "report/status.py"),
    "analysis.reducers": (
        "analysis/reducers.py", "analysis/adaptiveness.py",
        "analysis/bitrate.py", "analysis/fairness.py",
        "analysis/framerate.py", "analysis/loss.py", "analysis/render.py",
        "analysis/rtt.py", "analysis/stats.py",
    ),
    "experiments.results": ("experiments/results.py",),
}

LAYER_FILES = {**_SIM_FILES, **_FABRIC_FILES}
SIM_LAYERS = tuple(_SIM_FILES)
FABRIC_LAYERS = tuple(_FABRIC_FILES)
HOOK_LAYERS = SIM_LAYERS + FABRIC_LAYERS

#: Where frames that belong to no layer are counted: the harness itself,
#: threads' stdlib bootstrap, and the package files listed below, which
#: no workload is meant to execute.
OTHER = "other"
OTHER_FILES = (
    "cli.py",
    "bench/compare.py", "bench/report.py", "bench/runner.py",
    "bench/scenarios.py",
    "obs/counters.py", "obs/inspect.py", "obs/metrics.py",
    "obs/profiler.py", "obs/trace.py",
)

_FILE_LAYER = {
    rel: layer for layer, files in LAYER_FILES.items() for rel in files
}
_FILE_LAYER.update({rel: OTHER for rel in OTHER_FILES})


def layer_of_file(rel: str) -> str | None:
    """Layer owning ``rel`` (posix path under ``src/repro``), or None.

    Package ``__init__`` files only re-export names, so they all count
    as "other" without being listed.
    """
    if rel.endswith("__init__.py"):
        return OTHER
    return _FILE_LAYER.get(rel)


def unmapped_files() -> list[str]:
    """Files under ``src/repro`` that the map above does not place."""
    return sorted(
        rel for rel in (
            path.relative_to(PACKAGE).as_posix()
            for path in PACKAGE.rglob("*.py")
        )
        if layer_of_file(rel) is None
    )


# ----------------------------------------------------------------------
# The profile hook
# ----------------------------------------------------------------------
def _after_fork_in_child() -> None:
    # A forked pool worker inherits the parent's hook with its thread
    # state; the pool workload measures its children from outside only.
    sys.setprofile(None)
    threading.setprofile(None)


os.register_at_fork(after_in_child=_after_fork_in_child)


class LayerProfiler:
    """Bucket self time and call counts by the owning layer of each frame.

    A frame of a ``src/repro`` file belongs to that file's layer.  Any
    other Python frame (stdlib, numpy, the harness) *inherits* the layer
    of the frame that called it, and C calls never leave the current
    layer, so a layer's self time includes the library work it asked
    for -- ``json``/``numpy``/``fsync`` under ``RunStore.put`` is
    ``store.runstore`` time.  ``calls`` counts only the layer's own
    frames; inherited Python calls and C calls are kept beside it for
    the overhead correction.

    The hook reads the clock on entry and again on exit and attributes
    only the time *between* hook invocations, so most of its own cost is
    charged to no layer.  What remains (the interpreter's dispatch into
    and out of the hook) is estimated by :meth:`calibrate`.

    The main thread is timed with ``perf_counter`` -- waits on disk or on
    the HTTP service block the result and belong to the waiting layer.
    Other threads (the service's handlers, lease renewers) are timed
    with ``thread_time``: their sleeps block nothing.
    """

    def __init__(self) -> None:
        self.names = list(HOOK_LAYERS) + [OTHER]
        self._other = len(self.names) - 1
        self._index = {name: i for i, name in enumerate(self.names)}
        self._code_layer: dict = {}
        self._threads: list[tuple[list, list, list, list]] = []
        self.unmapped: set[str] = set()
        self._prefix = str(PACKAGE) + os.sep

    def _resolve(self, code) -> int:
        """Layer index of a code object; -1 = not ours, inherit."""
        filename = code.co_filename
        index = -1
        if filename.startswith(self._prefix):
            rel = filename[len(self._prefix):].replace(os.sep, "/")
            layer = layer_of_file(rel)
            if layer is None:
                self.unmapped.add(rel)
                layer = OTHER
            index = self._index[layer]
        self._code_layer[code] = index
        return index

    def _make_hook(self, clock):
        size = len(self.names)
        self_t = [0.0] * size
        calls = [0] * size
        inherited = [0] * size
        c_calls = [0] * size
        self._threads.append((self_t, calls, inherited, c_calls))
        stack: list[int] = []
        push = stack.append
        pop = stack.pop
        lookup = self._code_layer.get
        resolve = self._resolve
        other = self._other
        cur = other
        last = clock()

        def hook(frame, event, arg):
            nonlocal cur, last
            if event == "call":
                self_t[cur] += clock() - last
                push(cur)
                code = frame.f_code
                index = lookup(code)
                if index is None:
                    index = resolve(code)
                if index >= 0:
                    cur = index
                    calls[index] += 1
                else:
                    inherited[cur] += 1
                last = clock()
            elif event == "return":
                self_t[cur] += clock() - last
                # Frames already on the stack when the hook was
                # installed return without a matching call.
                cur = pop() if stack else other
                last = clock()
            elif event == "c_call":
                c_calls[cur] += 1

        return hook

    def _thread_bootstrap(self, frame, event, arg):
        """First event of a new thread: swap in that thread's own hook."""
        hook = self._make_hook(time.thread_time)
        sys.setprofile(hook)
        return hook(frame, event, arg)

    def __enter__(self) -> "LayerProfiler":
        threading.setprofile(self._thread_bootstrap)
        sys.setprofile(self._make_hook(time.perf_counter))
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def totals(self) -> dict[str, dict]:
        """Per layer: ``self_s``, ``calls``, ``inherited_calls``, ``c_calls``."""
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {
                "self_s": sum(t[0][i] for t in self._threads),
                "calls": sum(t[1][i] for t in self._threads),
                "inherited_calls": sum(t[2][i] for t in self._threads),
                "c_calls": sum(t[3][i] for t in self._threads),
            }
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def calibrate() -> dict:
        """Residual hook cost per Python call and per C call, seconds.

        Runs an empty Python function and a trivial builtin in a loop,
        plain and under the hook, and takes the difference between the
        time the hook attributed and the time the loop really needs.
        """
        rounds = 200_000

        def empty():
            pass

        def py_loop(n):
            for _ in range(n):
                empty()

        def c_loop(n):
            data = ()
            for _ in range(n):
                len(data)

        def bare_loop(n):
            for _ in range(n):
                pass

        def plain(loop):
            start = time.perf_counter()
            loop(rounds)
            return time.perf_counter() - start

        def hooked(loop):
            with LayerProfiler() as profiler:
                loop(rounds)
            return profiler.totals()[OTHER]["self_s"]

        plain(py_loop)  # warm the code paths before timing them
        py_s = (hooked(py_loop) - plain(py_loop)) / rounds
        c_s = (hooked(c_loop) - hooked(bare_loop)
               - (plain(c_loop) - plain(bare_loop))) / rounds
        return {"py_call_s": max(py_s, 0.0), "c_call_s": max(c_s, 0.0)}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """Spans kept in memory; :meth:`dump` turns them into plain dicts.

    ``parent`` is the index of the span open on the same thread when
    this one started, or None.  Disabled recorders cost one attribute
    test per ``span()`` call, so the stage spans in the workloads stay
    in place for untraced runs.
    """

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self._records: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def _open(self, name: str, ids: dict):
        parent = getattr(self._local, "current", None)
        record = [name, time.perf_counter(), None, parent, ids]
        with self._lock:
            index = len(self._records)
            self._records.append(record)
        self._local.current = index
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._local.current = parent

    def span(self, name: str, **ids):
        if not self.enabled:
            return nullcontext()
        return self._open(name, ids)

    def total(self, name: str) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(
            r[2] - r[1] for r in self._records
            if r[0] == name and r[2] is not None
        )

    def dump(self) -> list[dict]:
        """Closed spans with their self time (duration minus children)."""
        child_s = [0.0] * len(self._records)
        for name, start, end, parent, _ in self._records:
            if parent is not None and end is not None:
                child_s[parent] += end - start
        origin = self._records[0][1] if self._records else 0.0
        return [
            {
                "id": i,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "self_s": (end - start) - child_s[i],
                "parent": parent,
                "workload": self.workload,
                **ids,
            }
            for i, (name, start, end, parent, ids) in enumerate(self._records)
            if end is not None
        ]


# ----------------------------------------------------------------------
# Counting wrappers on public methods
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(int(-(-q * len(ordered) // 100)), 1)  # ceil
    return ordered[min(rank, len(ordered)) - 1]


class Wrappers:
    """Count and time calls through the fabric's public seams.

    Installed around the traced span pass only, and removed before the
    hook pass, so neither end-to-end numbers nor hook call counts ever
    include a wrapper frame.
    """

    #: ``HttpTransport`` verbs that cost exactly one HTTP request each.
    HTTP_VERBS = (
        "campaigns", "claim", "renew", "complete", "release", "beat",
        "drained", "pull_object", "push_object",
    )

    def __init__(self, spans: SpanRecorder):
        self.spans = spans
        self.counts = {
            "puts": 0, "gets": 0, "claims": 0, "renews": 0, "completes": 0,
            "http_requests": 0, "bytes_pushed": 0, "service_errors": 0,
        }
        self.put_ms: list[float] = []
        self.get_ms: list[float] = []
        self.request_ms: list[float] = []
        self._undo: list[tuple] = []

    def _patch(self, cls, name: str, make) -> None:
        original = getattr(cls, name)
        setattr(cls, name, make(original))
        self._undo.append((cls, name, original))

    def install(self) -> None:
        from repro.dist.queue import ShardQueue
        from repro.dist.transport import HttpTransport, TransportError
        from repro.store.runstore import RunStore

        counts, spans = self.counts, self.spans

        def timed(key: str, sink: list, span_name: str, ids):
            def make(original):
                def wrapper(self, *args, **kwargs):
                    with spans.span(span_name, **ids(self, args)):
                        start = time.perf_counter()
                        try:
                            return original(self, *args, **kwargs)
                        finally:
                            sink.append((time.perf_counter() - start) * 1e3)
                            counts[key] += 1
                return wrapper
            return make

        self._patch(RunStore, "put", timed(
            "puts", self.put_ms, "store.runstore.put",
            lambda store, args: {"run": store.fingerprint(args[0])},
        ))
        self._patch(RunStore, "get_fp", timed(
            "gets", self.get_ms, "store.runstore.get",
            lambda store, args: {"run": args[0]},
        ))

        def counted(key: str):
            def make(original):
                def wrapper(self, *args, **kwargs):
                    counts[key] += 1
                    return original(self, *args, **kwargs)
                return wrapper
            return make

        for verb, key in (("claim", "claims"), ("renew", "renews"),
                          ("complete", "completes")):
            self._patch(ShardQueue, verb, counted(key))

        request_ms = self.request_ms

        def http(verb: str):
            def make(original):
                def wrapper(self, *args, **kwargs):
                    ids = {}
                    if verb == "push_object":
                        ids["run"] = args[0]["fp"]
                        counts["bytes_pushed"] += len(args[1]) + len(args[2])
                    elif verb == "pull_object":
                        ids["run"] = args[0]
                    elif verb in ("renew", "complete", "release"):
                        ids["shard"] = args[1]
                    with spans.span(f"dist.transport.{verb}", **ids):
                        start = time.perf_counter()
                        try:
                            return original(self, *args, **kwargs)
                        except TransportError:
                            counts["service_errors"] += 1
                            raise
                        finally:
                            request_ms.append(
                                (time.perf_counter() - start) * 1e3
                            )
                            counts["http_requests"] += 1
                return wrapper
            return make

        for verb in self.HTTP_VERBS:
            self._patch(HttpTransport, verb, http(verb))

    def remove(self) -> None:
        while self._undo:
            cls, name, original = self._undo.pop()
            setattr(cls, name, original)

    def metrics(self) -> dict[str, float]:
        c = self.counts
        return {
            "store.runstore.puts": c["puts"],
            "store.runstore.gets": c["gets"],
            "store.runstore.put_ms_p50": percentile(self.put_ms, 50),
            "store.runstore.put_ms_p98": percentile(self.put_ms, 98),
            "store.runstore.get_ms_p50": percentile(self.get_ms, 50),
            "store.runstore.get_ms_p98": percentile(self.get_ms, 98),
            "dist.queue.claims": c["claims"],
            "dist.queue.renews": c["renews"],
            "dist.queue.completes": c["completes"],
            "dist.transport.http_requests": c["http_requests"],
            "dist.transport.request_ms_p50": percentile(self.request_ms, 50),
            "dist.transport.request_ms_p90": percentile(self.request_ms, 90),
            "dist.transport.bytes_pushed": c["bytes_pushed"],
            "dist.service.errors": c["service_errors"],
        }
