"""Live campaign telemetry: the heartbeat JSONL stream.

While a campaign runs, the scheduler appends one JSON record at a time
to ``<store>/campaigns/<id>/heartbeat.jsonl``.  Each record is a full
snapshot (not a delta), so a reader needs only the last line to know
where the campaign stands -- ``repro-gsnet status`` tails exactly that
-- and the whole file is the campaign's progress history for free.

Record fields::

    seq          monotone record number within this invocation
    ts           wall-clock epoch seconds (the only wall-time file in
                 the store; heartbeats are operator telemetry, never
                 inputs to any result)
    elapsed_s    seconds since this invocation started
    phase        "running" | "done" | "failed" | "interrupted"
    total/done   run matrix size and completions (cache hits included)
    cache_hits, executed, failed, retries, timeouts, pool_breaks
    cache_hit_rate    cache_hits / done (null before the first completion)
    runs_per_s        done / elapsed (null in the first instants)
    eta_s             (total - done) / runs_per_s (null when unknowable)

Emission is throttled to one record per ``interval_s`` (default 1 s)
except for forced beats (first record, phase changes, the final
record), so heartbeat cost is bounded by wall time, not run count: a
campaign completing 10^3 cached runs per second still writes one line
per second.  Records are flushed line-by-line, so a tail from another
terminal never sees a torn line further back than the last write.
"""

from __future__ import annotations

import json
import time

__all__ = ["CampaignHeartbeat", "load_heartbeat", "last_heartbeat"]


class CampaignHeartbeat:
    """Append campaign-progress snapshots to the store's heartbeat file.

    Args:
        store: the :class:`~repro.store.runstore.RunStore` (provides
            :meth:`~repro.store.runstore.RunStore.heartbeat_path`).
        campaign_id: the campaign being executed.
        total: run-matrix size.
        interval_s: minimum seconds between unforced records.
        clock: monotonic-seconds injection point (tests).
        wall: epoch-seconds injection point (tests).
    """

    def __init__(
        self,
        store,
        campaign_id: str,
        total: int,
        interval_s: float = 1.0,
        clock=time.monotonic,
        wall=time.time,
    ):
        if interval_s < 0:
            raise ValueError(f"interval_s must be >= 0, got {interval_s}")
        self.path = store.heartbeat_path(campaign_id)
        self.campaign_id = campaign_id
        self.total = total
        self.interval_s = interval_s
        self._clock = clock
        self._wall = wall
        self._start = clock()
        self._last_emit: float | None = None
        self._seq = 0
        self._fh = None
        self.records_written = 0

    # ------------------------------------------------------------------
    def beat(self, done: int, counters, phase: str = "running", force: bool = False) -> bool:
        """Maybe append one snapshot; returns whether a record was written.

        ``counters`` is the scheduler's
        :class:`~repro.obs.counters.CounterSet` (or a plain dict with
        the same keys).  Unforced beats inside the throttle window are
        dropped -- the next one carries the same cumulative state.
        """
        now = self._clock()
        if (
            not force
            and self._last_emit is not None
            and now - self._last_emit < self.interval_s
        ):
            return False
        counts = counters if isinstance(counters, dict) else counters.to_dict()
        elapsed = max(now - self._start, 0.0)
        rate = (done / elapsed) if done and elapsed > 0 else None
        remaining = self.total - done
        self._seq += 1
        record = {
            "seq": self._seq,
            "ts": self._wall(),
            "elapsed_s": round(elapsed, 3),
            "phase": phase,
            "campaign_id": self.campaign_id,
            "total": self.total,
            "done": done,
            "cache_hits": counts.get("store.hits", 0),
            "executed": counts.get("sched.executed", 0),
            "failed": counts.get("sched.failures", 0),
            "retries": counts.get("sched.retries", 0),
            "timeouts": counts.get("sched.timeouts", 0),
            "pool_breaks": counts.get("sched.pool_breaks", 0),
            "cache_hit_rate": (
                round(counts.get("store.hits", 0) / done, 4) if done else None
            ),
            "runs_per_s": round(rate, 3) if rate is not None else None,
            "eta_s": (
                round(remaining / rate, 1) if rate and remaining > 0 else
                (0.0 if remaining <= 0 else None)
            ),
        }
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a")
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()
        self._last_emit = now
        self.records_written += 1
        return True

    def finish(self, done: int, counters, phase: str = "done") -> None:
        """Write the terminal snapshot and close the stream."""
        try:
            self.beat(done, counters, phase=phase, force=True)
        finally:
            self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def load_heartbeat(path) -> list[dict]:
    """All heartbeat records at ``path``; a torn final line is skipped."""
    records = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue  # torn write from a live campaign
    except OSError:
        return []
    return records


def last_heartbeat(path) -> dict | None:
    """The latest snapshot, or None when there is no heartbeat yet."""
    records = load_heartbeat(path)
    return records[-1] if records else None
