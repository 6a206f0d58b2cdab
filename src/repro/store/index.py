"""The manifest index: condition axes -> fingerprints, with predicates.

The store's manifest already carries every run's identity axes
(system, cca, capacity, queue multiple, seed, qdisc, timeline scale);
:class:`StoreIndex` turns that flat listing into a queryable index::

    index = StoreIndex.open(store)
    entries = index.select(cca="bbr", capacity=25)   # Mb/s convenience
    entries = index.select(system=["stadia", "luna"], queue=2)
    entries = index.select(cca="solo")               # solo = no competitor

Building stats every object (size/mtime enrichment), which is the
expensive part for 10^5-run stores, so the built index is cached at
``<store>/index.json`` and invalidated off the manifest file's
(size, mtime_ns) stamp: any ``put`` appends to the manifest and any
``gc`` rewrites it, so every mutation changes the stamp.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.store.runstore import RunStore, _atomic_write_text

__all__ = ["StoreIndex", "parse_where", "run_order"]

#: Condition axes every manifest entry carries (fingerprint identity).
AXES = (
    "system",
    "cca",
    "capacity_bps",
    "queue_mult",
    "seed",
    "qdisc",
    "timeline_scale",
)

#: Axes compared numerically (predicate values are float-coerced).
_NUMERIC_AXES = frozenset({"capacity_bps", "queue_mult", "seed", "timeline_scale"})

#: Query-key conveniences: CLI/API shorthand -> manifest axis.  The
#: ``capacity``/``queue`` forms take the paper's units (Mb/s, BDP
#: multiples) instead of raw bits/second.
_ALIASES = {
    "capacity": ("capacity_bps", lambda v: float(v) * 1e6),
    "queue": ("queue_mult", float),
    "profile": ("timeline_scale", float),
}

#: Cache schema version (bump on layout changes; stale caches rebuild).
_CACHE_FORMAT = 1


def run_order(get) -> tuple:
    """Sort key of the index's deterministic run order.

    ``get(axis)`` reads one axis of a run: ``entry.get`` for a manifest
    entry, ``vars(result).get`` for a live
    :class:`~repro.experiments.results.RunResult`.  Runs sort by
    (system, cca, capacity, queue, qdisc, seed); a solo run's missing
    cca sorts first.  :func:`repro.report.aggregate.aggregate_results` folds
    live results in this same order, which is what makes a report over
    a campaign render byte-identical to one over the store it wrote.
    """
    return (
        get("system") or "",
        get("cca") or "",
        get("capacity_bps") or 0.0,
        get("queue_mult") or 0.0,
        get("qdisc") or "",
        get("seed") or 0,
    )


class StoreIndex:
    """A queryable snapshot of one store's manifest.

    Construct via :meth:`open` (cached) or :meth:`build` (always
    fresh).  The index is immutable once built; reopen after campaign
    activity to see new runs (the stamp check makes that cheap).
    """

    def __init__(self, entries: list[dict], stamp: "tuple[int, int]"):
        self.entries = entries
        self.stamp = stamp
        self._by_axis: dict[str, dict] = {axis: {} for axis in AXES}
        for position, entry in enumerate(entries):
            for axis in AXES:
                value = self._axis_key(axis, entry.get(axis))
                self._by_axis[axis].setdefault(value, []).append(position)

    # ------------------------------------------------------------------
    # Construction / caching
    # ------------------------------------------------------------------
    @staticmethod
    def _manifest_stamp(store: RunStore) -> "tuple[int, int]":
        try:
            st = store.manifest_path.stat()
        except OSError:
            return (0, 0)
        return (st.st_size, st.st_mtime_ns)

    @staticmethod
    def cache_path(store: RunStore) -> Path:
        return store.root / "index.json"

    @classmethod
    def build(cls, store: RunStore) -> "StoreIndex":
        """Index the manifest (with object size/mtime), bypassing the cache."""
        stamp = cls._manifest_stamp(store)
        entries = sorted(store.ls(stat=True), key=lambda e: run_order(e.get))
        return cls(entries, stamp)

    @classmethod
    def open(cls, store: RunStore, rebuild: bool = False) -> "StoreIndex":
        """The store's index, served from ``index.json`` when current.

        A cache whose recorded manifest stamp no longer matches the
        manifest file is rebuilt and rewritten (atomically); pass
        ``rebuild=True`` to force that.
        """
        cache = cls.cache_path(store)
        stamp = cls._manifest_stamp(store)
        if not rebuild:
            cached = cls._load_cache(cache)
            if cached is not None and tuple(cached["stamp"]) == stamp:
                return cls(cached["entries"], stamp)
        index = cls.build(store)
        payload = {
            "format": _CACHE_FORMAT,
            "stamp": list(index.stamp),
            "entries": index.entries,
        }
        _atomic_write_text(cache, json.dumps(payload, separators=(",", ":")))
        return index

    @staticmethod
    def _load_cache(path: Path) -> dict | None:
        try:
            cached = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(cached, dict)
            or cached.get("format") != _CACHE_FORMAT
            or "stamp" not in cached
            or "entries" not in cached
        ):
            return None
        return cached

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    @staticmethod
    def _axis_key(axis: str, value):
        """Hashable, type-stable key for one axis value."""
        if value is None:
            return None
        if axis in _NUMERIC_AXES:
            return float(value)
        return value

    @staticmethod
    def _normalise(key: str, value):
        """Resolve aliases and unit conveniences to (axis, value)."""
        if key in _ALIASES:
            axis, convert = _ALIASES[key]
            return axis, convert(value)
        if key not in AXES:
            options = ", ".join(sorted(set(AXES) | set(_ALIASES)))
            raise ValueError(f"unknown axis {key!r}; options: {options}")
        if key == "cca" and isinstance(value, str) and value.lower() in ("solo", "none"):
            return key, None
        if key in _NUMERIC_AXES:
            return key, float(value)
        return key, value

    def select(self, **where) -> list[dict]:
        """Manifest entries matching every predicate.

        A predicate value may be a scalar (exact match) or a
        list/tuple/set (any-of).  Returns entries in the index's
        deterministic (system, cca, capacity, queue, qdisc, seed)
        order; an empty selection is an empty list, never an error.
        """
        selected: set[int] | None = None
        for key, raw in where.items():
            if raw is None and key != "cca":
                continue
            values = raw if isinstance(raw, (list, tuple, set, frozenset)) else [raw]
            axis = None
            matching: set[int] = set()
            for value in values:
                axis, value = self._normalise(key, value)
                matching.update(
                    self._by_axis[axis].get(self._axis_key(axis, value), ())
                )
            selected = matching if selected is None else (selected & matching)
            if not selected:
                return []
        if selected is None:
            return list(self.entries)
        return [self.entries[i] for i in sorted(selected)]

    def axes(self) -> dict[str, list]:
        """Distinct values per axis (sorted), for discovery/rendering."""
        catalog = {}
        for axis in AXES:
            values = list(self._by_axis[axis])
            catalog[axis] = sorted(
                values, key=lambda v: (v is None, str(v) if v is None else v)
            )
        return catalog


def parse_where(clauses: "list[str] | None") -> dict:
    """CLI ``--where key=value[,value...]`` clauses -> select() kwargs.

    Values are int- then float-coerced when possible so ``capacity=25``
    means the number, not the string; repeated keys and comma lists
    both mean any-of.
    """
    where: dict = {}
    for clause in clauses or ():
        key, sep, raw = clause.partition("=")
        key = key.strip()
        if not sep or not key or not raw.strip():
            raise ValueError(
                f"bad --where clause {clause!r}; expected key=value[,value...]"
            )
        values = [_coerce(part.strip()) for part in raw.split(",") if part.strip()]
        existing = where.get(key)
        if existing is None:
            where[key] = values if len(values) > 1 else values[0]
        else:
            merged = existing if isinstance(existing, list) else [existing]
            where[key] = merged + values
    return where


def _coerce(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return text
