"""The manifest index: condition axes -> fingerprints, with predicates.

The store's manifest already carries every run's identity axes
(system, cca, capacity, queue multiple, seed, qdisc, timeline scale);
:class:`StoreIndex` turns that flat listing into a queryable index::

    index = StoreIndex.open(store)
    entries = index.select(cca="bbr", capacity=25)   # Mb/s convenience
    entries = index.select(system=["stadia", "luna"], queue=2)
    entries = index.select(cca="solo")               # solo = no competitor

The manifest is the only index on disk: :meth:`StoreIndex.open` reads
it once and builds the inverted index in memory, so every open sees
exactly the manifest as it is now and opening never writes to the
store.
"""

from __future__ import annotations

from repro.store.runstore import RunStore

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

    Construct via :meth:`open`.  The index is immutable once built;
    reopen after campaign activity to see new runs.
    """

    def __init__(self, entries: list[dict]):
        self.entries = entries
        self._by_axis: dict[str, dict] = {axis: {} for axis in AXES}
        for position, entry in enumerate(entries):
            for axis in AXES:
                value = self._axis_key(axis, entry.get(axis))
                self._by_axis[axis].setdefault(value, []).append(position)

    @classmethod
    def open(cls, store: RunStore, rebuild: bool = False) -> "StoreIndex":
        """Index the store's manifest in run order.

        ``rebuild`` is ignored: every open reads the manifest afresh.
        The keyword is kept only because the ``grid-read`` benchmark
        workload still passes ``rebuild=True``.
        """
        return cls(sorted(store.ls(), key=lambda e: run_order(e.get)))

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
