"""The reporting tier: query the store, aggregate sweeps, format output.

The packet level simulates, the store remembers, this package answers
questions -- without ever running a simulation:

- :mod:`repro.report.aggregate` -- one-pass sweep aggregation, the
  one definition of every per-condition number: over live results
  (``aggregate_results(campaign.report.results)``) or over stored runs selected
  through the :class:`~repro.store.index.StoreIndex`
  (``aggregate_store``), built on the streaming reducers in
  :mod:`repro.analysis.reducers`.
- :mod:`repro.report.formatters` -- the flent-style
  ``@register_formatter`` registry: ``table``, ``csv``, ``json``,
  ``markdown`` and ``figures`` (the paper's figure set as plain text).
- :mod:`repro.report.status` -- live campaign progress rendered from
  the heartbeat stream (:mod:`repro.store.heartbeat`).

CLI entry points: ``repro-gsnet report <store> --where cca=bbr
--format csv -o out/`` and ``repro-gsnet status <store>``.
"""

from repro.report.aggregate import (
    ConditionAggregate,
    SweepReport,
    aggregate_results,
    aggregate_store,
)
from repro.report.formatters import (
    Formatter,
    formatter_names,
    get_formatter,
    register_formatter,
)
from repro.report.status import campaign_status, render_status

__all__ = [
    "ConditionAggregate",
    "Formatter",
    "SweepReport",
    "aggregate_results",
    "aggregate_store",
    "campaign_status",
    "formatter_names",
    "get_formatter",
    "register_formatter",
    "render_status",
]
