"""Content-addressed run store and fault-tolerant campaign scheduling.

The paper's artefacts aggregate many repeated runs per condition; this
package makes those campaigns cheap to re-run and safe to interrupt:

- :mod:`repro.store.fingerprint` -- deterministic SHA-256 keys for
  :class:`~repro.experiments.config.RunConfig` (canonical JSON + store
  format version).
- :mod:`repro.store.runstore` -- the sharded on-disk store: compressed
  ``.npz`` arrays + JSON metadata per result, atomic writes, and a
  manifest index with ``ls``/``verify``/``gc``.
- :mod:`repro.store.scheduler` -- cache-first, completion-order
  dispatch with retries, non-blocking capped exponential backoff,
  per-run timeouts, worker-crash recovery, graceful interrupts,
  crash-safe checkpoints, and a partial-results mode.
- :mod:`repro.store.chaos` -- deterministic fault injection (hangs,
  transient exceptions, worker-killing crashes) wrapped around the
  scheduler's ``run_fn``, proving the recovery paths above in CI.
- :mod:`repro.store.index` -- the manifest index: condition axes ->
  fingerprints with predicate filtering
  (``StoreIndex.open(store).select(cca="bbr", capacity=25)``), built in
  memory from the manifest on every open; nothing is cached on disk.
- :mod:`repro.store.heartbeat` -- live campaign telemetry: the
  scheduler appends progress snapshots to
  ``<store>/campaigns/<id>/heartbeat.jsonl`` so a long sweep is
  observable from another terminal (``repro-gsnet status``).
- :mod:`repro.store.sync` -- store synchronisation: manifest-union
  merge of two stores (object-level dedupe by fingerprint, provenance-
  aware conflict detection, atomic manifest rewrite), the fold-back
  half of the distributed tier (:mod:`repro.dist`), exposed as
  ``repro-gsnet store merge``.

:class:`~repro.experiments.campaign.Campaign` drives the scheduler; the
``repro-gsnet campaign`` (``--timeout``/``--chaos``) and ``repro-gsnet
store`` CLI commands expose both to the shell.
"""

from repro.store.chaos import ChaosFault, ChaosRunner, ChaosSpec
from repro.store.fingerprint import (
    STORE_FORMAT_VERSION,
    canonical_json,
    config_fingerprint,
)
from repro.store.heartbeat import CampaignHeartbeat, last_heartbeat, load_heartbeat
from repro.store.index import StoreIndex, parse_where
from repro.store.runstore import RunStore, StoreVersionError
from repro.store.scheduler import (
    CampaignError,
    CampaignReport,
    CampaignScheduler,
    RunFailure,
    RunTimeout,
    WorkerCrash,
)
from repro.store.sync import MergeReport, merge_stores

__all__ = [
    "CampaignError",
    "CampaignHeartbeat",
    "CampaignReport",
    "CampaignScheduler",
    "ChaosFault",
    "MergeReport",
    "ChaosRunner",
    "ChaosSpec",
    "RunFailure",
    "RunStore",
    "RunTimeout",
    "STORE_FORMAT_VERSION",
    "StoreIndex",
    "StoreVersionError",
    "WorkerCrash",
    "canonical_json",
    "config_fingerprint",
    "last_heartbeat",
    "load_heartbeat",
    "merge_stores",
    "parse_where",
]
