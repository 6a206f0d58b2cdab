"""Deterministic run-config fingerprints.

A fingerprint is the SHA-256 of the **canonical JSON** encoding of
everything that determines a run's outcome: the identity fields of
:class:`~repro.experiments.config.RunConfig` (system, cca, capacity,
queue multiple, seed, timeline scale, qdisc) plus the store format
version.  Canonical means sorted keys, compact separators, and no
NaN/Infinity, so the same config always produces the same byte string
-- across processes, platforms, and Python versions.

The format version is hashed in on purpose: bumping
:data:`STORE_FORMAT_VERSION` changes every key, so results persisted
under an older serialisation scheme are never served for a new-format
lookup.  They remain on disk until ``repro-gsnet store gc`` collects
them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = [
    "STORE_FORMAT_VERSION",
    "canonical_json",
    "config_fingerprint",
    "config_identity",
]

#: Bump when the on-disk layout or RunResult serialisation changes
#: incompatibly.  Old entries stop matching (the version is hashed into
#: every fingerprint) instead of being mis-read.
STORE_FORMAT_VERSION = 1


def canonical_json(obj: Any) -> str:
    """One canonical JSON text per value: sorted keys, compact, strict."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def config_identity(config) -> dict:
    """The outcome-determining fields of a run config, as plain JSON types.

    Everything :func:`~repro.experiments.runner.run_single` reads from
    the config is here; two configs with equal identity produce
    bit-identical results (the simulation is deterministic in its seed).
    A :class:`~repro.experiments.results.RunResult` carries the same
    fields under the same names, so a stored run's identity -- and its
    fingerprint -- is read from the result itself.
    """
    return {
        "system": config.system,
        "cca": config.cca,
        "capacity_bps": float(config.capacity_bps),
        "queue_mult": float(config.queue_mult),
        "seed": int(config.seed),
        "timeline_scale": float(config.timeline_scale),
        "qdisc": config.qdisc,
    }


def config_fingerprint(config, version: int = STORE_FORMAT_VERSION) -> str:
    """SHA-256 hex digest keying ``config`` (or its result) in the run store."""
    identity = config_identity(config)
    identity["store_format"] = int(version)
    return hashlib.sha256(canonical_json(identity).encode()).hexdigest()
