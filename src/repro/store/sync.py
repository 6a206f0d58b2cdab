"""Store synchronisation: manifest-union merge and single-object shipping.

Distributed campaigns leave results scattered across per-worker stores;
:func:`merge_stores` folds a source store into a destination so a single
``repro report`` sees everything.  The merge is object-level and keyed
by fingerprint -- the same content addressing the cache uses:

- a source object whose files are gone or unreadable, or whose
  metadata does not fingerprint to its key (a mis-addressed or
  overwritten object), is **missing**: it is never copied, so it cannot
  later be served as a cache hit for a config it does not belong to;
- a fingerprint only in the source is **copied** (both object files,
  atomic temp+rename) and its manifest entry appended to the union;
- a fingerprint in both is compared.  Byte-identical objects are plain
  **duplicates**.  Objects that differ only in provenance (the
  ``provenance`` fields of :class:`~repro.experiments.results.RunResult`
  -- per-host execution facts that are not part of the result) are
  *semantically* compared: equal metadata
  (minus provenance) and element-equal arrays are still duplicates,
  and the destination's copy is kept;
- anything else is a **conflict**: two hosts produced different results
  for the same fingerprint, which with a deterministic simulator means
  corruption or version skew.  The destination's copy is kept and the
  conflict reported -- the merge never destroys data it cannot prove
  redundant.

After copying, the destination manifest is rewritten atomically as the
union (deduplicated, destination entries winning).  The manifest is the
store's only index, so there is nothing else to update.

The same classification runs one object at a time for the network
transport: :func:`pack_object`/:func:`unpack_object` frame an object's
manifest entry plus its two files into a single byte string (the body
of ``PUT /objects/<fp>``), and :func:`receive_object` applies exactly
the merge rules above to one incoming object -- stored, duplicate, or
conflict -- so an HTTP push can never corrupt a store a directory
merge would have kept sound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.experiments.results import PROVENANCE
from repro.store.fingerprint import canonical_json
from repro.store.runstore import (
    RunStore,
    _UNREADABLE,
    _atomic_write_bytes,
    _object_problem,
    _read_arrays,
)

__all__ = [
    "MergeReport",
    "merge_stores",
    "pack_object",
    "receive_object",
    "unpack_object",
]

#: Leading magic of a packed object bundle; bump with the layout.
OBJECT_BUNDLE_MAGIC = b"RGSO1"

#: Refuse bundles beyond this size (a run's npz is a few hundred KB;
#: this is a 3-orders-of-magnitude safety margin, not a quota).
MAX_BUNDLE_BYTES = 256 * 1024 * 1024


@dataclass
class MergeReport:
    """What one merge did, per fingerprint class."""

    copied: int = 0
    duplicates: int = 0
    conflicts: list[str] = field(default_factory=list)
    #: source manifest entries whose objects were missing, unreadable or
    #: mis-addressed (metadata fingerprinting to another key)
    missing: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.conflicts

    def to_dict(self) -> dict:
        return {
            "copied": self.copied,
            "duplicates": self.duplicates,
            "conflicts": list(self.conflicts),
            "missing": list(self.missing),
        }


def merge_stores(dst: RunStore, src: RunStore) -> MergeReport:
    """Fold ``src`` into ``dst`` (see the module docstring for rules)."""
    if dst.root.resolve() == src.root.resolve():
        raise ValueError(f"refusing to merge a store into itself: {dst.root}")
    report = MergeReport()
    dst_entries = {e["fp"]: e for e in dst.ls()}
    new_entries = []
    for entry in src.ls():
        fp = entry["fp"]
        payload = src.object_bytes(fp)
        if payload is None or _object_problem(fp, *payload):
            report.missing.append(fp)
            continue
        existing = dst.object_bytes(fp)
        if existing is not None:
            if _payloads_equal(*existing, *payload):
                report.duplicates += 1
            else:
                report.conflicts.append(fp)
            continue
        _copy_object(dst._object_dir(fp), *payload)
        new_entries.append(entry)
        report.copied += 1

    if new_entries:
        for entry in new_entries:
            dst_entries.setdefault(entry["fp"], entry)
        lines = "".join(
            canonical_json(e) + "\n" for e in dst_entries.values()
        )
        _atomic_write_bytes(dst.manifest_path, lines.encode())
    return report


# ----------------------------------------------------------------------
# Object comparison / copying
# ----------------------------------------------------------------------
def _copy_object(dst_dir: Path, meta_bytes: bytes, npz_bytes: bytes) -> None:
    """Write one validated object into the destination store, atomically.

    Each file is written to a temp name in its final directory and
    published with rename, mirroring the store's own write discipline:
    a crash mid-merge leaves ``*.tmp*`` litter for ``gc``, never a
    truncated object that :meth:`RunStore.contains_fp` would trust.
    The bytes written are the bytes validated.
    """
    dst_dir.mkdir(parents=True, exist_ok=True)
    for name, data in (("arrays.npz", npz_bytes), ("meta.json", meta_bytes)):
        tmp = dst_dir / f".{name}.tmp"
        tmp.write_bytes(data)
        tmp.replace(dst_dir / name)


def _payloads_equal(a_meta_raw: bytes, a_npz_raw: bytes,
                    b_meta_raw: bytes, b_npz_raw: bytes) -> bool:
    """Whether two object payloads represent the same run result.

    Fast path: byte-identical files.  Slow path: equal metadata after
    dropping provenance, and element-equal arrays -- the comparison two
    honest executions of a deterministic simulation must pass.
    """
    if a_meta_raw == b_meta_raw and a_npz_raw == b_npz_raw:
        return True
    try:
        a_meta = json.loads(a_meta_raw)
        b_meta = json.loads(b_meta_raw)
    except ValueError:
        return False
    if not (isinstance(a_meta, dict) and isinstance(b_meta, dict)):
        return False
    for meta in (a_meta, b_meta):
        for name in PROVENANCE:
            meta.pop(name, None)
    if a_meta != b_meta:
        return False
    try:
        a_arrays = _read_arrays(a_npz_raw)
        b_arrays = _read_arrays(b_npz_raw)
    except _UNREADABLE:
        return False
    return all(
        np.array_equal(array, b_arrays[name])
        for name, array in a_arrays.items()
    )


# ----------------------------------------------------------------------
# Single-object shipping (the HTTP transport's payload)
# ----------------------------------------------------------------------
def pack_object(entry: dict, meta_bytes: bytes, npz_bytes: bytes) -> bytes:
    """Frame one object (manifest entry + both files) into bytes.

    Layout: 5-byte magic, 4-byte big-endian header length, a JSON
    header carrying the manifest entry and both payload lengths, then
    the raw ``meta.json`` and ``arrays.npz`` bytes back to back.  The
    inverse is :func:`unpack_object`.
    """
    header = json.dumps({
        "entry": entry,
        "meta_len": len(meta_bytes),
        "npz_len": len(npz_bytes),
    }, separators=(",", ":")).encode()
    return b"".join((
        OBJECT_BUNDLE_MAGIC,
        len(header).to_bytes(4, "big"),
        header,
        meta_bytes,
        npz_bytes,
    ))


def unpack_object(data: bytes) -> tuple[dict, bytes, bytes]:
    """Split a packed bundle into ``(entry, meta_bytes, npz_bytes)``.

    Raises ``ValueError`` on any framing problem -- wrong magic,
    truncated header, or payload lengths that disagree with the body --
    so a torn upload is rejected whole instead of half-installed.
    """
    if len(data) > MAX_BUNDLE_BYTES:
        raise ValueError(f"object bundle exceeds {MAX_BUNDLE_BYTES} bytes")
    magic = data[: len(OBJECT_BUNDLE_MAGIC)]
    if magic != OBJECT_BUNDLE_MAGIC:
        raise ValueError(f"not an object bundle (magic {magic!r})")
    offset = len(OBJECT_BUNDLE_MAGIC)
    header_len = int.from_bytes(data[offset:offset + 4], "big")
    offset += 4
    try:
        header = json.loads(data[offset:offset + header_len])
    except ValueError as exc:
        raise ValueError(f"torn bundle header: {exc}") from exc
    offset += header_len
    meta_len = int(header["meta_len"])
    npz_len = int(header["npz_len"])
    if len(data) - offset != meta_len + npz_len:
        raise ValueError(
            f"bundle body is {len(data) - offset} bytes, "
            f"header promises {meta_len + npz_len}"
        )
    meta_bytes = data[offset:offset + meta_len]
    npz_bytes = data[offset + meta_len:]
    entry = header.get("entry")
    if not isinstance(entry, dict) or "fp" not in entry:
        raise ValueError("bundle header lacks a manifest entry")
    return entry, meta_bytes, npz_bytes


def receive_object(store: RunStore, fp: str, entry: dict,
                   meta_bytes: bytes, npz_bytes: bytes) -> str:
    """Apply one pushed object to a store under the merge rules.

    Returns ``"stored"`` (new object installed and indexed),
    ``"duplicate"`` (already present and provably the same result;
    the store's copy is kept), or ``"conflict"`` (present but
    *different* -- the store's copy is kept and the caller must
    surface the disagreement, exactly like a directory merge).

    Raises ``ValueError`` when the push is internally inconsistent:
    entry/URL fingerprint mismatch, an object that does not read back,
    or metadata that does not fingerprint to ``fp`` (a corrupt or
    mis-addressed upload must never enter the store).
    """
    if entry.get("fp") != fp:
        raise ValueError(
            f"bundle entry is for {entry.get('fp')!r}, not {fp!r}"
        )
    problem = _object_problem(fp, meta_bytes, npz_bytes)
    if problem:
        raise ValueError(problem)
    existing = store.object_bytes(fp)
    if existing is not None:
        if _payloads_equal(existing[0], existing[1], meta_bytes, npz_bytes):
            return "duplicate"
        return "conflict"
    store.install_object(fp, entry, meta_bytes, npz_bytes)
    return "stored"
