"""The content-addressed on-disk run store.

Layout (everything under one root directory)::

    <root>/
      store.json                      # {"format": STORE_FORMAT_VERSION}
      manifest.jsonl                  # append-only index, one entry/put
      objects/<fp[:2]>/<fp>/
        meta.json                     # scalars + provenance (atomic write)
        arrays.npz                    # compressed series (atomic write)
      campaigns/<campaign id>.json    # scheduler checkpoints

Results are keyed by the config fingerprint
(:func:`~repro.store.fingerprint.config_fingerprint`), sharded by the
first two hex digits so no directory grows unbounded.  Every file is
written to a temporary name in its final directory and published with
``os.replace``, so a crash mid-write can leave stray ``*.tmp*`` litter
(collected by :meth:`RunStore.gc`) but never a truncated object.

The manifest is an append-only JSONL index: ``ls`` is one sequential
read instead of a directory walk, duplicate puts are deduplicated on
load (last entry wins), and a torn final line -- the worst a crash
during append can do -- is skipped on read and healed by ``gc``.
It is also the store's only index (:class:`~repro.store.index.StoreIndex`
reads it on every open), so ``gc`` and merges rewrite it with nothing to
invalidate; an ``index.json`` left by an older build is inert.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from repro.experiments.results import RunResult
from repro.store.fingerprint import (
    STORE_FORMAT_VERSION,
    canonical_json,
    config_fingerprint,
    config_identity,
)

__all__ = ["RunStore", "StoreVersionError"]

#: RunResult fields held as arrays in ``arrays.npz`` (everything else
#: lives in ``meta.json``).
_ARRAY_FIELDS = ("times", "game_bps", "iperf_bps", "rtt_samples", "target_log")

#: What reading an unusable object raises: a missing or unreadable file,
#: bad JSON, an absent array, and -- from ``np.load`` on a torn or empty
#: ``arrays.npz`` -- ``BadZipFile`` and ``EOFError``.
_UNREADABLE = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)


class StoreVersionError(RuntimeError):
    """An on-disk store was written by an incompatible format version."""


class RunStore:
    """Content-addressed persistence for :class:`RunResult`.

    Args:
        root: store directory; created (with parents) if missing.

    Opening a directory written by a different format version raises
    :class:`StoreVersionError` -- point the campaign at a fresh
    directory instead of mixing layouts.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.campaigns = self.root / "campaigns"
        self.manifest_path = self.root / "manifest.jsonl"
        self.objects.mkdir(parents=True, exist_ok=True)
        self.campaigns.mkdir(exist_ok=True)
        self._check_version()

    def _check_version(self) -> None:
        marker = self.root / "store.json"
        if marker.exists():
            info = json.loads(marker.read_text())
            if info.get("format") != STORE_FORMAT_VERSION:
                raise StoreVersionError(
                    f"store at {self.root} has format {info.get('format')}, "
                    f"this build writes format {STORE_FORMAT_VERSION}; "
                    "use a new directory (or gc the old one with the "
                    "matching build)"
                )
        else:
            _atomic_write_text(
                marker, canonical_json({"format": STORE_FORMAT_VERSION})
            )

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def fingerprint(self, config) -> str:
        return config_fingerprint(config)

    def _object_dir(self, fp: str) -> Path:
        return self.objects / fp[:2] / fp

    def __contains__(self, config) -> bool:
        return self.contains_fp(self.fingerprint(config))

    def contains_fp(self, fp: str) -> bool:
        obj = self._object_dir(fp)
        return (obj / "meta.json").exists() and (obj / "arrays.npz").exists()

    def __len__(self) -> int:
        return len(self.ls())

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def put(self, config, result: RunResult) -> str:
        """Persist ``result`` under ``config``'s fingerprint; return it."""
        fp = self.fingerprint(config)
        obj = self._object_dir(fp)
        obj.mkdir(parents=True, exist_ok=True)

        data = result.to_dict()
        arrays = {name: np.asarray(data.pop(name)) for name in _ARRAY_FIELDS}
        _atomic_write_npz(obj / "arrays.npz", arrays)
        _atomic_write_text(obj / "meta.json", json.dumps(data))

        entry = {"fp": fp, **config_identity(config), "label": config.label}
        self._append_manifest(entry)
        return fp

    def get(self, config) -> RunResult | None:
        """The stored result for ``config``, or None on a cache miss."""
        return self.get_fp(self.fingerprint(config))

    def get_fp(self, fp: str) -> RunResult | None:
        obj = self._object_dir(fp)
        try:
            data = json.loads((obj / "meta.json").read_text())
            with np.load(obj / "arrays.npz") as npz:
                for name in _ARRAY_FIELDS:
                    data[name] = npz[name]
        except _UNREADABLE:
            return None
        return RunResult.from_dict(data)

    # ------------------------------------------------------------------
    # Raw object transfer (the network-transport surface)
    # ------------------------------------------------------------------
    def object_bytes(self, fp: str) -> tuple[bytes, bytes] | None:
        """One object's raw ``(meta.json, arrays.npz)`` bytes, or None.

        The read half of object shipping: callers bundle these bytes
        (see :func:`repro.store.sync.pack_object`) and push them to a
        remote store without deserialising the result in between.
        """
        obj = self._object_dir(fp)
        try:
            return (obj / "meta.json").read_bytes(), \
                (obj / "arrays.npz").read_bytes()
        except OSError:
            return None

    def install_object(self, fp: str, entry: dict,
                       meta_bytes: bytes, npz_bytes: bytes) -> None:
        """Write one object's raw bytes and index it in the manifest.

        The write half of object shipping: both files land via the
        store's temp+rename discipline, then the manifest entry is
        appended -- the same publication order :meth:`put` uses, so a
        crash mid-install leaves tmp litter for ``gc``, never a torn
        object.  Callers own validation (see
        :func:`repro.store.sync.receive_object`).
        """
        obj = self._object_dir(fp)
        obj.mkdir(parents=True, exist_ok=True)
        _atomic_write_bytes(obj / "arrays.npz", npz_bytes)
        _atomic_write_bytes(obj / "meta.json", meta_bytes)
        self._append_manifest(entry)

    def manifest_entry(self, fp: str) -> dict | None:
        """The manifest entry for one fingerprint, or None."""
        for entry in self.ls():
            if entry["fp"] == fp:
                return entry
        return None

    # ------------------------------------------------------------------
    # Manifest operations
    # ------------------------------------------------------------------
    def _append_manifest(self, entry: dict) -> None:
        with open(self.manifest_path, "a") as fh:
            fh.write(canonical_json(entry) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def ls(self, stat: bool = False) -> list[dict]:
        """Manifest entries, deduplicated by fingerprint (last put wins).

        With ``stat=True`` each entry additionally carries the on-disk
        ``size_bytes`` (meta + arrays) and ``mtime`` (latest of the two
        files, epoch seconds) of its object -- the machine-readable
        listing ``store ls --json`` prints.
        """
        if not self.manifest_path.exists():
            return []
        entries: dict[str, dict] = {}
        for line in self.manifest_path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn final line from a crash mid-append
            entries[entry["fp"]] = entry
        listed = list(entries.values())
        if stat:
            for entry in listed:
                entry.update(self.stat_fp(entry["fp"]))
        return listed

    def stat_fp(self, fp: str) -> dict:
        """On-disk footprint of one object: total bytes and last mtime."""
        size = 0
        mtime = 0.0
        obj = self._object_dir(fp)
        for name in ("meta.json", "arrays.npz"):
            try:
                st = (obj / name).stat()
            except OSError:
                continue  # manifest entry whose object was removed
            size += st.st_size
            if st.st_mtime > mtime:
                mtime = st.st_mtime
        return {"size_bytes": size, "mtime": mtime}

    def verify(self) -> list[str]:
        """Integrity report; an empty list means the store is sound.

        Checks that every manifest entry has readable object files whose
        recomputed fingerprint matches its key, and reports object
        directories the manifest does not know about.
        """
        problems = []
        indexed = set()
        for entry in self.ls():
            fp = entry["fp"]
            indexed.add(fp)
            obj = self._object_dir(fp)
            for name in ("meta.json", "arrays.npz"):
                if not (obj / name).exists():
                    problems.append(f"{fp}: missing {name}")
            if problems and problems[-1].startswith(fp):
                continue
            try:
                meta = json.loads((obj / "meta.json").read_text())
                with np.load(obj / "arrays.npz") as npz:
                    for name in _ARRAY_FIELDS:
                        npz[name]
            except _UNREADABLE as exc:
                problems.append(f"{fp}: unreadable object ({exc})")
                continue
            recomputed = _fingerprint_of_meta(meta)
            if recomputed != fp:
                problems.append(
                    f"{fp}: metadata fingerprints to {recomputed} "
                    "(object corrupted or store format drift)"
                )
        for obj in self._object_dirs():
            if obj.name not in indexed:
                problems.append(f"{obj.name}: object not in manifest")
        return problems

    def gc(self) -> dict:
        """Collect garbage; returns counts of what was removed/healed.

        Drops manifest entries whose objects are gone, deletes object
        directories the manifest does not reference, removes stray
        temporary files from interrupted writes, and rewrites the
        manifest compacted (atomically).
        """
        entries = {e["fp"]: e for e in self.ls()}
        kept = {fp: e for fp, e in entries.items() if self.contains_fp(fp)}
        dropped_entries = len(entries) - len(kept)

        removed_objects = 0
        for obj in self._object_dirs():
            if obj.name not in kept:
                for child in obj.iterdir():
                    child.unlink()
                obj.rmdir()
                removed_objects += 1

        removed_tmp = 0
        for tmp in self.root.rglob("*.tmp*"):
            tmp.unlink()
            removed_tmp += 1

        lines = "".join(
            canonical_json(e) + "\n" for e in kept.values()
        )
        _atomic_write_text(self.manifest_path, lines)
        return {
            "entries_dropped": dropped_entries,
            "objects_removed": removed_objects,
            "tmp_removed": removed_tmp,
            "entries_kept": len(kept),
        }

    def _object_dirs(self):
        for shard in sorted(self.objects.iterdir()):
            if not shard.is_dir():
                continue
            for obj in sorted(shard.iterdir()):
                if obj.is_dir():
                    yield obj

    # ------------------------------------------------------------------
    # Campaign checkpoints
    #
    # One JSON document per campaign id, written atomically by the
    # scheduler when a campaign starts and whenever a field changes:
    #
    #   {"id": ..., "total": N,
    #    "failed": {fp: {"error": ..., "attempts": ...}, ...},
    #    "abandoned": [fp, ...],          # in flight at the last interrupt
    #    "interrupted": bool}             # last invocation was cut short
    #
    # Finished runs are not listed: the store itself is the record of
    # completion, and resume serves them from it.  Resume correctness
    # needs only `failed`; `abandoned`/`interrupted` are bookkeeping for
    # operators inspecting a cut-short campaign (abandoned runs are
    # simply still incomplete).
    # ------------------------------------------------------------------
    def checkpoint_path(self, campaign_id: str) -> Path:
        return self.campaigns / f"{campaign_id}.json"

    def campaign_dir(self, campaign_id: str) -> Path:
        """Per-campaign telemetry directory (heartbeat, future logs)."""
        return self.campaigns / campaign_id

    def heartbeat_path(self, campaign_id: str) -> Path:
        """The campaign's live-progress JSONL stream."""
        return self.campaign_dir(campaign_id) / "heartbeat.jsonl"

    def campaign_ids(self) -> list[str]:
        """Every campaign this store has seen (checkpoint or heartbeat)."""
        ids = set()
        for child in self.campaigns.iterdir():
            if child.is_file() and child.suffix == ".json":
                ids.add(child.stem)
            elif child.is_dir():
                ids.add(child.name)
        return sorted(ids)

    def load_checkpoint(self, campaign_id: str) -> dict | None:
        path = self.checkpoint_path(campaign_id)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except ValueError:
            return None  # torn write: start the campaign over

    def save_checkpoint(self, campaign_id: str, state: dict) -> None:
        _atomic_write_text(self.checkpoint_path(campaign_id), json.dumps(state))


def _fingerprint_of_meta(meta: dict) -> str:
    """Recompute the fingerprint from a stored object's metadata."""
    class _Shim:
        system = meta["system"]
        cca = meta["cca"]
        capacity_bps = meta["capacity_bps"]
        queue_mult = meta["queue_mult"]
        seed = meta["seed"]
        qdisc = meta.get("qdisc", "droptail")

        class timeline:
            scale = meta["timeline_scale"]

    return config_fingerprint(_Shim)


def _atomic_write_text(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` via same-directory temp + rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Publish raw bytes at ``path`` via same-directory temp + rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_npz(path: Path, arrays: dict) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp.npz")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
