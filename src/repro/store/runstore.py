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

import functools
import io
import json
import math
import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

from repro.experiments.results import ARRAYS, META_TYPES, RunResult
from repro.store.fingerprint import (
    STORE_FORMAT_VERSION,
    canonical_json,
    config_fingerprint,
    config_identity,
)

__all__ = ["RunStore", "StoreVersionError"]

#: What reading an unusable object raises: ``OSError`` for a missing or
#: unreadable file; ``ValueError`` for bad JSON, a ``meta.json`` value of
#: a type its field does not declare, a bad ``.npy`` header or payload,
#: and every structural fault :func:`_read_arrays` finds in
#: ``arrays.npz`` (torn, empty, a damaged zip header, an unsupported or
#: encrypted member, a wrong size or CRC); ``KeyError`` for an absent
#: field or member; and ``zlib.error`` for a corrupt deflate stream.
_UNREADABLE = (OSError, ValueError, KeyError, zlib.error)


class StoreVersionError(RuntimeError):
    """An on-disk store was written by an incompatible format version."""


class RunStore:
    """Content-addressed persistence for :class:`RunResult`.

    Args:
        root: store directory; created (with parents) if missing.
        create: if False, a ``root`` that holds no ``store.json`` (the
            marker every store writes when it is created) raises
            ``FileNotFoundError`` and nothing is created.

    Opening a directory written by a different format version raises
    :class:`StoreVersionError` -- point the campaign at a fresh
    directory instead of mixing layouts.
    """

    def __init__(self, root: str | Path, create: bool = True):
        self.root = Path(root)
        if not create and not (self.root / "store.json").is_file():
            raise FileNotFoundError(
                f"{self.root} is not a run store (no store.json)"
            )
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
            _atomic_write_bytes(
                marker,
                canonical_json({"format": STORE_FORMAT_VERSION}).encode(),
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

        meta, arrays = result.to_stored()
        _atomic_write_npz(obj / "arrays.npz", {
            name: _as_stored(array) for name, array in arrays.items()
        })
        _atomic_write_bytes(obj / "meta.json", json.dumps(meta).encode())

        entry = {"fp": fp, **config_identity(config), "label": config.label}
        self._append_manifest(entry)
        return fp

    def get(self, config) -> RunResult | None:
        """The stored result for ``config``, or None on a cache miss."""
        return self.get_fp(self.fingerprint(config))

    def get_fp(self, fp: str) -> RunResult | None:
        obj = self._object_dir(fp)
        try:
            return _decode(
                (obj / "meta.json").read_bytes(),
                (obj / "arrays.npz").read_bytes(),
            )
        except _UNREADABLE:
            return None

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
        object.  Callers own validation (:func:`_object_problem`, see
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

        Checks that every manifest entry has object files that pass
        :func:`_object_problem` under its key, and reports object
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
            payload = self.object_bytes(fp)
            problem = (_object_problem(fp, *payload) if payload
                       else "unreadable object")
            if problem:
                problems.append(f"{fp}: {problem}")
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
        _atomic_write_bytes(self.manifest_path, lines.encode())
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
        _atomic_write_bytes(
            self.checkpoint_path(campaign_id), json.dumps(state).encode()
        )


def _as_stored(array: np.ndarray) -> np.ndarray:
    """``array`` as the store writes it: ``np.asarray(array.tolist())``.

    That list round trip fixed the bytes of every stored object, so it
    stays the definition: values in C order, every float as float64, and
    an empty array flattened to ``(0,)`` float64 (a run whose controller
    never logged stores ``target_log`` so).  A non-empty native float64
    array -- every real series -- comes back as the same values in C
    order, which :func:`numpy.asarray` gives without the lists.
    """
    if array.dtype == np.float64 and array.size:
        return np.asarray(array, order="C")
    return np.asarray(array.tolist())


def _decode(meta_bytes: bytes, npz_bytes: bytes) -> RunResult:
    """One stored object as a result (raises :data:`_UNREADABLE`)."""
    meta = json.loads(meta_bytes)
    if not isinstance(meta, dict):
        raise ValueError("meta.json is not a JSON object")
    for name, types in META_TYPES.items():
        if name in meta and type(meta[name]) not in types:
            raise ValueError(
                f"meta.json {name} is {type(meta[name]).__name__}, not "
                + " or ".join(t.__name__ for t in types)
            )
    return RunResult.from_dict({**meta, **_read_arrays(npz_bytes)})


def _object_problem(fp: str, meta_bytes: bytes,
                    npz_bytes: bytes) -> str | None:
    """Why these bytes cannot be the object keyed ``fp``, or None.

    The one check every way into a store applies -- ``verify``, a merge
    and a push: the object must read back as :meth:`RunStore.get_fp`
    reads it, and the result's identity must fingerprint to ``fp``.
    """
    try:
        recomputed = config_fingerprint(_decode(meta_bytes, npz_bytes))
    except _UNREADABLE as exc:
        return f"unreadable object ({exc})"
    if recomputed != fp:
        return (f"metadata fingerprints to {recomputed} "
                "(object corrupted or store format drift)")
    return None


def _read_arrays(npz: bytes) -> dict[str, np.ndarray]:
    """Decode the series of one ``arrays.npz`` (raises :data:`_UNREADABLE`).

    The store's only array reader, in place of ``numpy.load``: one
    ``struct`` pass over the zip layout ``np.savez_compressed`` writes
    finds each ``<name>.npy`` member (:func:`_zip_members`) and inflates
    it to exactly its declared size, checking its CRC-32
    (:func:`_member_bytes`); numpy's safe header reader parses the
    ``.npy`` header once per distinct header (:func:`_npy_header`), and
    the payload is copied out into a writable array.  It reads what
    ``np.savez_compressed`` writes exactly as
    ``numpy.load(..., allow_pickle=False)`` does.

    Objects arrive from any host through ``dist serve``, so no byte is
    trusted: every record read is bounds-checked, no member inflates
    past its declared size or past what deflate can make of its
    compressed bytes, and malformed input raises only
    :data:`_UNREADABLE` types -- never ``struct.error``,
    ``RuntimeError`` or ``NotImplementedError``.
    """
    try:
        cd_offset, members = _zip_members(npz)
        return {
            name: _decode_npy(_member_bytes(npz, cd_offset, members, member))
            for name, member in zip(ARRAYS, _MEMBER_NAMES)
        }
    except struct.error as exc:
        raise ValueError(f"arrays.npz: truncated zip record ({exc})") from exc


_MEMBER_NAMES = tuple(f"{name}.npy".encode() for name in ARRAYS)

# The three zip records the reader parses (APPNOTE 4.3.7, 4.3.12, 4.3.16).
_LOCAL = struct.Struct("<4s22xHH")
_CENTRAL = struct.Struct("<4s2xHHH4xLLLHHH8xL")
_END = struct.Struct("<4sHHHHLLH")
_EXTRA = struct.Struct("<HH")
_U64 = struct.Struct("<Q")
_ZIP64_MARK = 0xFFFFFFFF

#: The newest "version needed to extract" the reader implements: zip64
#: (4.5) with stored or deflated members; later versions add methods and
#: encryption it does not.
_ZIP_VERSION = 45

#: General-purpose flag bits that change how a member's bytes must be
#: read -- encrypted (0), compressed patched data (5), strong encryption
#: (6); ``zipfile`` refuses each of them too.
_REFUSED_FLAGS = 0x0001 | 0x0020 | 0x0040

#: Deflate emits at most 258 bytes per 2 bits of input, so a member
#: declaring more than this many bytes per compressed byte is damaged.
_DEFLATE_MAX_RATIO = 1032


def _zip_members(npz: bytes) -> tuple[int, dict[bytes, tuple]]:
    """The central directory's offset and its entries by member name.

    Each entry is ``(flags, method, crc, compressed size, size, local
    header offset)``.  Accepts only the single-disk, comment-free layout
    ``zipfile`` writes, with the central directory ending exactly where
    the end record begins; zip64 sizes and offsets are read from the
    zip64 extra field.
    """
    end = len(npz) - _END.size
    if end < 0:
        raise ValueError("arrays.npz is shorter than a zip end record")
    (signature, disk, cd_disk, disk_count, count,
     cd_size, cd_offset, comment_len) = _END.unpack_from(npz, end)
    if signature != b"PK\x05\x06" or comment_len:
        raise ValueError("arrays.npz does not end in a zip end record")
    if disk or cd_disk or disk_count != count:
        raise ValueError("arrays.npz spans more than one disk")
    if cd_offset + cd_size != end:
        raise ValueError("zip central directory does not end at the end record")
    members = {}
    pos = cd_offset
    for _ in range(count):
        (signature, version, flags, method, crc, csize, size, name_len,
         extra_len, comment_len, offset) = _CENTRAL.unpack_from(npz, pos)
        if signature != b"PK\x01\x02" or version > _ZIP_VERSION:
            raise ValueError("bad zip central directory entry")
        pos += _CENTRAL.size
        name = npz[pos:pos + name_len]
        pos += name_len
        if _ZIP64_MARK in (size, csize, offset):
            size, csize, offset = _zip64(npz[pos:pos + extra_len],
                                         [size, csize, offset])
        if name in members:
            raise ValueError(f"duplicate zip member {name!r}")
        members[name] = (flags, method, crc, csize, size, offset)
        pos += extra_len + comment_len
    if pos != end:
        raise ValueError("zip central directory size does not match its entries")
    return cd_offset, members


def _zip64(extra: bytes, fields: list[int]) -> list[int]:
    """``fields`` (size, compressed size, offset) with each ``0xFFFFFFFF``
    replaced, in that order, from the zip64 extra field (APPNOTE 4.5.3)."""
    pos = 0
    while pos + _EXTRA.size <= len(extra):
        tag, length = _EXTRA.unpack_from(extra, pos)
        pos += _EXTRA.size
        if tag == 1:
            data = extra[pos:pos + length]
            at = 0
            for i, value in enumerate(fields):
                if value == _ZIP64_MARK:
                    (fields[i],) = _U64.unpack_from(data, at)
                    at += _U64.size
            return fields
        pos += length
    raise ValueError("zip64 size without a zip64 extra field")


def _member_bytes(npz: bytes, cd_offset: int, members: dict[bytes, tuple],
                  name: bytes) -> bytes:
    """The inflated bytes of member ``name``, checked against its entry."""
    try:
        flags, method, crc, csize, size, offset = members[name]
    except KeyError:
        raise KeyError(f"arrays.npz has no member {name.decode()}") from None
    if flags & _REFUSED_FLAGS:
        raise ValueError(f"{name.decode()} is encrypted or patched")
    signature, name_len, extra_len = _LOCAL.unpack_from(npz, offset)
    start = offset + _LOCAL.size
    if signature != b"PK\x03\x04" or npz[start:start + name_len] != name:
        raise ValueError(f"bad zip local header for {name.decode()}")
    start += name_len + extra_len
    if start + csize > cd_offset:
        raise ValueError(f"{name.decode()} runs into the central directory")
    data = npz[start:start + csize]
    if method == 0:
        raw = data
    elif method == 8:
        if size > _DEFLATE_MAX_RATIO * csize:
            raise ValueError(f"{name.decode()} declares an impossible size")
        inflater = zlib.decompressobj(-15)
        raw = inflater.decompress(data, size + 1)
        if (not inflater.eof or inflater.unconsumed_tail
                or inflater.unused_data):
            raise ValueError(f"{name.decode()}: deflate stream is not "
                             "exactly its compressed size")
    else:
        raise ValueError(f"{name.decode()}: unsupported compression "
                         f"method {method}")
    if len(raw) != size or zlib.crc32(raw) != crc:
        raise ValueError(f"{name.decode()}: size or CRC-32 mismatch")
    return raw


_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _decode_npy(raw: bytes) -> np.ndarray:
    """One ``.npy`` member's bytes as a writable array."""
    # Version 1.0 stores the header length in 2 bytes, later ones in 4.
    start = 10 if raw[6:7] == b"\x01" else 12
    end = start + int.from_bytes(raw[8:start], "little")
    shape, fortran_order, dtype = _npy_header(raw[:end])
    count = math.prod(shape)
    if count * dtype.itemsize > len(raw) - end:
        raise ValueError(
            f"array data holds {len(raw) - end} bytes, its header "
            f"declares {count} x {dtype.itemsize}"
        )
    array = np.frombuffer(raw, dtype=dtype, count=count, offset=end)
    order = "F" if fortran_order else "C"
    return array.reshape(shape, order=order).copy(order="K")


@functools.lru_cache(maxsize=256)
def _npy_header(prefix: bytes) -> tuple[tuple[int, ...], bool, np.dtype]:
    """``(shape, fortran_order, dtype)`` of a ``.npy`` magic + header.

    Memoised on the raw bytes: a store's members share a few headers,
    and parsing one is an ``ast.literal_eval``.  Rejects what
    ``numpy.load(..., allow_pickle=False)`` rejects, plus negative
    dimensions and format 3.0 (written only for structured dtypes with
    non-Latin-1 field names), with ``ValueError``.
    """
    fp = io.BytesIO(prefix)
    version = np.lib.format.read_magic(fp)
    if version not in _HEADER_READERS:
        raise ValueError(f"unsupported .npy format version {version}")
    shape, fortran_order, dtype = _HEADER_READERS[version](fp)
    if dtype.hasobject:
        raise ValueError(
            "Object arrays cannot be loaded when allow_pickle=False"
        )
    if any(dim < 0 for dim in shape):
        raise ValueError(f"negative dimension in .npy shape {shape}")
    return shape, fortran_order, dtype


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
