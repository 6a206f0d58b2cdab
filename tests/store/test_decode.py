"""The store's ``arrays.npz`` decoder reads what ``np.load`` reads.

:func:`repro.store.runstore._read_arrays` replaces ``np.load`` on every
store read path, and parses the zip layout itself.  The Hypothesis
property writes random float64/float32/int64 series with
``np.savez_compressed`` -- the store's writer -- or member by member
with ``zipfile.ZipFile.writestr``, and asserts the decoder returns what
``np.load``'s own path (``zipfile`` plus numpy's ``read_array``, kept
here as :func:`_zipfile_read`) returns, down to dtype, shape, memory
layout, bytes and writeability.  The examples below it cover what must
read as a miss: a pickled (object) member, a member shorter than its
header declares, a header that could not describe an array, damaged
zip records, and -- exhaustively -- every single-bit flip of one
object's zip headers and every truncation of it.
"""

from __future__ import annotations

import io
import random
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.experiments.results import ARRAYS
from repro.store import RunStore
from repro.store.runstore import _UNREADABLE, _npy_header, _read_arrays

from tests.store.test_runstore import make_config, make_result
from tests.store.test_schema import _synthetic_shaped


def _savez(**members) -> bytes:
    buf = io.BytesIO()
    np.savez_compressed(buf, **members)
    return buf.getvalue()


def _npy(array, header: dict | None = None) -> bytes:
    """One ``.npy`` member, optionally with a substitute header."""
    buf = io.BytesIO()
    if header is None:
        np.lib.format.write_array(buf, array)
    else:
        np.lib.format.write_array_header_1_0(buf, header)
        buf.write(array.tobytes())
    return buf.getvalue()


def _writestr(methods, **members) -> bytes:
    """An ``arrays.npz`` as ``zipfile.ZipFile.writestr`` writes one: no
    zip64 extra fields, each member stored or deflated as ``methods``
    says, and the UTF-8 name flag (bit 11) set on every member."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for (name, array), method in zip(members.items(), methods):
            zf.writestr(f"{name}.npy", _npy(array), compress_type=method)
    data = bytearray(buf.getvalue())
    # zipfile sets bit 11 only for non-ASCII names.  Set it (0x08 of the
    # flags' high byte) in the local header, whose name follows 30 fixed
    # bytes, and in the central entry, the last copy of the name, which
    # follows 46.
    for name in members:
        encoded = f"{name}.npy".encode()
        data[data.index(encoded) - 30 + 7] |= 0x08
        data[data.rindex(encoded) - 46 + 9] |= 0x08
    return bytes(data)


def _zipfile_read(raw: bytes) -> dict[str, np.ndarray]:
    """The reference reader: what ``np.load(...)[name]`` does per member,
    ``zipfile`` inflating it and ``read_array`` parsing it."""
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        return {
            name: np.lib.format.read_array(
                io.BytesIO(zf.read(f"{name}.npy")), allow_pickle=False
            )
            for name in ARRAYS
        }


def _assert_same_arrays(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name in want:
        a, b = got[name], want[name]
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.flags.c_contiguous == b.flags.c_contiguous
        assert a.flags.f_contiguous == b.flags.f_contiguous
        assert a.tobytes(order="A") == b.tobytes(order="A")
        assert a.flags.writeable and b.flags.writeable


def _zip(**npy_members: bytes) -> bytes:
    """An ``arrays.npz`` built member by member from raw ``.npy`` bytes."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for name in ARRAYS:
            raw = npy_members.get(name, _npy(np.arange(3.0)))
            zf.writestr(f"{name}.npy", raw)
    return buf.getvalue()


_SERIES = st.tuples(
    st.sampled_from([np.float64, np.float32, np.int64]),
    st.sampled_from(["n", "n2", "0", "02"]),
    st.integers(1, 40),
    st.sampled_from(["C", "F"]),
).flatmap(
    lambda spec: arrays(
        spec[0],
        {"n": (spec[2],), "n2": (spec[2], 2), "0": (0,), "02": (0, 2)}[spec[1]],
    ).map(lambda a, order=spec[3]: np.asarray(a, order=order))
)

#: None writes with ``np.savez_compressed``; a tuple of per-member
#: compression methods writes with ``zipfile.ZipFile.writestr``.
_METHODS = st.none() | st.tuples(
    *[st.sampled_from([zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED])]
    * len(ARRAYS)
)


@settings(max_examples=150, deadline=None)
@given(series=st.tuples(*[_SERIES] * len(ARRAYS)), methods=_METHODS)
def test_decoder_equals_np_load(series, methods):
    members = dict(zip(ARRAYS, series))
    raw = (_savez(**members) if methods is None
           else _writestr(methods, **members))
    _assert_same_arrays(_read_arrays(raw), _zipfile_read(raw))


def test_fortran_order_is_kept():
    series = np.asfortranarray(np.arange(12.0).reshape(6, 2))
    raw = _savez(**{name: series for name in ARRAYS})
    got = _read_arrays(raw)["rtt_samples"]
    assert got.flags.f_contiguous and not got.flags.c_contiguous
    assert np.array_equal(got, series)


def _zip64_field(size, csize, offset) -> bytes:
    return struct.pack("<HHQQQ", 1, 24, size, csize, offset)


def _with_zip64_central(raw: bytes, zip64=_zip64_field) -> bytes:
    """``raw`` with every central entry's sizes and offset set to
    ``0xFFFFFFFF`` and moved into the extra field ``zip64(size, csize,
    offset)`` returns: by default a zip64 field, as ``zipfile`` writes
    them past 4 GiB."""
    cd_size, cd_offset = struct.unpack_from("<LL", raw, len(raw) - 10)
    out = bytearray(raw[:cd_offset])
    pos = cd_offset
    while pos < cd_offset + cd_size:
        name_len, extra_len, comment_len = struct.unpack_from(
            "<HHH", raw, pos + 28
        )
        fixed = bytearray(raw[pos:pos + 46])
        csize, size = struct.unpack_from("<LL", fixed, 20)
        (offset,) = struct.unpack_from("<L", fixed, 42)
        struct.pack_into("<LL", fixed, 20, 0xFFFFFFFF, 0xFFFFFFFF)
        struct.pack_into("<L", fixed, 42, 0xFFFFFFFF)
        extra = zip64(size, csize, offset)
        struct.pack_into("<H", fixed, 30, len(extra))
        name_end = pos + 46 + name_len
        out += fixed + raw[pos + 46:name_end] + extra
        out += raw[name_end + extra_len:name_end + extra_len + comment_len]
        pos = name_end + extra_len + comment_len
    end = bytearray(raw[cd_offset + cd_size:])
    struct.pack_into("<L", end, 12, len(out) - cd_offset)
    return bytes(out + end)


def test_zip64_central_directory_is_read():
    raw = _savez(**{name: np.arange(7.0) for name in ARRAYS})
    wide = _with_zip64_central(raw)
    assert len(wide) == len(raw) + len(ARRAYS) * 28
    _assert_same_arrays(_read_arrays(wide), _zipfile_read(wide))
    _assert_same_arrays(_read_arrays(wide), _read_arrays(raw))


class TestUnreadable:
    def test_object_member_is_rejected(self):
        raw = _savez(**{
            name: np.array([1, "a"], dtype=object) for name in ARRAYS
        })
        with pytest.raises(ValueError, match="allow_pickle"):
            _read_arrays(raw)
        with pytest.raises(ValueError), np.load(io.BytesIO(raw)) as npz:
            npz["times"]

    def test_object_member_reads_as_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        config = make_config()
        fp = store.put(config, make_result(config))
        path = store._object_dir(fp) / "arrays.npz"
        with np.load(path) as npz:
            members = {name: npz[name] for name in ARRAYS}
        members["target_log"] = np.array([{"pickled": True}], dtype=object)
        path.write_bytes(_savez(**members))
        assert store.get_fp(fp) is None
        (problem,) = store.verify()
        assert problem.startswith(f"{fp}: unreadable object")

    @pytest.mark.parametrize("short_by", [1, 8, 24])
    def test_member_shorter_than_its_header_is_rejected(self, short_by):
        full = _npy(np.arange(3.0))
        raw = _zip(game_bps=full[:-short_by])
        with pytest.raises(ValueError, match="declares"):
            _read_arrays(raw)
        with pytest.raises(ValueError), np.load(io.BytesIO(raw)) as npz:
            npz["game_bps"]

    def test_truncated_member_reads_as_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        config = make_config()
        fp = store.put(config, make_result(config))
        path = store._object_dir(fp) / "arrays.npz"
        with np.load(path) as npz:
            members = {name: _npy(npz[name]) for name in ARRAYS}
        members["times"] = members["times"][:-16]
        path.write_bytes(_zip(**members))
        assert store.get_fp(fp) is None
        (problem,) = store.verify()
        assert problem.startswith(f"{fp}: unreadable object")

    @pytest.mark.parametrize("shape", [(-1,), (-1, -2), (2**62,), (2**40, 2**40)])
    def test_impossible_shape_is_rejected(self, shape):
        header = {"descr": "<f8", "fortran_order": False, "shape": shape}
        raw = _zip(iperf_bps=_npy(np.arange(4.0), header))
        with pytest.raises(_UNREADABLE):
            _read_arrays(raw)

    @pytest.mark.parametrize("raw", [b"", b"\x93NUMPY", b"not a npy member"])
    def test_garbage_member_is_rejected(self, raw):
        with pytest.raises(_UNREADABLE):
            _read_arrays(_zip(times=raw))

    def test_missing_member_is_rejected(self):
        buf = io.BytesIO()
        np.savez_compressed(buf, times=np.arange(3.0))
        with pytest.raises(KeyError):
            _read_arrays(buf.getvalue())

    def test_duplicate_member_is_rejected(self):
        buf = io.BytesIO()
        with pytest.warns(UserWarning, match="Duplicate name"), \
                zipfile.ZipFile(buf, "w") as zf:
            for name in (*ARRAYS, "times"):
                zf.writestr(f"{name}.npy", _npy(np.arange(3.0)))
        with pytest.raises(ValueError, match="duplicate"):
            _read_arrays(buf.getvalue())

    @pytest.mark.parametrize("field, value", [
        (6, 63),       # needs zip 6.3 (LZMA, AES and the like)
        (8, 0x0001),   # encrypted
        (8, 0x0020),   # compressed patched data
        (8, 0x0041),   # strong encryption
        (10, 9),       # deflate64
        (10, 14),      # LZMA
    ], ids=["version", "encrypted", "patched", "strong-encryption",
            "deflate64", "lzma"])
    def test_member_the_reader_does_not_implement_is_refused(self, field,
                                                             value):
        raw = bytearray(_savez(**{name: np.arange(7.0) for name in ARRAYS}))
        # times.npy's central entry: 46 fixed bytes before the last copy
        # of its name.
        struct.pack_into("<H", raw, raw.rindex(b"times.npy") - 46 + field,
                         value)
        with pytest.raises(ValueError):
            _read_arrays(bytes(raw))

    def test_local_name_that_differs_from_the_central_one_is_refused(self):
        raw = bytearray(_savez(**{name: np.arange(7.0) for name in ARRAYS}))
        raw[raw.index(b"times.npy")] = ord("T")
        with pytest.raises(ValueError, match="local header"):
            _read_arrays(bytes(raw))

    def test_bytes_after_a_deflate_stream_are_refused(self):
        raw = bytearray(_savez(**{name: np.arange(7.0) for name in ARRAYS}))
        # Grow the last member's compressed size by four bytes that follow
        # its stream, and move the central directory to make room.
        cd_offset = struct.unpack_from("<L", raw, len(raw) - 6)[0]
        entry = raw.rindex(f"{ARRAYS[-1]}.npy".encode()) - 46
        csize = struct.unpack_from("<L", raw, entry + 20)[0]
        struct.pack_into("<L", raw, entry + 20, csize + 4)
        struct.pack_into("<L", raw, len(raw) - 6, cd_offset + 4)
        raw[cd_offset:cd_offset] = b"\0" * 4
        with pytest.raises(ValueError, match="deflate stream"):
            _read_arrays(bytes(raw))

    @pytest.mark.parametrize("zip64", [
        lambda *_: b"",
        lambda *_: struct.pack("<HHQ", 1, 8, 3),
        lambda size, csize, offset: _zip64_field(2**64 - 1, csize, offset),
    ], ids=["no-zip64-field", "short-zip64-field", "size-past-memory"])
    def test_bad_zip64_sizes_are_rejected(self, zip64):
        raw = _savez(**{name: np.arange(7.0) for name in ARRAYS})
        with pytest.raises(ValueError):
            _read_arrays(_with_zip64_central(raw, zip64))


def test_header_cache_stays_bounded():
    maxsize = _npy_header.cache_info().maxsize
    assert maxsize is not None
    for n in range(maxsize + 50):
        raw = _zip(times=_npy(np.zeros(n)))
        assert _read_arrays(raw)["times"].shape == (n,)
    info = _npy_header.cache_info()
    assert info.currsize <= maxsize


def test_shared_headers_are_parsed_once():
    _npy_header.cache_clear()
    raw = _savez(**{name: np.arange(5.0) for name in ARRAYS})
    for _ in range(3):
        _read_arrays(raw)
    info = _npy_header.cache_info()
    assert info.misses == 1
    assert info.hits == 3 * len(ARRAYS) - 1


def test_every_header_flip_and_truncation_reads_intact_or_unreadable(
        tmp_path):
    """Damage one stored object every way a header can be damaged.

    Every single-bit flip of every byte outside the deflate payloads
    (local headers, central directory, end record), every truncation,
    and a seeded sample of payload flips: the decoder returns the intact
    arrays or raises an :data:`_UNREADABLE` type, and ``get_fp`` never
    raises -- it serves the intact result or reports a miss.

    The decoder is stricter than ``zipfile``: of this object's header
    flips it refuses 452 that ``zipfile`` reads intact, all in fields
    ``zipfile`` does not check (a central entry's sizes, its name, extra
    or comment length, or the version needed to extract; the end
    record's disk numbers, entry counts or comment length).  Such an
    object is a miss and its config is run again.
    """
    config, result = _synthetic_shaped()
    store = RunStore(tmp_path)
    fp = store.put(config, result)
    path = store._object_dir(fp) / "arrays.npz"
    npz = path.read_bytes()
    intact = _read_arrays(npz)

    payload = set()
    with zipfile.ZipFile(io.BytesIO(npz)) as zf:
        for info in zf.infolist():
            name_len, extra_len = struct.unpack_from(
                "<HH", npz, info.header_offset + 26
            )
            start = info.header_offset + 30 + name_len + extra_len
            payload.update(range(start, start + info.compress_size))
    headers = [i for i in range(len(npz)) if i not in payload]
    flips = [(i, bit) for i in headers for bit in range(8)]
    flips += random.Random(0).sample(
        [(i, bit) for i in sorted(payload) for bit in range(8)], 300
    )

    def flipped(i, bit):
        data = bytearray(npz)
        data[i] ^= 1 << bit
        return bytes(data)

    damaged = [flipped(i, bit) for i, bit in flips]
    damaged += [npz[:n] for n in range(len(npz))]
    for raw in damaged:
        try:
            got = _read_arrays(raw)
        except _UNREADABLE:
            got = None
        else:
            _assert_same_arrays(got, intact)
        path.write_bytes(raw)
        assert (store.get_fp(fp) is None) == (got is None)
