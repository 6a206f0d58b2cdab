"""The store's ``arrays.npz`` decoder reads what ``np.load`` reads.

:func:`repro.store.runstore._read_arrays` replaces ``np.load`` on every
store read path.  The Hypothesis property writes random float64/int64
series with ``np.savez_compressed`` -- the store's writer -- and asserts
the decoder returns what ``np.load`` returns, down to dtype, shape,
memory layout, bytes and writeability.  The examples below it cover
what must read as a miss: a pickled (object) member, a member shorter
than its header declares, and a header that could not describe an
array.
"""

from __future__ import annotations

import io
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


def _zip(**npy_members: bytes) -> bytes:
    """An ``arrays.npz`` built member by member from raw ``.npy`` bytes."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for name in ARRAYS:
            raw = npy_members.get(name, _npy(np.arange(3.0)))
            zf.writestr(f"{name}.npy", raw)
    return buf.getvalue()


_SERIES = st.tuples(
    st.sampled_from([np.float64, np.int64]),
    st.sampled_from(["n", "n2", "0", "02"]),
    st.integers(1, 40),
    st.sampled_from(["C", "F"]),
).flatmap(
    lambda spec: arrays(
        spec[0],
        {"n": (spec[2],), "n2": (spec[2], 2), "0": (0,), "02": (0, 2)}[spec[1]],
    ).map(lambda a, order=spec[3]: np.asarray(a, order=order))
)


@settings(max_examples=150, deadline=None)
@given(series=st.tuples(*[_SERIES] * len(ARRAYS)))
def test_decoder_equals_np_load(series):
    raw = _savez(**dict(zip(ARRAYS, series)))
    got = _read_arrays(raw)
    with np.load(io.BytesIO(raw)) as npz:
        want = {name: npz[name] for name in ARRAYS}
    assert list(got) == list(ARRAYS)
    for name in ARRAYS:
        a, b = got[name], want[name]
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.flags.c_contiguous == b.flags.c_contiguous
        assert a.flags.f_contiguous == b.flags.f_contiguous
        assert a.tobytes(order="A") == b.tobytes(order="A")
        assert a.flags.writeable and b.flags.writeable


def test_fortran_order_is_kept():
    series = np.asfortranarray(np.arange(12.0).reshape(6, 2))
    raw = _savez(**{name: series for name in ARRAYS})
    got = _read_arrays(raw)["rtt_samples"]
    assert got.flags.f_contiguous and not got.flags.c_contiguous
    assert np.array_equal(got, series)


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
