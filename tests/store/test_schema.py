"""The stored schema: ``RunResult`` declares it, and no byte on disk moved.

Every object in an existing store was written by one writer: ``to_dict()``,
each array through ``np.asarray(value.tolist())`` into
``np.savez_compressed``, and ``json.dumps`` of the remaining keys.
:func:`reference_object` keeps that writer, with its own explicit key
lists, as the referee: ``RunStore.put`` must write byte-identical
``meta.json`` and ``arrays.npz`` for any result -- empty RTT samples and
target logs, float32/int64 and Fortran-ordered arrays included -- and
an object the referee wrote must read back to the same ``to_dict()``.
A byte that moved would turn every merge of an old copy with a new one
into a conflict.
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.experiments import PAPER, QUICK, SMOKE, RunConfig
from repro.experiments.results import ARRAYS, PROVENANCE, RunResult
from repro.store import RunStore
from repro.store.runstore import _as_stored
from repro.store.sync import merge_stores

#: ``to_dict()``'s keys, in order.  ``meta.json`` holds the same keys
#: minus the arrays, in the same order.
TO_DICT_KEYS = (
    "system", "cca", "capacity_bps", "queue_mult", "seed", "timeline_scale",
    "times", "game_bps", "iperf_bps",
    "baseline_bps", "fairness_game_bps", "fairness_iperf_bps", "solo_bps",
    "rtt_samples", "game_loss_rate", "displayed_fps_contention",
    "displayed_fps_solo", "frames_displayed", "frames_dropped",
    "target_log", "qdisc", "wall_time_s", "profile",
    "rtt_summary", "fairness_ratio",
)
REFERENCE_ARRAYS = ("times", "game_bps", "iperf_bps", "rtt_samples",
                    "target_log")


def reference_object(result: RunResult) -> tuple[bytes, bytes]:
    """``(meta.json, arrays.npz)`` as every existing object was written."""
    data = result.to_dict()
    assert tuple(data) == TO_DICT_KEYS
    members = {name: np.asarray(data.pop(name)) for name in REFERENCE_ARRAYS}
    buf = io.BytesIO()
    np.savez_compressed(buf, **members)
    return json.dumps(data).encode(), buf.getvalue()


# Bounded so that the derived RTT summary cannot overflow to inf or NaN,
# which would make two equal runs compare unequal.
_ELEMENTS = {
    np.float64: st.floats(-1e15, 1e15),
    np.float32: st.floats(-2.0**49, 2.0**49, width=32),
    np.int64: st.integers(-(2**53), 2**53),
}
_SCALARS = st.floats(-1e15, 1e15)


@st.composite
def _arrays(draw, shape, dtypes):
    dtype = draw(st.sampled_from(dtypes))
    array = draw(arrays(dtype, shape, elements=_ELEMENTS[dtype]))
    return np.asarray(array, order=draw(st.sampled_from("CF")))


@st.composite
def runs(draw, dtypes=(np.float64, np.float32, np.int64)):
    """A config and a result carrying its identity, arrays of ``dtypes``."""
    config = RunConfig(
        system=draw(st.sampled_from(["stadia", "geforce", "luna"])),
        capacity_bps=draw(st.sampled_from([15e6, 25e6, 35_000_000])),
        queue_mult=draw(st.sampled_from([0.5, 2, 7.0])),
        cca=draw(st.sampled_from([None, "cubic", "bbr"])),
        seed=draw(st.integers(0, 2**31)),
        timeline=draw(st.sampled_from([SMOKE, QUICK, PAPER])),
        qdisc=draw(st.sampled_from(["droptail", "codel"])),
    )
    bins = draw(st.integers(0, 12))
    result = RunResult(
        system=config.system,
        cca=config.cca,
        capacity_bps=config.capacity_bps,
        queue_mult=config.queue_mult,
        seed=config.seed,
        timeline_scale=config.timeline.scale,
        times=draw(_arrays((bins,), dtypes)),
        game_bps=draw(_arrays((bins,), dtypes)),
        iperf_bps=draw(_arrays((bins,), dtypes)),
        baseline_bps=draw(_SCALARS),
        fairness_game_bps=draw(_SCALARS),
        fairness_iperf_bps=draw(_SCALARS),
        solo_bps=draw(_SCALARS),
        rtt_samples=draw(_arrays((draw(st.integers(0, 8)), 2), dtypes)),
        game_loss_rate=draw(_SCALARS),
        displayed_fps_contention=draw(_SCALARS),
        displayed_fps_solo=draw(_SCALARS),
        frames_displayed=draw(st.integers(0, 10**6)),
        frames_dropped=draw(st.integers(0, 10**6)),
        target_log=draw(_arrays((draw(st.integers(0, 8)), 2), dtypes)),
        qdisc=config.qdisc,
        wall_time_s=draw(_SCALARS),
        profile=draw(st.none() | st.dictionaries(
            st.text(max_size=4), st.integers(), max_size=3
        )),
    )
    return config, result


@settings(max_examples=80, deadline=None)
@given(run=runs())
def test_put_writes_the_reference_bytes(run):
    config, result = run
    want = reference_object(result)
    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(tmp)
        fp = store.put(config, result)
        assert store.object_bytes(fp) == want
        assert store.verify() == []


@settings(max_examples=80, deadline=None)
@given(run=runs(dtypes=(np.float64,)))
def test_reference_object_reads_back(run):
    # Float64 only, as every run produces: a float32 series is stored as
    # float64, so its recomputed RTT percentile may differ in the last bit.
    config, result = run
    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(tmp)
        fp = store.fingerprint(config)
        store.install_object(fp, {"fp": fp}, *reference_object(result))
        assert store.verify() == []
        assert store.get_fp(fp).to_dict() == result.to_dict()


def _synthetic_shaped() -> tuple[RunConfig, RunResult]:
    """A result shaped like a benchmark's stubbed run: one bitrate bin
    per 0.1 s of a smoke timeline, 40 RTT samples, no target log.  Only
    exact arithmetic, so the bytes do not depend on the platform's libm.
    """
    config = RunConfig(system="stadia", capacity_bps=25e6, queue_mult=2.0,
                       cca="cubic", seed=3, timeline=SMOKE)
    times = np.arange(SMOKE.bin_width / 2, SMOKE.end, SMOKE.bin_width)
    contended = (times >= SMOKE.iperf_start) & (times < SMOKE.iperf_stop)
    rtt_t = np.linspace(1.0, SMOKE.end - 1.0, 40)
    rtt_v = 0.03125 + np.arange(40) / 1024
    return config, RunResult(
        system=config.system,
        cca=config.cca,
        capacity_bps=config.capacity_bps,
        queue_mult=config.queue_mult,
        seed=config.seed,
        timeline_scale=SMOKE.scale,
        times=times,
        game_bps=np.where(contended, 11.25e6, 20e6)
        + (np.arange(times.size) % 7) * 1e4,
        iperf_bps=np.where(contended, 8.75e6, 0.0),
        baseline_bps=20e6,
        fairness_game_bps=11.25e6,
        fairness_iperf_bps=8.75e6,
        solo_bps=20e6,
        rtt_samples=np.column_stack([rtt_t, rtt_v]),
        game_loss_rate=0.02,
        displayed_fps_contention=50.0,
        displayed_fps_solo=60.0,
        frames_displayed=500,
        frames_dropped=4,
        qdisc=config.qdisc,
    )


def test_synthetic_object_bytes_are_pinned(tmp_path):
    """Both files' digests, recorded from the list-round-trip writer.

    ``arrays.npz`` is deflated, so the digest also assumes the zlib the
    digests were recorded with; ``meta.json`` assumes nothing.
    """
    config, result = _synthetic_shaped()
    store = RunStore(tmp_path)
    fp = store.put(config, result)
    assert fp == (
        "0b4708088825292d1370f26d5daec8e709ca4ee692092eb46d78d6d585b860eb"
    )
    meta, npz = store.object_bytes(fp)
    assert hashlib.sha256(meta).hexdigest() == (
        "bd2a9a89147b259f0d3953cfb5c4b1f2071615dab75cbd37c7987ed473fec602"
    )
    assert hashlib.sha256(npz).hexdigest() == (
        "d955b23eaf5a177db9ee6c4b1b2e3c9d6dfa5bfd210f7837b8f6ca570156db81"
    )
    # The empty (0, 2) target log is stored as shape (0,), and reads back
    # as (0, 2).
    with np.load(io.BytesIO(npz)) as members:
        assert members["target_log"].shape == (0,)
    assert store.get_fp(fp).target_log.shape == (0, 2)


class TestDeclaration:
    def test_partition(self):
        assert ARRAYS == REFERENCE_ARRAYS
        assert PROVENANCE == ("wall_time_s", "profile")

    def test_stored_meta_is_to_dict_minus_arrays(self):
        _, result = _synthetic_shaped()
        meta, members = result.to_stored()
        assert tuple(meta) == tuple(
            key for key in TO_DICT_KEYS if key not in REFERENCE_ARRAYS
        )
        assert tuple(members) == REFERENCE_ARRAYS

    def test_absent_key_takes_the_field_default(self):
        _, result = _synthetic_shaped()
        data = result.to_dict()
        for name in ("target_log", "qdisc", "wall_time_s", "profile"):
            del data[name]
        loaded = RunResult.from_dict(data)
        assert loaded.target_log.shape == (0, 2)
        assert loaded.qdisc == "droptail"
        assert loaded.wall_time_s == 0.0
        assert loaded.profile is None

    def test_absent_required_key_raises(self):
        _, result = _synthetic_shaped()
        data = result.to_dict()
        del data["frames_dropped"]
        with pytest.raises(KeyError, match="frames_dropped"):
            RunResult.from_dict(data)

    def test_meta_without_qdisc_verifies_as_droptail(self, tmp_path):
        config, result = _synthetic_shaped()
        store = RunStore(tmp_path)
        fp = store.put(config, result)
        path = store._object_dir(fp) / "meta.json"
        meta = json.loads(path.read_text())
        del meta["qdisc"]
        path.write_text(json.dumps(meta))
        assert store.verify() == []
        assert store.get_fp(fp).qdisc == "droptail"

    @pytest.mark.parametrize("damage", [
        lambda meta: {k: v for k, v in meta.items() if k != "frames_dropped"},
        lambda meta: list(meta.values()),
        lambda meta: {**meta, "capacity_bps": None},
        lambda meta: {**meta, "frames_displayed": "a"},
        lambda meta: {**meta, "frames_dropped": 4.0},
        lambda meta: {**meta, "frames_dropped": True},
        lambda meta: {**meta, "system": 1},
        lambda meta: {**meta, "profile": []},
    ], ids=["missing-key", "not-an-object", "null-float", "string-int",
            "float-int", "bool-int", "int-str", "list-dict"])
    def test_unusable_meta_is_unreadable(self, tmp_path, damage):
        config, result = _synthetic_shaped()
        store = RunStore(tmp_path / "src")
        fp = store.put(config, result)
        path = store._object_dir(fp) / "meta.json"
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        assert store.get_fp(fp) is None
        (problem,) = store.verify()
        assert problem.startswith(f"{fp}: unreadable object")
        report = merge_stores(RunStore(tmp_path / "dst"), store)
        assert report.missing == [fp]


@pytest.mark.parametrize("array", [
    np.arange(6.0).reshape(3, 2)[::2],            # strided view
    np.asfortranarray(np.arange(6.0).reshape(3, 2)),
    np.arange(4.0).astype(">f8"),                 # big-endian float64
    np.float64(2.5).reshape(()),                  # 0-d
    np.empty((0, 2)),
    np.empty((2, 0)),
    np.arange(3, dtype=np.int32),
    np.array([True, False]),
    np.arange(3.0, dtype=np.float32),
], ids=["strided", "fortran", "big-endian", "0-d", "(0,2)", "(2,0)",
        "int32", "bool", "float32"])
def test_as_stored_is_the_list_round_trip(array):
    got, want = _as_stored(array), np.asarray(array.tolist())
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
