"""Unit tests for the content-addressed run store (synthetic results)."""

import json
import struct
import zipfile
import zlib

import numpy as np
import pytest

from repro.experiments import RunConfig, SMOKE
from repro.experiments.results import RunResult
from repro.store import RunStore, StoreVersionError
from repro.store.fingerprint import STORE_FORMAT_VERSION
from repro.store.runstore import _read_arrays


def make_config(seed=0, **overrides):
    base = dict(
        system="stadia", capacity_bps=25e6, queue_mult=2.0,
        cca="cubic", seed=seed, timeline=SMOKE,
    )
    base.update(overrides)
    return RunConfig(**base)


def make_result(config) -> RunResult:
    """A small synthetic result carrying the config's identity."""
    rng = np.random.default_rng(config.seed)
    times = np.arange(0.25, 10.0, 0.5)
    return RunResult(
        system=config.system,
        cca=config.cca,
        capacity_bps=config.capacity_bps,
        queue_mult=config.queue_mult,
        seed=config.seed,
        timeline_scale=config.timeline.scale,
        times=times,
        game_bps=rng.uniform(5e6, 20e6, times.size),
        iperf_bps=rng.uniform(0, 10e6, times.size),
        baseline_bps=18e6,
        fairness_game_bps=12e6,
        fairness_iperf_bps=9e6,
        solo_bps=18e6,
        rtt_samples=rng.uniform(0.02, 0.1, (40, 2)),
        game_loss_rate=0.01,
        displayed_fps_contention=55.0,
        displayed_fps_solo=60.0,
        frames_displayed=500,
        frames_dropped=4,
        target_log=rng.uniform(5e6, 20e6, (20, 2)),
        qdisc=config.qdisc,
        wall_time_s=1.25,
        profile={"events": 123},
    )


#: What can happen to a stored object.  In ``arrays.npz``: a torn write
#: leaves a prefix or nothing; a bit flip on disk or in transit leaves a
#: deflate stream that fails to inflate, or a zip header naming a
#: compression method or an encryption the store never writes.  In
#: ``meta.json``: a value of a type its field does not declare.
DAMAGED = ("truncated", "empty", "bit-flipped", "method-flipped",
           "flag-flipped", "null-capacity", "string-count")

#: The ``meta.json`` field and wrong-typed value of each meta case.
_WRONG_TYPE = {"null-capacity": ("capacity_bps", None),
               "string-count": ("frames_displayed", "a")}

#: Where bit 0 is flipped in the ``*-flipped`` header cases: offsets into
#: a 46-byte central directory entry.
_CENTRAL_FIELD = {"method-flipped": 10, "flag-flipped": 8}


def damage_object(store, fp, how) -> None:
    """Damage one stored object in one of the ``DAMAGED`` ways.

    ``truncated`` keeps half the bytes and ``empty`` none.
    ``bit-flipped`` inverts 20 bytes in the middle of the ``game_bps``
    member's compressed data; the zip structure stays intact, so only
    inflating that member fails (``zlib.error``).  ``method-flipped``
    and ``flag-flipped`` flip bit 0 of the compression method (deflate
    becomes deflate64) or of the flags (encrypted) in the central
    directory entry of ``times.npy``.  ``null-capacity`` and
    ``string-count`` rewrite one ``meta.json`` value (:data:`_WRONG_TYPE`).
    """
    if how in _WRONG_TYPE:
        name, value = _WRONG_TYPE[how]
        path = store._object_dir(fp) / "meta.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    name: value}))
        return
    path = store._object_dir(fp) / "arrays.npz"
    data = bytearray(path.read_bytes())
    if how == "truncated":
        del data[len(data) // 2:]
    elif how == "empty":
        data.clear()
    elif how in _CENTRAL_FIELD:
        # The central directory follows every member, so the last copy
        # of the name is its entry's, after 46 fixed bytes.
        entry = data.rindex(b"times.npy") - 46
        assert data[entry:entry + 4] == b"PK\x01\x02"
        data[entry + _CENTRAL_FIELD[how]] ^= 0x01
    else:
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("game_bps.npy")
        # Local file header: 30 fixed bytes, then the name and extra field.
        name_len, extra_len = struct.unpack_from(
            "<HH", data, info.header_offset + 26
        )
        start = (info.header_offset + 30 + name_len + extra_len
                 + info.compress_size // 2 - 10)
        for i in range(start, start + 20):
            data[i] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store")


class TestPutGet:
    def test_roundtrip_preserves_everything(self, store):
        config = make_config()
        result = make_result(config)
        fp = store.put(config, result)
        loaded = store.get(config)
        assert loaded is not None
        for name in ("times", "game_bps", "iperf_bps", "rtt_samples",
                     "target_log"):
            assert np.allclose(getattr(loaded, name), getattr(result, name))
        assert loaded.system == result.system
        assert loaded.seed == result.seed
        assert loaded.qdisc == result.qdisc
        assert loaded.wall_time_s == result.wall_time_s
        assert loaded.profile == result.profile
        assert store.contains_fp(fp)
        assert config in store

    def test_miss_returns_none(self, store):
        assert store.get(make_config()) is None
        assert make_config() not in store

    def test_distinct_configs_distinct_objects(self, store):
        a, b = make_config(seed=1), make_config(seed=2)
        store.put(a, make_result(a))
        store.put(b, make_result(b))
        assert len(store) == 2
        assert store.get(a).seed == 1
        assert store.get(b).seed == 2

    def test_put_twice_overwrites_and_dedupes(self, store):
        config = make_config()
        store.put(config, make_result(config))
        store.put(config, make_result(config))
        assert len(store.ls()) == 1

    def test_no_temp_litter_after_put(self, store):
        config = make_config()
        store.put(config, make_result(config))
        assert list(store.root.rglob("*.tmp*")) == []

    def test_qdisc_distinguishes_entries(self, store):
        droptail = make_config()
        codel = make_config(qdisc="codel")
        store.put(droptail, make_result(droptail))
        assert store.get(codel) is None


class TestManifest:
    def test_ls_reports_identity_and_label(self, store):
        config = make_config(seed=5)
        store.put(config, make_result(config))
        (entry,) = store.ls()
        assert entry["label"] == config.label
        assert entry["system"] == "stadia"
        assert entry["seed"] == 5
        assert len(entry["fp"]) == 64

    def test_torn_final_line_is_skipped(self, store):
        config = make_config()
        store.put(config, make_result(config))
        with open(store.manifest_path, "a") as fh:
            fh.write('{"fp": "dead')  # crash mid-append
        assert len(store.ls()) == 1


class TestVerifyGc:
    def test_clean_store_verifies(self, store):
        for seed in (1, 2, 3):
            config = make_config(seed=seed)
            store.put(config, make_result(config))
        assert store.verify() == []

    def test_missing_file_reported(self, store):
        config = make_config()
        fp = store.put(config, make_result(config))
        (store._object_dir(fp) / "arrays.npz").unlink()
        problems = store.verify()
        assert any("missing arrays.npz" in p for p in problems)
        assert store.get(config) is None  # degraded entries read as misses

    def test_corrupted_npz_reported(self, store):
        config = make_config()
        fp = store.put(config, make_result(config))
        (store._object_dir(fp) / "arrays.npz").write_bytes(b"not an npz")
        problems = store.verify()
        assert any("unreadable" in p for p in problems)

    @pytest.mark.parametrize("how", DAMAGED)
    def test_torn_npz_reported(self, store, how):
        config = make_config()
        fp = store.put(config, make_result(config))
        damage_object(store, fp, how)
        (problem,) = store.verify()
        assert problem.startswith(f"{fp}: unreadable object")

    @pytest.mark.parametrize("how", DAMAGED)
    def test_torn_npz_reads_as_miss(self, store, how):
        config = make_config()
        fp = store.put(config, make_result(config))
        damage_object(store, fp, how)
        assert store.get(config) is None
        assert store.get_fp(fp) is None

    def test_bit_flip_breaks_the_deflate_stream(self, store):
        config = make_config()
        fp = store.put(config, make_result(config))
        damage_object(store, fp, "bit-flipped")
        with pytest.raises(zlib.error):
            _read_arrays((store._object_dir(fp) / "arrays.npz").read_bytes())

    def test_tampered_metadata_reported(self, store):
        config = make_config()
        fp = store.put(config, make_result(config))
        meta_path = store._object_dir(fp) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["seed"] = 999  # no longer matches the addressed key
        meta_path.write_text(json.dumps(meta))
        problems = store.verify()
        assert any("fingerprints to" in p for p in problems)

    def test_orphan_object_reported_and_collected(self, store):
        config = make_config()
        store.put(config, make_result(config))
        store.manifest_path.write_text("")  # lose the index
        problems = store.verify()
        assert any("not in manifest" in p for p in problems)
        stats = store.gc()
        assert stats["objects_removed"] == 1
        assert store.get(config) is None

    def test_gc_drops_stale_entries_and_tmp(self, store):
        keep = make_config(seed=1)
        lose = make_config(seed=2)
        store.put(keep, make_result(keep))
        fp = store.put(lose, make_result(lose))
        obj = store._object_dir(fp)
        for child in obj.iterdir():
            child.unlink()
        obj.rmdir()
        (store.root / "objects" / "stray.tmp").write_text("x")
        stats = store.gc()
        assert stats["entries_dropped"] == 1
        assert stats["entries_kept"] == 1
        assert stats["tmp_removed"] == 1
        assert store.verify() == []
        assert store.get(keep) is not None


class TestVersioning:
    def test_reopen_same_version_ok(self, tmp_path):
        root = tmp_path / "store"
        config = make_config()
        RunStore(root).put(config, make_result(config))
        assert RunStore(root).get(config) is not None

    def test_other_format_version_refused(self, tmp_path):
        root = tmp_path / "store"
        RunStore(root)
        (root / "store.json").write_text(
            json.dumps({"format": STORE_FORMAT_VERSION + 1})
        )
        with pytest.raises(StoreVersionError):
            RunStore(root)


class TestCheckpoints:
    def test_roundtrip(self, store):
        state = {"id": "abc", "total": 3, "completed": ["x"], "failed": {}}
        store.save_checkpoint("abc", state)
        assert store.load_checkpoint("abc") == state

    def test_missing_and_torn_read_as_none(self, store):
        assert store.load_checkpoint("nope") is None
        store.checkpoint_path("torn").write_text('{"id": "to')
        assert store.load_checkpoint("torn") is None

    def test_checkpoint_updates_are_atomic(self, store):
        store.save_checkpoint("c", {"total": 1})
        store.save_checkpoint("c", {"total": 2})
        assert store.load_checkpoint("c") == {"total": 2}
        assert list(store.campaigns.glob("*.tmp*")) == []
