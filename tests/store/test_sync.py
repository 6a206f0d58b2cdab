"""Tests for store sync (merge/push/pull) and index invalidation."""

import dataclasses
import json

import numpy as np
import pytest

from repro.store import RunStore, StoreIndex
from repro.store.sync import merge_stores, pull_store, push_store

from tests.store.test_runstore import TORN, make_config, make_result, tear_arrays


@pytest.fixture
def dst(tmp_path):
    return RunStore(tmp_path / "dst")


@pytest.fixture
def src(tmp_path):
    return RunStore(tmp_path / "src")


class TestMergeUnion:
    def test_disjoint_stores_union(self, dst, src):
        a, b = make_config(seed=0), make_config(seed=1)
        fp_a = dst.put(a, make_result(a))
        fp_b = src.put(b, make_result(b))
        report = merge_stores(dst, src)
        assert report.copied == 1
        assert report.duplicates == 0
        assert report.clean
        assert dst.contains_fp(fp_a) and dst.contains_fp(fp_b)
        assert {e["fp"] for e in dst.ls()} == {fp_a, fp_b}
        assert dst.verify() == []

    def test_copied_result_roundtrips(self, dst, src):
        config = make_config()
        result = make_result(config)
        fp = src.put(config, result)
        merge_stores(dst, src)
        loaded = dst.get_fp(fp)
        assert loaded is not None
        assert np.allclose(loaded.game_bps, result.game_bps)

    def test_byte_identical_objects_are_duplicates(self, dst, src):
        config = make_config()
        result = make_result(config)
        dst.put(config, result)
        src.put(config, result)
        report = merge_stores(dst, src)
        assert report.copied == 0
        assert report.duplicates == 1
        assert report.clean

    def test_provenance_only_difference_is_duplicate(self, dst, src):
        # Two honest executions on different hosts: identical result,
        # different wall time and profiler numbers.  Merge must not
        # call that a conflict.
        config = make_config()
        result = make_result(config)
        dst.put(config, result)
        src.put(config, dataclasses.replace(
            result, wall_time_s=99.9, profile={"events": 777}
        ))
        report = merge_stores(dst, src)
        assert report.duplicates == 1
        assert report.conflicts == []

    def test_true_conflict_reported_and_dst_kept(self, dst, src):
        config = make_config()
        result = make_result(config)
        fp = dst.put(config, result)
        src.put(config, dataclasses.replace(result, game_loss_rate=0.5))
        report = merge_stores(dst, src)
        assert report.conflicts == [fp]
        assert not report.clean
        assert dst.get_fp(fp).game_loss_rate == result.game_loss_rate

    def test_array_divergence_is_conflict(self, dst, src):
        config = make_config()
        result = make_result(config)
        fp = dst.put(config, result)
        src.put(config, dataclasses.replace(
            result, game_bps=result.game_bps * 2.0
        ))
        report = merge_stores(dst, src)
        assert report.conflicts == [fp]

    @pytest.mark.parametrize("how", TORN)
    def test_torn_destination_object_is_conflict(self, dst, src, how):
        config = make_config()
        fp = dst.put(config, make_result(config))
        src.put(config, make_result(config))
        tear_arrays(dst, fp, how)
        report = merge_stores(dst, src)
        assert report.conflicts == [fp]

    def test_missing_source_object_skipped(self, dst, src):
        config = make_config()
        fp = src.put(config, make_result(config))
        for name in ("meta.json", "arrays.npz"):
            (src._object_dir(fp) / name).unlink()
        report = merge_stores(dst, src)
        assert report.missing == [fp]
        assert report.copied == 0
        assert not dst.contains_fp(fp)

    def test_merge_into_itself_refuses(self, dst):
        with pytest.raises(ValueError, match="itself"):
            merge_stores(dst, dst)

    def test_merge_is_idempotent(self, dst, src):
        config = make_config()
        src.put(config, make_result(config))
        assert merge_stores(dst, src).copied == 1
        again = merge_stores(dst, src)
        assert again.copied == 0
        assert again.duplicates == 1


class TestPushPull:
    def test_push_creates_and_fills_remote(self, dst, tmp_path):
        config = make_config()
        fp = dst.put(config, make_result(config))
        remote = tmp_path / "remote"
        report = push_store(dst, remote)
        assert report.copied == 1
        assert RunStore(remote).contains_fp(fp)

    def test_pull_brings_remote_objects_local(self, dst, tmp_path):
        remote = RunStore(tmp_path / "remote")
        config = make_config(seed=5)
        fp = remote.put(config, make_result(config))
        report = pull_store(dst, tmp_path / "remote")
        assert report.copied == 1
        assert dst.contains_fp(fp)


class TestIndexInvalidation:
    """Satellite: every manifest rewrite must drop the cached index."""

    def test_merge_invalidates_cached_index(self, dst, src):
        config = make_config(seed=0)
        dst.put(config, make_result(config))
        index = StoreIndex.open(dst)  # writes index.json
        assert StoreIndex.cache_path(dst).exists()
        assert len(index) == 1

        other = make_config(seed=1)
        fp = src.put(other, make_result(other))
        merge_stores(dst, src)
        assert not StoreIndex.cache_path(dst).exists()
        entries = StoreIndex.open(dst).select(seed=1)
        assert [e["fp"] for e in entries] == [fp]

    def test_gc_invalidates_cached_index(self, dst):
        config = make_config(seed=0)
        victim = make_config(seed=1)
        dst.put(config, make_result(config))
        fp = dst.put(victim, make_result(victim))
        StoreIndex.open(dst)
        assert StoreIndex.cache_path(dst).exists()

        # Lose the object, then gc: the manifest entry is dropped and
        # the cache must go with it.
        for name in ("meta.json", "arrays.npz"):
            (dst._object_dir(fp) / name).unlink()
        stats = dst.gc()
        assert stats["entries_dropped"] == 1
        assert not StoreIndex.cache_path(dst).exists()

    def test_gc_then_select_never_returns_collected_fp(self, dst):
        """The satellite's regression: gc -> select is always coherent."""
        keep = make_config(seed=0)
        drop = make_config(seed=1)
        dst.put(keep, make_result(keep))
        fp_drop = dst.put(drop, make_result(drop))
        # Warm the cache so a stale-stamp bug would have something to
        # serve.
        StoreIndex.open(dst)
        for name in ("meta.json", "arrays.npz"):
            (dst._object_dir(fp_drop) / name).unlink()
        dst.gc()
        entries = StoreIndex.open(dst).select()
        fps = [e["fp"] for e in entries]
        assert fp_drop not in fps
        assert len(fps) == 1

    def test_invalidate_index_without_cache_is_noop(self, dst):
        dst.invalidate_index()  # must not raise


class TestCLI:
    def test_store_merge_cli(self, dst, src, tmp_path, capsys):
        from repro.cli import main

        config = make_config()
        src.put(config, make_result(config))
        code = main(["store", "merge", str(dst.root), str(src.root), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[str(src.root)]["copied"] == 1

    def test_store_merge_cli_conflict_exits_1(self, dst, src, capsys):
        from repro.cli import main

        config = make_config()
        result = make_result(config)
        dst.put(config, result)
        src.put(config, dataclasses.replace(result, game_loss_rate=0.9))
        code = main(["store", "merge", str(dst.root), str(src.root)])
        assert code == 1
        assert "CONFLICT" in capsys.readouterr().err

    def test_store_push_pull_cli(self, dst, tmp_path, capsys):
        from repro.cli import main

        config = make_config()
        dst.put(config, make_result(config))
        remote = tmp_path / "remote"
        assert main(["store", "push", str(dst.root), str(remote)]) == 0
        fresh = tmp_path / "fresh"
        RunStore(fresh)
        assert main(["store", "pull", str(fresh), str(remote)]) == 0
        assert len(RunStore(fresh).ls()) == 1
