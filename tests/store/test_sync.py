"""Tests for store merge and what the index sees after a manifest rewrite."""

import dataclasses
import json

import numpy as np
import pytest

from repro.store import RunStore, StoreIndex
from repro.store.sync import merge_stores

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

    def test_source_object_of_another_fingerprint_is_missing(self, dst, src):
        # seed 2's files copied over seed 1's object: the source store
        # would serve seed 2's result for seed 1's config.
        one, two = make_config(seed=1), make_config(seed=2)
        fp_one = src.put(one, make_result(one))
        fp_two = src.put(two, make_result(two))
        for name in ("meta.json", "arrays.npz"):
            (src._object_dir(fp_one) / name).write_bytes(
                (src._object_dir(fp_two) / name).read_bytes()
            )
        assert any(p.startswith(fp_one) for p in src.verify())
        report = merge_stores(dst, src)
        assert report.copied == 1
        assert report.missing == [fp_one]
        assert not dst.contains_fp(fp_one)
        assert dst.get(one) is None
        assert {e["fp"] for e in dst.ls()} == {fp_two}
        assert dst.verify() == []

    def test_merge_creates_missing_destination(self, src, tmp_path):
        config = make_config()
        fp = src.put(config, make_result(config))
        dest = tmp_path / "new" / "dest"
        report = merge_stores(RunStore(dest), src)
        assert report.copied == 1
        assert RunStore(dest).contains_fp(fp)

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


class TestIndexInvalidation:
    """Every manifest rewrite is what the next index open sees."""

    def test_select_after_merge_sees_new_manifest(self, dst, src):
        config = make_config(seed=0)
        fp_kept = dst.put(config, make_result(config))
        assert len(StoreIndex.open(dst)) == 1

        other = make_config(seed=1)
        fp = src.put(other, make_result(other))
        merge_stores(dst, src)
        index = StoreIndex.open(dst)
        assert [e["fp"] for e in index.select(seed=1)] == [fp]
        assert {e["fp"] for e in index.select()} == {fp_kept, fp}

    def test_select_after_gc_sees_new_manifest(self, dst):
        config = make_config(seed=0)
        victim = make_config(seed=1)
        fp_kept = dst.put(config, make_result(config))
        fp = dst.put(victim, make_result(victim))
        assert len(StoreIndex.open(dst)) == 2

        # Lose the object, then gc: the manifest entry is dropped and
        # the next open no longer lists it.
        for name in ("meta.json", "arrays.npz"):
            (dst._object_dir(fp) / name).unlink()
        stats = dst.gc()
        assert stats["entries_dropped"] == 1
        assert [e["fp"] for e in StoreIndex.open(dst).select()] == [fp_kept]

    def test_gc_then_select_never_returns_collected_fp(self, dst):
        """gc -> select is always coherent."""
        keep = make_config(seed=0)
        drop = make_config(seed=1)
        dst.put(keep, make_result(keep))
        fp_drop = dst.put(drop, make_result(drop))
        StoreIndex.open(dst)
        for name in ("meta.json", "arrays.npz"):
            (dst._object_dir(fp_drop) / name).unlink()
        dst.gc()
        entries = StoreIndex.open(dst).select()
        fps = [e["fp"] for e in entries]
        assert fp_drop not in fps
        assert len(fps) == 1


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

    def test_store_merge_cli_into_new_directory(self, src, tmp_path):
        from repro.cli import main

        config = make_config()
        src.put(config, make_result(config))
        first = tmp_path / "first"
        assert main(["store", "merge", str(first), str(src.root)]) == 0
        second = tmp_path / "second"
        assert main(["store", "merge", str(second), str(first)]) == 0
        assert len(RunStore(second).ls()) == 1
