"""Tests for the manifest index: predicates, aliases, fresh reads."""

import os

import pytest

from repro.store import RunStore, StoreIndex, parse_where
from repro.store.fingerprint import canonical_json

from tests.report.conftest import make_config, make_result


class TestSelect:
    def test_build_indexes_every_run(self, seeded_store):
        index = StoreIndex.open(seeded_store)
        assert len(index) == 6

    def test_axis_predicate(self, seeded_store):
        index = StoreIndex.open(seeded_store)
        bbr = index.select(cca="bbr")
        assert len(bbr) == 2
        assert all(entry["cca"] == "bbr" for entry in bbr)

    def test_capacity_alias_takes_mbps(self, seeded_store):
        index = StoreIndex.open(seeded_store)
        assert len(index.select(capacity=25)) == 6
        assert index.select(capacity=35) == []

    def test_solo_means_no_competitor(self, seeded_store):
        index = StoreIndex.open(seeded_store)
        for spelled in ("solo", "none", "SOLO"):
            solo = index.select(cca=spelled)
            assert len(solo) == 2
            assert all(entry["cca"] is None for entry in solo)

    def test_any_of_lists(self, seeded_store):
        index = StoreIndex.open(seeded_store)
        assert len(index.select(cca=["cubic", "bbr"])) == 4
        assert len(index.select(cca=["cubic", "bbr"], seed=0)) == 2

    def test_conjunction_across_axes(self, seeded_store):
        index = StoreIndex.open(seeded_store)
        picked = index.select(cca="cubic", seed=1)
        assert len(picked) == 1
        assert picked[0]["seed"] == 1

    def test_no_predicates_returns_everything(self, seeded_store):
        index = StoreIndex.open(seeded_store)
        assert len(index.select()) == 6

    def test_unknown_axis_raises_with_options(self, seeded_store):
        index = StoreIndex.open(seeded_store)
        with pytest.raises(ValueError, match="unknown axis"):
            index.select(nonsense=1)

    def test_deterministic_order(self, seeded_store):
        first = StoreIndex.open(seeded_store)
        second = StoreIndex.open(seeded_store)
        assert [e["fp"] for e in first.entries] == [
            e["fp"] for e in second.entries
        ]


class TestOpen:
    def test_put_is_seen_by_next_open(self, seeded_store):
        StoreIndex.open(seeded_store)
        config = make_config(cca="bbr", seed=9)
        seeded_store.put(config, make_result(config))
        index = StoreIndex.open(seeded_store)
        assert len(index) == 7

    def test_same_size_same_mtime_rewrite_is_seen(self, seeded_store,
                                                   tmp_path):
        # A manifest rewrite that keeps the file's byte length and
        # mtime (a coarse-mtime filesystem, or a restore) must still be
        # read as it is now.
        StoreIndex.open(seeded_store)
        manifest = seeded_store.manifest_path
        before = manifest.stat()
        other = RunStore(tmp_path / "other")
        swapped = make_config(cca="cubic", seed=7)
        other.put(swapped, make_result(swapped))
        (new_entry,) = other.ls()
        lines = []
        for entry in seeded_store.ls():
            if entry["cca"] == "cubic" and entry["seed"] == 1:
                entry = new_entry
            lines.append(canonical_json(entry) + "\n")
        manifest.write_text("".join(lines))
        os.utime(manifest, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = manifest.stat()
        assert (after.st_size, after.st_mtime_ns) == (
            before.st_size, before.st_mtime_ns
        )
        index = StoreIndex.open(seeded_store)
        assert [e["fp"] for e in index.select(seed=7)] == [new_entry["fp"]]
        assert index.select(cca="cubic", seed=1) == []

    def test_report_writes_nothing_under_the_store(self, seeded_store):
        from repro.cli import main
        from repro.report import formatter_names

        def snapshot():
            return {
                path.relative_to(seeded_store.root): path.read_bytes()
                for path in sorted(seeded_store.root.rglob("*"))
                if path.is_file()
            }

        before = snapshot()
        for fmt in formatter_names():
            assert main(["report", str(seeded_store.root), "--format", fmt]) == 0
        assert main(["report", str(seeded_store.root),
                     "--where", "cca=cubic", "--where", "capacity=25"]) == 0
        assert snapshot() == before

    def test_empty_store_indexes_empty(self, tmp_path):
        store = RunStore(tmp_path / "empty")
        assert len(StoreIndex.open(store)) == 0


class TestParseWhere:
    def test_coerces_numbers(self):
        assert parse_where(["capacity=25", "cca=bbr"]) == {
            "capacity": 25, "cca": "bbr",
        }

    def test_comma_list_means_any_of(self):
        assert parse_where(["system=stadia,luna"]) == {
            "system": ["stadia", "luna"]
        }

    def test_repeated_key_merges(self):
        assert parse_where(["seed=0", "seed=1"]) == {"seed": [0, 1]}

    def test_none_is_empty(self):
        assert parse_where(None) == {}

    @pytest.mark.parametrize("clause", ["nokey", "=value", "key=", " =x"])
    def test_bad_clause_raises(self, clause):
        with pytest.raises(ValueError, match="bad --where clause"):
            parse_where([clause])

    def test_roundtrip_through_select(self, seeded_store):
        index = StoreIndex.open(seeded_store)
        where = parse_where(["cca=cubic,bbr", "capacity=25"])
        assert len(index.select(**where)) == 4
