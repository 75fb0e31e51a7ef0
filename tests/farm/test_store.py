"""Artifact-store tests: atomic publication, LRU eviction, environment."""

import json
import os

import pytest

from repro.farm.cli import parse_size
from repro.farm.store import (
    ENV_DIR,
    ENV_TOGGLE,
    ArtifactStore,
    default_store_root,
    store_enabled,
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestPutGet:
    def test_meta_roundtrip(self, store):
        key = "ab" * 32
        assert not store.has("sim", key)
        assert store.get_meta("sim", key) is None
        store.put("sim", key, {"cycles": 42})
        assert store.has("sim", key)
        assert store.get_meta("sim", key) == {"cycles": 42}

    def test_json_payload_roundtrip(self, store):
        key = "cd" * 32
        store.put_json("analysis", key, {"x": [1, 2]}, meta={"kind": "a"})
        assert store.get_json("analysis", key) == {"x": [1, 2]}

    def test_json_payload_bytes_deterministic(self, store):
        key1, key2 = "11" * 32, "22" * 32
        obj = {"b": 2, "a": {"z": 1, "y": 0}}
        store.put_json("sim", key1, obj, meta={})
        store.put_json("sim", key2, dict(reversed(list(obj.items()))), meta={})
        read = store.payload_path("sim", key1, "snapshot.json").read_bytes()
        assert read == store.payload_path(
            "sim", key2, "snapshot.json").read_bytes()
        assert json.loads(read) == obj

    def test_file_payload_moved_into_artifact(self, store, tmp_path):
        src = tmp_path / "payload.bin"
        src.write_bytes(b"\x00\x01trace")
        key = "ef" * 32
        store.put("trace", key, {"n": 1}, payloads={"trace.fact.gz": src})
        assert not src.exists()
        assert store.get_bytes("trace", key, "trace.fact.gz") == b"\x00\x01trace"

    def test_duplicate_publish_keeps_first(self, store):
        key = "aa" * 32
        store.put("sim", key, {"version": 1})
        store.put("sim", key, {"version": 2})
        assert store.get_meta("sim", key) == {"version": 1}

    def test_missing_payload_is_none(self, store):
        key = "bb" * 32
        store.put("sim", key, {})
        assert store.payload_path("sim", key, "nope.bin") is None
        assert store.get_bytes("sim", key, "nope.bin") is None

    def test_scratch_is_on_store_filesystem(self, store):
        scratch = store.scratch("work.tmp")
        assert str(scratch).startswith(str(store.root))


class TestEnumeration:
    def test_ls_and_stats(self, store):
        store.put("build", "10" * 32, {"crc": 1})
        store.put_json("sim", "20" * 32, {"c": 1}, meta={})
        infos = store.ls()
        assert [(i.kind, i.key) for i in infos] == [
            ("build", "10" * 32), ("sim", "20" * 32)]
        assert all(i.size > 0 for i in infos)
        stats = store.stats()
        assert stats["total"]["count"] == 2
        assert set(stats["kinds"]) == {"build", "sim"}

    def test_empty_store(self, store):
        assert store.ls() == []
        assert store.stats()["total"] == {"count": 0, "bytes": 0}


class TestGc:
    def test_clear_removes_everything(self, store):
        store.put("build", "10" * 32, {})
        store.put("sim", "20" * 32, {})
        evicted, freed = store.gc(clear=True)
        assert evicted == 2 and freed > 0
        assert store.ls() == []

    def test_clear_removes_kinds_no_longer_written(self, store):
        # earlier versions also stored a "coltrace" kind; a store they
        # filled must still empty completely
        store.put("coltrace", "30" * 32, {}, payloads={"trace.facl": b"x"})
        store.put("trace", "40" * 32, {})
        assert store.gc(clear=True)[0] == 2
        assert not any((store.root / "objects").glob("*/*/*/*"))

    def test_lru_eviction_order(self, store):
        for index, key in enumerate(("aa" * 32, "bb" * 32, "cc" * 32)):
            store.put("sim", key, {"i": index})
        # pin explicit mtimes: aa oldest, cc newest
        for age, key in ((300, "aa" * 32), (200, "bb" * 32), (100, "cc" * 32)):
            meta = store._object_dir("sim", key) / "meta.json"
            os.utime(meta, (meta.stat().st_mtime - age,) * 2)
        # a read touches bb, making aa then cc the eviction order
        store.get_meta("sim", "bb" * 32)
        sizes = {info.key: info.size for info in store.ls()}
        total = sum(sizes.values())
        evicted, freed = store.gc(max_bytes=total - 1)
        assert evicted == 1 and freed == sizes["aa" * 32]
        assert not store.has("sim", "aa" * 32)
        evicted, _ = store.gc(max_bytes=sizes["bb" * 32])
        assert evicted == 1
        assert not store.has("sim", "cc" * 32)
        assert store.has("sim", "bb" * 32)

    def test_gc_without_bound_is_noop(self, store):
        store.put("sim", "dd" * 32, {})
        assert store.gc() == (0, 0)
        assert store.has("sim", "dd" * 32)

    def test_gc_empties_staging(self, store):
        staged = store.scratch("leftover")
        staged.parent.mkdir(parents=True, exist_ok=True)
        staged.write_bytes(b"junk")
        store.gc()
        assert not staged.exists()


class TestSharding:
    def test_objects_land_in_two_level_shards(self, store):
        key = "ab" + "cd" + "99" * 30
        store.put("sim", key, {"i": 0})
        home = store.root / "objects" / "sim" / "ab" / "cd" / key
        assert (home / "meta.json").is_file()

    def test_short_keys_use_placeholder_shards(self, store):
        store.put("sim", "ab", {"i": 0})
        home = store.root / "objects" / "sim" / "ab" / "__" / "ab"
        assert (home / "meta.json").is_file()

    def test_legacy_single_level_artifacts_are_misses(self, store):
        # an artifact at the pre-sharding location is not read: the
        # farm recomputes it into the sharded layout
        key = "fe" * 32
        legacy = store.root / "objects" / "sim" / key[:2] / key
        legacy.mkdir(parents=True)
        (legacy / "meta.json").write_text(json.dumps({"vintage": True}))
        assert not store.has("sim", key)
        assert store.get_meta("sim", key) is None
        assert store.ls() == []
        store.put("sim", key, {"vintage": False})
        assert store.get_meta("sim", key) == {"vintage": False}

    def test_shard_stats(self, store):
        for key in ("ab" * 32, "ac" + "aa" * 31, "ba" * 32):
            store.put("sim", key, {})
        stats = store.shard_stats()
        assert stats["levels"] == 2
        sim = stats["kinds"]["sim"]
        assert sim["objects"] == 3
        assert sim["shards"] == 3
        assert sim["max_per_shard"] == 1


class TestPinning:
    def test_pinned_artifacts_survive_clear(self, store):
        store.put("sim", "aa" * 32, {})
        store.put("sim", "bb" * 32, {})
        store.pin("sim", "aa" * 32)
        evicted, _ = store.gc(clear=True)
        assert evicted == 1
        assert store.has("sim", "aa" * 32)
        assert not store.has("sim", "bb" * 32)

    def test_pinned_artifacts_survive_budget_gc(self, store):
        store.put("sim", "aa" * 32, {})
        store.put("sim", "bb" * 32, {})
        store.pin("sim", "aa" * 32)
        evicted, _ = store.gc(max_bytes=1)
        assert evicted == 1
        assert store.has("sim", "aa" * 32)

    def test_unpin_releases(self, store):
        store.put("sim", "aa" * 32, {})
        store.pin("sim", "aa" * 32)
        assert store.pinned("sim", "aa" * 32)
        store.unpin("sim", "aa" * 32)
        assert not store.pinned("sim", "aa" * 32)
        evicted, _ = store.gc(max_bytes=1)
        assert evicted == 1

    def test_unpin_without_pin_is_noop(self, store):
        store.unpin("sim", "cc" * 32)  # must not raise


class TestEnvironment:
    def test_env_dir_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_DIR, "/somewhere/else")
        assert str(default_store_root()) == "/somewhere/else"

    def test_xdg_cache_home_fallback(self, monkeypatch):
        monkeypatch.delenv(ENV_DIR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "/home/u/.cache")
        assert str(default_store_root()) == "/home/u/.cache/repro-farm"

    def test_cwd_default(self, monkeypatch):
        monkeypatch.delenv(ENV_DIR, raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert str(default_store_root()) == ".repro-farm"

    @pytest.mark.parametrize("value,enabled", [
        ("", True), ("on", True), ("1", True),
        ("off", False), ("0", False), ("disabled", False), ("NO", False),
    ])
    def test_toggle(self, monkeypatch, value, enabled):
        monkeypatch.setenv(ENV_TOGGLE, value)
        assert store_enabled() is enabled


class TestRunSummaries:
    def test_last_run_roundtrip(self, store):
        assert store.read_last_run() is None
        store.write_last_run({"total": 3, "hits": 1})
        assert store.read_last_run() == {"total": 3, "hits": 1}


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("1024", 1024),
        ("4K", 4096),
        ("4k", 4096),
        ("1M", 1024 ** 2),
        ("1.5M", int(1.5 * 1024 ** 2)),
        ("2G", 2 * 1024 ** 3),
        (" 10m ", 10 * 1024 ** 2),
    ])
    def test_sizes(self, text, expected):
        assert parse_size(text) == expected

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_size("lots")
