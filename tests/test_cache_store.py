"""Unit tests of the pluggable tuning-cache store layer.

Backend-generic behaviour (round-trip, insertion-order scan, prune, stats
identity) runs parametrized over every backend; the backend-specific
guarantees — the JSON store's tombstones, the sharded store's O(1) puts, the
append log's compaction and crash recovery — and the cross-backend migration
tool each get their own sections.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.autotune import TuningCache, autotune, migrate_store, open_store
from repro.autotune.space import SpaceOptions
from repro.autotune.store import (
    AppendLogStore,
    JsonFileStore,
    MemoryStore,
    ShardedStore,
    parse_store_uri,
)
from repro.kernels import build_matmul_program

BACKENDS = ("json", "sharded", "log")

SMALL_SPACE = SpaceOptions(
    thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
)


def store_spec(backend: str, tmp_path) -> str:
    """A store URI of the requested backend rooted under ``tmp_path``."""
    return {
        "json": str(tmp_path / "cache.json"),
        "sharded": f"dir:{tmp_path / 'cache-dir'}",
        "log": f"log:{tmp_path / 'cache.log'}",
    }[backend]


# -- URI parsing -------------------------------------------------------------------
class TestStoreUris:
    def test_explicit_schemes(self, tmp_path):
        assert parse_store_uri("json:x.bin") == ("json", "x.bin")
        assert parse_store_uri("dir:/var/cache") == ("sharded", "/var/cache")
        assert parse_store_uri("log:/var/cache.jsonl") == ("log", "/var/cache.jsonl")
        assert parse_store_uri("mem:") == ("memory", None)
        assert parse_store_uri(None) == ("memory", None)

    def test_auto_detection(self, tmp_path):
        assert parse_store_uri("cache.json") == ("json", "cache.json")
        assert parse_store_uri("cache.jsonl") == ("log", "cache.jsonl")
        assert parse_store_uri("cache.log") == ("log", "cache.log")
        assert parse_store_uri("cache-dir/") == ("sharded", "cache-dir")
        existing = tmp_path / "already-there"
        existing.mkdir()
        assert parse_store_uri(str(existing)) == ("sharded", str(existing))

    def test_unknown_scheme_is_an_error_not_a_filename(self):
        with pytest.raises(ValueError, match="unknown cache store scheme"):
            parse_store_uri("bogus:whatever")
        with pytest.raises(ValueError, match="unknown cache store scheme"):
            parse_store_uri("s3:bucket/cache")  # digits don't dodge the guard
        with pytest.raises(ValueError, match="missing a path"):
            parse_store_uri("dir:")
        # single-letter prefixes stay paths (Windows drive letters)
        assert parse_store_uri("C:\\cache.json")[0] == "json"

    def test_open_store_dispatches(self, tmp_path):
        assert isinstance(open_store(None), MemoryStore)
        assert isinstance(open_store(str(tmp_path / "c.json")), JsonFileStore)
        assert isinstance(open_store(f"dir:{tmp_path / 'd'}"), ShardedStore)
        assert isinstance(open_store(f"log:{tmp_path / 'c.log'}"), AppendLogStore)

    def test_uri_round_trips_every_backend(self, tmp_path):
        for backend in BACKENDS:
            spec = store_spec(backend, tmp_path)
            cache = TuningCache(spec)
            cache.put("k", {"v": 1})
            reopened = TuningCache(cache.uri)
            assert reopened.backend == cache.backend == (
                "sharded" if backend == "sharded" else backend
            )
            assert reopened.peek("k") == {"v": 1}


# -- backend-generic behaviour -----------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestEveryBackend:
    def test_round_trip_and_persistence(self, backend, tmp_path):
        spec = store_spec(backend, tmp_path)
        cache = TuningCache(spec)
        for i in range(4):
            cache.put(f"key-{i}", {"v": i})
        assert len(cache) == 4
        assert "key-2" in cache and "missing" not in cache
        assert cache.get("key-2") == {"v": 2}
        assert cache.get("missing") is None
        assert cache.hits == 1 and cache.misses == 1
        warm = TuningCache(spec)
        assert warm.peek("key-3") == {"v": 3}
        assert len(warm) == 4

    def test_scan_preserves_insertion_order(self, backend, tmp_path):
        cache = TuningCache(store_spec(backend, tmp_path))
        cache.put("zz-oldest", {"v": 0})
        cache.put("aa-middle", {"v": 1})
        cache.put("mm-newest", {"v": 2})
        # re-putting an existing key must not refresh its position
        cache.put("zz-oldest", {"v": 3})
        assert [k for k, _ in cache.scan()] == ["zz-oldest", "aa-middle", "mm-newest"]
        reopened = TuningCache(store_spec(backend, tmp_path))
        assert [k for k, _ in reopened.scan()] == ["zz-oldest", "aa-middle", "mm-newest"]

    def test_prune_drops_oldest_and_sticks(self, backend, tmp_path):
        spec = store_spec(backend, tmp_path)
        cache = TuningCache(spec)
        for i in range(5):
            cache.put(f"k{i}", {"v": i})
        assert cache.prune(2) == 3
        assert cache.prune(2) == 0
        reloaded = TuningCache(spec)
        assert [k for k, _ in reloaded.scan()] == ["k3", "k4"]
        with pytest.raises(ValueError):
            cache.prune(-1)

    def test_clear_empties_the_store(self, backend, tmp_path):
        spec = store_spec(backend, tmp_path)
        cache = TuningCache(spec)
        cache.put("k", {"v": 1})
        cache.clear()
        assert len(cache) == 0
        assert len(TuningCache(spec)) == 0

    def test_stats_identify_the_backend(self, backend, tmp_path):
        cache = TuningCache(store_spec(backend, tmp_path))
        cache.put("k", {"v": 1})
        stats = cache.stats()
        expected = "sharded" if backend == "sharded" else backend
        assert stats["backend"] == expected
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["hits"] == 0 and stats["misses"] == 0
        if backend == "sharded":
            assert stats["shards"] == 1
        if backend == "log":
            assert stats["segments"] == 1
            assert stats["compactions"] == 0

    def test_autotune_warm_hit_through_backend(self, backend, tmp_path):
        """Every backend serves the second identical request with zero compiles."""
        from repro.compiler import counting_compiles

        spec = store_spec(backend, tmp_path)
        program = build_matmul_program(24, 24, 24)
        cold = autotune(program, space_options=SMALL_SPACE, cache=spec)
        assert not cold.from_cache
        with counting_compiles() as compiles:
            warm = autotune(program, space_options=SMALL_SPACE, cache=spec)
        assert warm.from_cache
        assert compiles.count == 0
        assert warm.best.to_dict() == cold.best.to_dict()


# -- JSON store: tombstones --------------------------------------------------------
class TestJsonTombstones:
    def test_concurrent_saver_cannot_resurrect_pruned_entries(self, tmp_path):
        """The ISSUE's race, in-process: load → prune elsewhere → save."""
        path = str(tmp_path / "cache.json")
        seed = TuningCache(path)
        for i in range(5):
            seed.put(f"k{i}", {"v": i})
        late_writer = TuningCache(path)  # mirror holds k0..k4
        assert TuningCache(path).prune(2) == 3
        late_writer.put("k5", {"v": 5})  # old code resurrected k0-k2 here
        final = TuningCache(path)
        assert [k for k, _ in final.scan()] == ["k3", "k4", "k5"]
        # the writer's own mirror converged with the prune
        assert late_writer.peek("k0") is None

    def test_re_put_after_prune_clears_the_tombstone(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = TuningCache(path)
        for i in range(3):
            cache.put(f"k{i}", {"v": i})
        cache.prune(1)
        assert cache.stats()["tombstones"] == 2
        cache.put("k0", {"v": "again"})  # deliberate re-insert wins
        assert cache.stats()["tombstones"] == 1
        assert TuningCache(path).peek("k0") == {"v": "again"}

    def test_compact_drops_tombstones(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = TuningCache(path)
        for i in range(4):
            cache.put(f"k{i}", {"v": i})
        cache.prune(2)
        before = cache.stats()
        assert before["tombstones"] == 2
        outcome = cache.compact()
        assert outcome["tombstones_removed"] == 2
        assert cache.stats()["tombstones"] == 0
        assert len(TuningCache(path)) == 2

    def test_tombstones_invisible_to_version2_readers(self, tmp_path):
        """The extra field keeps the file a valid version-2 document."""
        path = tmp_path / "cache.json"
        cache = TuningCache(str(path))
        for i in range(3):
            cache.put(f"k{i}", {"v": i})
        cache.prune(2)
        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        assert list(payload["entries"]) == ["k1", "k2"]
        assert list(payload["tombstones"]) == ["k0"]


# -- sharded store: O(1) puts ------------------------------------------------------
class TestShardedStore:
    def test_put_touches_no_other_entry_file(self, tmp_path):
        """Acceptance: a put never reads or rewrites other entries."""
        store = ShardedStore(tmp_path / "store")
        for i in range(16):
            store.put(f"key-{i}", {"v": i})
        snapshot = {
            path: (path.stat().st_mtime_ns, path.stat().st_size)
            for path in store._entry_files()
        }
        assert len(snapshot) == 16
        store.put("fresh-key", {"v": "new"})
        for path, (mtime, size) in snapshot.items():
            stat = path.stat()
            assert (stat.st_mtime_ns, stat.st_size) == (mtime, size), (
                f"put rewrote unrelated entry {path.name}"
            )

    def test_fanout_layout_and_meta(self, tmp_path):
        root = tmp_path / "store"
        store = ShardedStore(root)
        store.put("some-key", {"v": 1})
        assert (root / "store.json").exists()
        shards = [d for d in root.iterdir() if d.is_dir() and len(d.name) == 2]
        assert len(shards) == 1
        assert len(list(shards[0].glob("*.json"))) == 1

    def test_meta_version_mismatch_is_an_error(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "store.json").write_text(json.dumps({"version": 999}))
        with pytest.raises(ValueError, match="unsupported sharded-store layout"):
            ShardedStore(root)

    def test_compact_sweeps_empty_shards(self, tmp_path):
        store = ShardedStore(tmp_path / "store")
        for i in range(8):
            store.put(f"key-{i}", {"v": i})
        shards_before = sum(1 for _ in store._shard_dirs())
        store.prune(0)
        outcome = store.compact()
        assert outcome["empty_shards_removed"] == shards_before
        assert len(store) == 0

    def test_corrupt_entry_file_reads_as_miss(self, tmp_path):
        store = ShardedStore(tmp_path / "store")
        store.put("key", {"v": 1})
        entry_path = store._entry_path("key")
        entry_path.write_text("{ not json")
        assert store.get("key") is None
        assert list(store.scan()) == []


# -- append log: compaction + recovery ---------------------------------------------
class TestAppendLogStore:
    def test_high_churn_triggers_auto_compaction(self, tmp_path):
        store = AppendLogStore(
            tmp_path / "churn.log", auto_compact_bytes=512, auto_compact_ratio=2
        )
        for i in range(300):
            store.put(f"k{i % 4}", {"v": i})
        stats = store.stats()
        assert stats["compactions"] >= 1
        assert stats["entries"] == 4
        # the log stays bounded instead of growing by one line per put
        assert stats["bytes"] < 2048
        assert dict(store.scan())["k3"] == {"v": 299}

    def test_crash_truncated_tail_recovers(self, tmp_path):
        path = tmp_path / "crash.log"
        store = AppendLogStore(path)
        store.put("a", {"v": 1})
        store.put("b", {"v": 2})
        with open(path, "ab") as handle:
            handle.write(b'{"op":"put","key":"torn","value":{"v"')  # no newline
        recovered = AppendLogStore(path)
        assert dict(recovered.scan()) == {"a": {"v": 1}, "b": {"v": 2}}
        # appending after the crash terminates the torn line instead of fusing
        recovered.put("c", {"v": 3})
        reopened = AppendLogStore(path)
        assert dict(reopened.scan()) == {"a": {"v": 1}, "b": {"v": 2}, "c": {"v": 3}}
        assert reopened.stats()["corrupt_lines"] == 1

    def test_corrupt_middle_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "mid.log"
        lines = [
            json.dumps({"op": "put", "key": "a", "value": {"v": 1}}),
            "?? not json ??",
            json.dumps({"op": "put", "key": "b", "value": {"v": 2}}),
        ]
        path.write_text("".join(line + "\n" for line in lines))
        store = AppendLogStore(path)
        assert dict(store.scan()) == {"a": {"v": 1}, "b": {"v": 2}}
        assert store.stats()["corrupt_lines"] == 1

    def test_compaction_detected_by_other_instance(self, tmp_path):
        """A reader re-replays from scratch when the log inode changes."""
        path = tmp_path / "shared.log"
        writer = AppendLogStore(path)
        reader = AppendLogStore(path)
        for i in range(10):
            writer.put(f"k{i}", {"v": i})
        assert reader.get("k9") == {"v": 9}
        writer.prune(2)  # rewrites the log (new inode)
        assert reader.get("k9") == {"v": 9}  # still live
        # a key the prune dropped must go away once the reader resyncs
        writer.put("fresh", {"v": 42})
        assert reader.get("fresh") == {"v": 42}
        assert len(AppendLogStore(path)) == 3

    def test_explicit_compact_reports_reclaim(self, tmp_path):
        store = AppendLogStore(tmp_path / "c.log")
        for i in range(20):
            store.put("same-key", {"v": i})
        outcome = store.compact()
        assert outcome["bytes_after"] < outcome["bytes_before"]
        assert dict(store.scan()) == {"same-key": {"v": 19}}


# -- append log: sealed segments ---------------------------------------------------
class TestAppendLogSegments:
    def test_rotate_seals_the_active_file(self, tmp_path):
        path = tmp_path / "seg.log"
        store = AppendLogStore(path)
        for i in range(5):
            store.put(f"k{i}", {"v": i})
        segment = store.rotate()
        assert segment is not None and segment.exists()
        assert segment.name.endswith(".seg")
        # sealing moved bytes, not state: the store still serves everything
        assert store.get("k3") == {"v": 3}
        store.put("k5", {"v": 5})  # a fresh active file starts transparently
        stats = store.stats()
        assert stats["segments"] == 2
        assert stats["rotations"] == 1
        assert stats["entries"] == 6
        # a cold reader replays sealed segments then the active tail
        assert dict(AppendLogStore(path).scan()) == {
            f"k{i}": {"v": i} for i in range(6)
        }

    def test_rotate_with_nothing_to_seal_is_a_noop(self, tmp_path):
        store = AppendLogStore(tmp_path / "empty.log")
        assert store.rotate() is None
        assert store.stats()["rotations"] == 0

    def test_compact_sealed_folds_segments_without_touching_active(self, tmp_path):
        path = tmp_path / "fold.log"
        store = AppendLogStore(path)
        for round_no in range(3):
            for i in range(4):
                store.put(f"k{i}", {"v": round_no})
            store.rotate()
        store.put("active-only", {"v": 99})
        active_bytes_before = path.stat().st_size
        outcome = store.compact_sealed()
        assert outcome["segments_merged"] == 3
        assert outcome["bytes_after"] < outcome["bytes_before"]
        assert path.stat().st_size == active_bytes_before  # active untouched
        assert len(store._sealed_paths()) == 1
        # the fold is exact: replaying merged + active gives the same state
        assert dict(AppendLogStore(path).scan()) == {
            "k0": {"v": 2},
            "k1": {"v": 2},
            "k2": {"v": 2},
            "k3": {"v": 2},
            "active-only": {"v": 99},
        }

    def test_appends_proceed_while_sealed_compaction_holds_its_lock(self, tmp_path):
        """The ISSUE's liveness claim: compaction never blocks appends.

        A sealed-segment merge holds only the segment lock; here a simulated
        in-progress merge holds that lock for the whole test while a put on
        another thread must still complete.
        """
        import threading

        fcntl = pytest.importorskip("fcntl")
        path = tmp_path / "live.log"
        store = AppendLogStore(path)
        store.put("seed", {"v": 0})
        seg_lock = open(store._seg_lock_path(), "w")
        fcntl.flock(seg_lock, fcntl.LOCK_EX)  # a merge is "in progress"
        try:
            done = threading.Event()

            def writer():
                store.put("during-merge", {"v": 1})
                done.set()

            thread = threading.Thread(target=writer, daemon=True)
            thread.start()
            assert done.wait(timeout=10), "append blocked behind segment lock"
            thread.join(timeout=10)
        finally:
            fcntl.flock(seg_lock, fcntl.LOCK_UN)
            seg_lock.close()
        assert store.get("during-merge") == {"v": 1}

    def test_ingest_segment_fills_gaps_and_local_entries_win(self, tmp_path):
        source = AppendLogStore(tmp_path / "source.log")
        source.put("shared", {"v": "theirs"})
        source.put("only-remote", {"v": "shipped"})
        segment = source.rotate()
        target = AppendLogStore(tmp_path / "target.log")
        target.put("shared", {"v": "ours"})
        adopted = target.ingest_segment(segment)
        assert adopted == 1
        assert target.get("only-remote") == {"v": "shipped"}
        assert target.get("shared") == {"v": "ours"}  # local wins
        # durable: a cold reader of the target sees the ingested entry
        assert dict(AppendLogStore(tmp_path / "target.log").scan()) == {
            "shared": {"v": "ours"},
            "only-remote": {"v": "shipped"},
        }

    def test_full_compact_folds_sealed_segments_away(self, tmp_path):
        path = tmp_path / "full.log"
        store = AppendLogStore(path)
        for i in range(4):
            store.put(f"k{i}", {"v": i})
        store.rotate()
        store.put("k4", {"v": 4})
        store.compact()
        assert store._sealed_paths() == []
        assert store.stats()["segments"] == 1
        assert dict(AppendLogStore(path).scan()) == {
            f"k{i}": {"v": i} for i in range(5)
        }


# -- sharded store: stale sidecar-lock takeover ------------------------------------
class TestShardedStaleLockTakeover:
    def test_put_takes_over_a_stale_peer_lock(self, tmp_path):
        """A dead NFS peer's wedged sidecar lock is aged out, not waited on."""
        import os
        import threading

        fcntl = pytest.importorskip("fcntl")
        root = tmp_path / "store"
        seed = ShardedStore(root)
        seed.put("victim", {"v": 0})
        lock_path = seed._entry_path("victim").parent / ".lock"
        # a "dead peer": holds the flock forever, sidecar mtime long stale
        peer = open(lock_path, "a")
        fcntl.flock(peer, fcntl.LOCK_EX)
        old = 1.0  # 1970: anything older than any takeover threshold
        os.utime(lock_path, (old, old))
        try:
            store = ShardedStore(root, stale_after=0.2)
            done = threading.Event()

            def writer():
                store.put("victim", {"v": 1})
                done.set()

            thread = threading.Thread(target=writer, daemon=True)
            thread.start()
            assert done.wait(timeout=10), "put wedged behind a dead peer's lock"
            thread.join(timeout=10)
            assert store.get("victim") == {"v": 1}
            assert store.stats()["lock_takeovers"] >= 1
        finally:
            fcntl.flock(peer, fcntl.LOCK_UN)
            peer.close()

    def test_fresh_contention_is_waited_out_not_stolen(self, tmp_path):
        """A *live* holder (fresh mtime) is never taken over; the contender
        waits and proceeds only after the holder releases."""
        import threading
        import time

        fcntl = pytest.importorskip("fcntl")
        root = tmp_path / "store"
        seed = ShardedStore(root)
        seed.put("victim", {"v": 0})
        lock_path = seed._entry_path("victim").parent / ".lock"
        holder = open(lock_path, "a")
        fcntl.flock(holder, fcntl.LOCK_EX)  # mtime stays fresh: a live holder
        store = ShardedStore(root, stale_after=30.0)
        done = threading.Event()

        def writer():
            store.put("victim", {"v": 1})
            done.set()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        time.sleep(0.3)
        assert not done.is_set(), "live holder's lock was stolen"
        fcntl.flock(holder, fcntl.LOCK_UN)
        holder.close()
        assert done.wait(timeout=10)
        thread.join(timeout=10)
        assert store.stats()["lock_takeovers"] == 0


# -- migration ---------------------------------------------------------------------
class TestMigration:
    @pytest.fixture()
    def v2_fixture(self, tmp_path):
        """A legacy version-2 JSON cache with order-sensitive entries."""
        path = tmp_path / "legacy.json"
        cache = TuningCache(str(path))
        entries = [
            ("zz-first", {"report": {"best": 1.5}, "seed": 0}),
            ("aa-second", {"report": {"best": 0.5}, "seed": 7}),
            ("mm-third", {"nested": {"deep": [1, 2, 3]}}),
        ]
        for key, value in entries:
            cache.put(key, value)
        return str(path), entries

    @pytest.mark.parametrize("backend", ("sharded", "log"))
    def test_round_trip_preserves_content_and_order(self, backend, tmp_path, v2_fixture):
        src, entries = v2_fixture
        middle = store_spec(backend, tmp_path / "mid")
        back = str(tmp_path / "back.json")
        out = migrate_store(src, middle)
        assert out["entries"] == len(entries)
        assert migrate_store(middle, back)["entries"] == len(entries)
        # entry content round-trips exactly, insertion order included
        assert list(TuningCache(back).scan()) == entries
        assert list(TuningCache(src).scan()) == entries  # source untouched

    def test_sharded_to_log_direct(self, tmp_path):
        src = store_spec("sharded", tmp_path)
        dst = store_spec("log", tmp_path)
        cache = TuningCache(src)
        for i in range(5):
            cache.put(f"k{i}", {"v": i})
        assert migrate_store(src, dst)["entries"] == 5
        assert [k for k, _ in TuningCache(dst).scan()] == [f"k{i}" for i in range(5)]

    def test_refuses_nonempty_destination_without_force(self, tmp_path, v2_fixture):
        src, entries = v2_fixture
        dst = store_spec("sharded", tmp_path)
        TuningCache(dst).put("pre-existing", {"v": 0})
        with pytest.raises(ValueError, match="already holds"):
            migrate_store(src, dst)
        out = migrate_store(src, dst, force=True)
        assert out["entries"] == len(entries)
        assert "pre-existing" not in TuningCache(dst)

    def test_refuses_same_store(self, tmp_path, v2_fixture):
        src, _entries = v2_fixture
        with pytest.raises(ValueError, match="same store"):
            migrate_store(src, src)

    def test_refuses_same_store_behind_a_path_alias(self, tmp_path, v2_fixture, monkeypatch):
        """An aliased spelling of the source must not slip past the guard —
        with --force it would clear the source before 'migrating' nothing."""
        src, entries = v2_fixture
        monkeypatch.chdir(Path(src).parent)
        relative = Path(src).name
        aliased = f"json:./{relative}"
        with pytest.raises(ValueError, match="same store"):
            migrate_store(relative, aliased, force=True)
        assert len(TuningCache(src)) == len(entries)  # source untouched

    def test_cli_cache_migrate(self, tmp_path, v2_fixture, capsys):
        from repro.autotune.cli import main as cli_main

        src, entries = v2_fixture
        dst = f"dir:{tmp_path / 'migrated'}"
        assert cli_main(["cache-migrate", src, dst]) == 0
        out = capsys.readouterr().out
        assert f"migrated {len(entries)} entries" in out
        assert list(TuningCache(dst).scan()) == entries
        # a second run without --force refuses
        assert cli_main(["cache-migrate", src, dst]) == 2
        assert "already holds" in capsys.readouterr().err

    def test_cli_cache_tools_accept_uris(self, tmp_path, capsys):
        from repro.autotune.cli import main as cli_main

        spec = f"dir:{tmp_path / 'store'}"
        cache = TuningCache(spec)
        for i in range(3):
            cache.put(f"k{i}", {"v": i})
        assert cli_main(["cache-stats", "--cache", spec]) == 0
        out = capsys.readouterr().out
        assert "backend: sharded" in out
        assert "entries: 3" in out
        assert "shards:" in out
        assert cli_main(["cache-prune", "--cache", spec, "--max-entries", "1"]) == 0
        assert "pruned 2 entries" in capsys.readouterr().out
        assert cli_main(["cache-stats", "--cache", "bogus:x"]) == 2
        assert "unknown cache store scheme" in capsys.readouterr().err


# -- facade ------------------------------------------------------------------------
class TestFacadeOverBackends:
    def test_absorb_never_persists_on_any_backend(self, tmp_path):
        for backend in BACKENDS:
            spec = store_spec(backend, tmp_path / backend)
            cache = TuningCache(spec)
            cache.absorb("ghost", {"v": 1})
            assert cache.get("ghost") == {"v": 1}
            assert "ghost" not in TuningCache(spec)

    def test_memory_cache_has_memory_backend(self):
        cache = TuningCache()
        assert cache.backend == "memory"
        assert cache.uri is None and cache.path is None
        cache.put("k", {"v": 1})
        assert cache.stats()["backend"] == "memory"
        assert cache.stats()["entries"] == 1
