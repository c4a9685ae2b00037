"""Unit tests of the tuning-cache store layer.

Store behaviour (round-trip, insertion-order scan, prune, stats identity)
runs parametrized over every spelling of a location (``.json`` path,
``dir:``, ``log:``) — all of them the one append log; the log's compaction
and crash recovery, and the one-shot import of caches written in the older
layouts each get their own sections.
"""

from __future__ import annotations

import json
import multiprocessing
import sys

import pytest

from repro.autotune import TuningCache, autotune, open_store
from repro.autotune.space import SpaceOptions
from repro.autotune.store import (
    CACHE_VERSION,
    AppendLogStore,
    MemoryStore,
    parse_store_uri,
)
from repro.kernels import build_matmul_program

BACKENDS = ("json", "dir", "log")

SMALL_SPACE = SpaceOptions(
    thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
)


def store_spec(backend: str, tmp_path) -> str:
    """A store URI of the requested spelling rooted under ``tmp_path``."""
    return {
        "json": str(tmp_path / "cache.json"),
        "dir": f"dir:{tmp_path / 'cache-dir'}",
        "log": f"log:{tmp_path / 'cache.log'}",
    }[backend]


# -- URI parsing -------------------------------------------------------------------
class TestStoreUris:
    def test_explicit_schemes(self, tmp_path):
        assert parse_store_uri("json:x.bin") == ("json", "x.bin")
        assert parse_store_uri("dir:/var/cache") == ("dir", "/var/cache")
        assert parse_store_uri("log:/var/cache.jsonl") == ("log", "/var/cache.jsonl")
        assert parse_store_uri("mem:") == ("memory", None)
        assert parse_store_uri(None) == ("memory", None)

    def test_auto_detection(self, tmp_path):
        assert parse_store_uri("cache.json") == ("json", "cache.json")
        assert parse_store_uri("cache.jsonl") == ("log", "cache.jsonl")
        assert parse_store_uri("cache.log") == ("log", "cache.log")
        assert parse_store_uri("cache-dir/") == ("dir", "cache-dir")
        existing = tmp_path / "already-there"
        existing.mkdir()
        assert parse_store_uri(str(existing)) == ("dir", str(existing))

    def test_unknown_scheme_is_an_error_not_a_filename(self):
        with pytest.raises(ValueError, match="unknown cache store scheme"):
            parse_store_uri("bogus:whatever")
        with pytest.raises(ValueError, match="unknown cache store scheme"):
            parse_store_uri("s3:bucket/cache")  # digits don't dodge the guard
        with pytest.raises(ValueError, match="missing a path"):
            parse_store_uri("dir:")
        # single-letter prefixes stay paths (Windows drive letters)
        assert parse_store_uri("C:\\cache.json")[0] == "json"

    def test_every_spelling_opens_the_log_at_its_location(self, tmp_path):
        assert isinstance(open_store(None), MemoryStore)
        assert isinstance(open_store("mem:"), MemoryStore)
        for spec, location in [
            (str(tmp_path / "c.json"), tmp_path / "c.json"),
            (f"json:{tmp_path / 'c.bin'}", tmp_path / "c.bin"),
            (f"dir:{tmp_path / 'd'}", tmp_path / "d" / "cache.log"),
            (f"{tmp_path / 'e'}/", tmp_path / "e" / "cache.log"),
            (f"log:{tmp_path / 'c.log'}", tmp_path / "c.log"),
            (str(tmp_path / "c.jsonl"), tmp_path / "c.jsonl"),
        ]:
            store = open_store(spec)
            assert isinstance(store, AppendLogStore)
            assert store.path == location
            assert store.uri == f"log:{location}"

    def test_uri_round_trips_every_spelling(self, tmp_path):
        for backend in BACKENDS:
            spec = store_spec(backend, tmp_path)
            cache = TuningCache(spec)
            cache.put("k", {"v": 1})
            reopened = TuningCache(cache.uri)
            assert reopened.backend == cache.backend == "log"
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
        assert stats["backend"] == "log"
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["compactions"] == 0

    def test_autotune_warm_hit_through_backend(self, backend, tmp_path):
        """Every spelling serves the second identical request with zero compiles."""
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

    def test_late_writer_cannot_resurrect_pruned_entries(self, backend, tmp_path):
        """In-process: load → prune through another instance → put."""
        path = store_spec(backend, tmp_path)
        seed = TuningCache(path)
        for i in range(5):
            seed.put(f"k{i}", {"v": i})
        late_writer = TuningCache(path)  # mirror holds k0..k4
        assert TuningCache(path).prune(2) == 3
        late_writer.put("k5", {"v": 5})  # a rewrite of its mirror would resurrect k0-k2
        final = TuningCache(path)
        assert [k for k, _ in final.scan()] == ["k3", "k4", "k5"]
        # the writer's own mirror converged with the prune
        assert late_writer.peek("k0") is None


# -- append log: compaction + recovery ---------------------------------------------
class SmallThresholdLog(AppendLogStore):
    """The append log with a growth trigger a few hundred puts reach."""

    COMPACT_BYTES = 512
    COMPACT_RATIO = 2


class TestAppendLogStore:
    def test_high_churn_triggers_auto_compaction(self, tmp_path):
        store = SmallThresholdLog(tmp_path / "churn.log")
        for i in range(300):
            store.put(f"k{i % 4}", {"v": i})
        stats = store.stats()
        assert stats["compactions"] >= 1
        assert stats["entries"] == 4
        # the log stays bounded instead of growing by one line per put
        assert stats["bytes"] < 2048
        assert dict(store.scan())["k3"] == {"v": 299}
        # compaction rewrites the one file in place: nothing else is left
        assert sorted(p.name for p in tmp_path.iterdir()) == ["churn.log", "churn.log.lock"]

    def test_distinct_keys_past_the_threshold_never_rewrite(self, tmp_path):
        """Tuning traffic puts each fingerprint once: no put makes a dead
        record, so a log past ``COMPACT_BYTES`` keeps appending in O(1)."""
        path = tmp_path / "unique.log"
        store = AppendLogStore(path)
        store.put("k0", {"v": 0})
        inode = path.stat().st_ino
        padding = "x" * (AppendLogStore.COMPACT_BYTES // 8)
        for i in range(1, 10):
            store.put(f"k{i}", {"pad": padding})
        stats = store.stats()
        assert stats["bytes"] > AppendLogStore.COMPACT_BYTES
        assert stats["compactions"] == stats["dead_records"] == 0
        assert path.stat().st_ino == inode
        assert len(AppendLogStore(path)) == 10

    def test_rewrite_waits_for_the_dead_record_ratio(self, tmp_path):
        """Past ``COMPACT_BYTES``, the put that brings dead records to
        ``COMPACT_RATIO`` times the live entries rewrites; none before it."""
        path = tmp_path / "ratio.log"
        store = SmallThresholdLog(path)
        padding = "x" * SmallThresholdLog.COMPACT_BYTES
        for i in range(4):
            store.put(f"k{i}", {"pad": padding})
        due = SmallThresholdLog.COMPACT_RATIO * 4
        for i in range(due - 1):
            store.put("k0", {"v": i})
        stats = store.stats()
        assert stats["compactions"] == 0
        assert stats["dead_records"] == due - 1
        store.put("k0", {"v": "due"})
        stats = store.stats()
        assert stats["compactions"] == 1
        assert stats["dead_records"] == 0
        assert log_keys(path) == ["k0", "k1", "k2", "k3"]
        assert dict(SmallThresholdLog(path).scan())["k0"] == {"v": "due"}

    def test_a_log_under_the_size_gate_is_not_rewritten(self, tmp_path):
        """However many dead records it holds, a log smaller than
        ``COMPACT_BYTES`` keeps appending: rewriting it would save little."""
        path = tmp_path / "small.log"
        store = SmallThresholdLog(path)
        for i in range(8):
            store.put("k", {"v": i})
        stats = store.stats()
        assert stats["bytes"] < SmallThresholdLog.COMPACT_BYTES
        assert stats["dead_records"] == 7
        assert stats["compactions"] == 0
        assert log_keys(path) == ["k"] * 8

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


# -- legacy import -----------------------------------------------------------------
LEGACY = [
    ("zz-first", {"report": {"best": 1.5}, "seed": 0}),
    ("aa-second", {"report": {"best": 0.5}, "seed": 7}),
    ("mm-third", {"nested": {"deep": [1, 2, 3]}}),
]


def write_document(path, entries, tombstones=(), version=CACHE_VERSION):
    """A cache document as the single-file format of earlier versions wrote it."""
    payload = {"version": version, "entries": dict(entries)}
    if tombstones:
        payload["tombstones"] = {key: 1 for key in tombstones}
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")


def write_entry_files(root, entries):
    """``(key, seq, value)`` triples as the per-entry files of earlier versions."""
    import hashlib

    root.mkdir(parents=True, exist_ok=True)
    (root / "store.json").write_text('{"format": "repro-sharded-store", "version": 1}')
    for key, seq, value in entries:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        (root / digest[:2]).mkdir(exist_ok=True)
        (root / digest[:2] / f"{digest}.json").write_text(
            json.dumps({"key": key, "seq": seq, "value": value})
        )


def write_rotated_log(path, entries):
    """Three ``entries`` as a log that earlier versions rotated: the first
    (put twice) and the second in sealed segments, the third active."""
    (first, one), (second, two), (third, three) = entries
    lines = [
        json.dumps({"op": "put", "key": key, "value": value})
        for key, value in [(first, {"stale": True}), (first, one), (second, two), (third, three)]
    ]
    path.with_name(path.name + ".000001.seg").write_text(lines[0] + "\n" + lines[1] + "\n")
    path.with_name(path.name + ".000002.seg").write_text(lines[2])  # sealed unterminated
    path.write_text(lines[3] + "\n")


def log_keys(path):
    """The key of every put line in the log at ``path``, duplicates included."""
    return [json.loads(line)["key"] for line in path.read_text().splitlines()]


def _open_and_put(spec: str, index: int, barrier) -> None:
    barrier.wait(timeout=30)  # every process opens the unconverted document at once
    TuningCache(spec).put(f"proc-{index}", {"v": index})


class TestLegacyImport:
    @pytest.mark.parametrize("name, spec", [
        ("cache.json", "{}"), ("cache.bin", "json:{}"), ("cache.db", "{}"),
    ])
    def test_document_is_rewritten_in_place_as_put_lines(self, tmp_path, name, spec):
        path = tmp_path / name
        write_document(path, LEGACY, tombstones=["gone"])
        store = open_store(spec.format(path))
        assert list(store.scan()) == LEGACY
        assert "gone" not in store
        assert log_keys(path) == [key for key, _ in LEGACY]
        assert store.stats()["dead_records"] == 0

    def test_reopening_an_imported_document_imports_nothing(self, tmp_path):
        path = tmp_path / "cache.json"
        write_document(path, LEGACY)
        TuningCache(str(path)).put("after", {"v": 1})
        imported = path.read_bytes()
        for _ in range(2):
            reopened = TuningCache(f"json:{path}")
            assert [k for k, _ in reopened.scan()] == [k for k, _ in LEGACY] + ["after"]
        assert path.read_bytes() == imported

    def test_version1_and_corrupt_documents_read_cold(self, tmp_path):
        old = tmp_path / "v1.json"
        write_document(old, LEGACY, version=1)
        assert len(open_store(str(old))) == 0
        torn = tmp_path / "torn.json"
        torn.write_text('{"version": 2, "entries": {"k"')
        cache = TuningCache(str(torn))
        assert len(cache) == 0
        cache.put("fresh", {"v": 1})  # the torn bytes become one skipped line
        assert dict(TuningCache(str(torn)).scan()) == {"fresh": {"v": 1}}

    def test_entry_files_fold_into_the_dir_log_in_seq_order(self, tmp_path):
        root = tmp_path / "cache-dir"
        write_entry_files(
            root, [("b-key", 30, {"v": "b"}), ("c-key", 10, {"v": "c"}), ("a-key", 20, {"v": "a"})]
        )
        shard_bytes = {p: p.read_bytes() for p in root.rglob("*.json")}
        store = open_store(f"dir:{root}")
        assert [k for k, _ in store.scan()] == ["c-key", "a-key", "b-key"]
        assert store.get("a-key") == {"v": "a"}
        assert log_keys(root / "cache.log") == ["c-key", "a-key", "b-key"]
        assert {p: p.read_bytes() for p in root.rglob("*.json")} == shard_bytes

    def test_unreadable_entry_files_are_skipped(self, tmp_path):
        root = tmp_path / "cache-dir"
        write_entry_files(root, [("a-key", 1, {"v": "a"}), ("b-key", 2, {"v": "b"})])
        (root / "ff").mkdir()
        (root / "ff" / "torn.json").write_text('{"key": "torn", "seq": 3, "val')
        (root / "ff" / "keyless.json").write_text('{"seq": 4, "value": {"v": 4}}')
        assert dict(open_store(f"dir:{root}").scan()) == {"a-key": {"v": "a"}, "b-key": {"v": "b"}}

    def test_reopening_an_imported_dir_imports_nothing(self, tmp_path):
        root = tmp_path / "cache-dir"
        write_entry_files(root, [("a-key", 1, {"v": "a"}), ("b-key", 2, {"v": "b"})])
        TuningCache(f"dir:{root}").prune(1)
        for spec in (f"dir:{root}", f"{root}/", str(root)):
            assert [k for k, _ in TuningCache(spec).scan()] == ["b-key"]
        TuningCache(f"dir:{root}").clear()
        assert len(TuningCache(f"dir:{root}")) == 0  # the entry files stay history

    @staticmethod
    def race_four_openers(spec, path):
        """Four processes open ``spec`` at once and put one key each; the
        log at ``path`` holds the converted entries once, first, then every put."""
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(4)
        procs = [ctx.Process(target=_open_and_put, args=(spec, i, barrier)) for i in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        keys = log_keys(path)
        assert keys[:3] == [key for key, _ in LEGACY]  # converted once, first
        assert sorted(keys[3:]) == [f"proc-{i}" for i in range(4)]  # no put lost
        assert dict(TuningCache(spec).scan()) == {
            **dict(LEGACY), **{f"proc-{i}": {"v": i} for i in range(4)}
        }

    @pytest.mark.skipif(sys.platform == "win32", reason="fork start method is POSIX-only")
    def test_processes_racing_to_open_a_document_convert_it_once(self, tmp_path):
        path = tmp_path / "cache.json"
        write_document(path, LEGACY)
        self.race_four_openers(str(path), path)

    @pytest.mark.skipif(sys.platform == "win32", reason="fork start method is POSIX-only")
    def test_processes_racing_to_open_a_rotated_log_convert_it_once(self, tmp_path):
        path = tmp_path / "cache.log"
        write_rotated_log(path, LEGACY)
        self.race_four_openers(f"log:{path}", path)
        assert not list(tmp_path.glob("*.seg"))

    def test_segments_fold_in_name_order_then_the_log(self, tmp_path):
        path = tmp_path / "cache.log"

        def write(suffix, puts):
            target = path.with_name(path.name + suffix) if suffix else path
            target.write_text("".join(
                json.dumps({"op": "put", "key": key, "value": {"v": v}}) + "\n"
                for key, v in puts
            ))

        write(".000010.seg", [("b", 10), ("c", 10)])  # written first, named last
        write(".000001.seg", [("a", 1), ("b", 1)])
        write(".000002.seg", [("a", 2)])
        write("", [("c", "active")])
        store = open_store(f"log:{path}")
        assert list(store.scan()) == [("a", {"v": 2}), ("b", {"v": 10}), ("c", {"v": "active"})]
        assert log_keys(path) == ["a", "b", "c"]
        assert not list(tmp_path.glob("*.seg"))

    def test_segments_left_by_a_crash_refold_under_later_puts(self, tmp_path):
        """A crash after the import's rewrite but before its unlinks leaves
        the segments: the next open folds them again, and every put made to
        the imported log still wins over them."""
        path = tmp_path / "cache.log"
        write_rotated_log(path, LEGACY)
        segments = {p: p.read_bytes() for p in tmp_path.glob("*.seg")}
        first = LEGACY[0][0]
        open_store(f"log:{path}").put(first, {"v": "later"})
        for segment, data in segments.items():
            segment.write_bytes(data)
        reopened = open_store(f"log:{path}")
        assert dict(reopened.scan()) == {**dict(LEGACY), first: {"v": "later"}}
        assert not list(tmp_path.glob("*.seg"))
        assert reopened.stats()["dead_records"] == 0


# -- CLI -------------------------------------------------------------------------
class TestCacheTools:
    def test_cli_cache_tools_accept_uris(self, tmp_path, capsys):
        from repro.autotune.cli import main as cli_main

        spec = f"dir:{tmp_path / 'store'}"
        cache = TuningCache(spec)
        for i in range(3):
            cache.put(f"k{i}", {"v": i})
        assert cli_main(["cache-stats", "--cache", spec]) == 0
        out = capsys.readouterr().out
        assert "backend: log" in out
        assert "entries: 3" in out
        assert "compactions:" in out
        assert cli_main(["cache-prune", "--cache", spec, "--max-entries", "1"]) == 0
        assert "pruned 2 entries" in capsys.readouterr().out
        assert cli_main(["cache-stats", "--cache", "bogus:x"]) == 2
        assert "unknown cache store scheme" in capsys.readouterr().err

    def test_cli_prunes_an_older_format_document(self, tmp_path, capsys):
        from repro.autotune.cli import main as cli_main

        path = tmp_path / "cache.json"
        write_document(path, LEGACY)
        assert cli_main(["cache-prune", "--cache", str(path), "--max-entries", "1"]) == 0
        assert "pruned 2 entries" in capsys.readouterr().out
        assert log_keys(path) == ["mm-third"]


# -- facade ------------------------------------------------------------------------
class TestFacadeOverBackends:
    def test_memory_cache_has_memory_backend(self):
        cache = TuningCache()
        assert cache.backend == "memory"
        assert cache.uri is None and cache.path is None
        cache.put("k", {"v": 1})
        assert cache.stats()["backend"] == "memory"
        assert cache.stats()["entries"] == 1
