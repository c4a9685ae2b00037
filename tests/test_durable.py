"""Tests of ``repro.utils.durable`` — the one crash-safe file primitive.

Only what no client-level suite already covers (``test_cache_store.py``,
``test_cache_concurrency.py`` and ``test_history.py`` exercise locking,
compaction, rotation of the history file and recovery *through* the stores): the scanner's and appender's
own contracts, temp-file cleanup, stale-lock takeover, the on-disk
compatibility of every client with files written before the primitive
existed, and the layering that keeps the primitive at the bottom of the
package.
"""

from __future__ import annotations

import ast
import json
import shutil
import sys
import threading
from pathlib import Path

import pytest

from repro.autotune import autotune
from repro.autotune.space import SpaceOptions
from repro.autotune.store import AppendLogStore, open_store
from repro.telemetry.history import HistoryRecord, HistoryStore
from repro.utils.durable import append_jsonl, atomic_install, file_lock, scan_jsonl

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "durable_parent"


class TestJsonl:
    def test_scan_leaves_an_unterminated_tail_unconsumed(self):
        complete = b'{"a":1}\n\n  {"b":2}  \n'
        records, corrupt, consumed = scan_jsonl(complete + b'{"c":')
        assert records == [{"a": 1}, {"b": 2}]
        assert (corrupt, consumed) == (0, len(complete))
        # nothing terminated yet: nothing consumed, nothing counted
        assert scan_jsonl(b'{"c":') == ([], 0, 0)
        # a whole-file reader terminates the tail itself so the last line counts
        assert scan_jsonl(b'{"c":3}' + b"\n") == ([{"c": 3}], 0, 8)

    def test_scan_counts_undecodable_and_non_object_lines(self):
        chunk = b'{"ok":1}\nnot json\n[1,2]\n"text"\n\xff\xfe\n{"ok":2}\n'
        records, corrupt, consumed = scan_jsonl(chunk)
        assert records == [{"ok": 1}, {"ok": 2}]
        assert corrupt == 4
        assert consumed == len(chunk)

    def test_append_after_a_torn_tail_keeps_it_one_skippable_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        size = append_jsonl(path, [{"n": 1}])
        assert size == path.stat().st_size == len(b'{"n":1}\n')
        with open(path, "ab") as handle:
            handle.write(b'{"n":')  # the writer died here
        size = append_jsonl(path, [{"n": 2}, {"n": 3}])
        data = path.read_bytes()
        assert data == b'{"n":1}\n{"n":\n{"n":2}\n{"n":3}\n'
        assert size == len(data)
        assert scan_jsonl(data) == ([{"n": 1}, {"n": 2}, {"n": 3}], 1, len(data))


class TestAtomicInstall:
    def test_failure_removes_the_temp_file_and_keeps_the_target(self, tmp_path):
        target = tmp_path / "sub" / "entry.json"
        atomic_install(target, lambda temp: temp.write_text("old"))

        def explode(temp: Path) -> None:
            temp.write_text("half-writ")
            raise KeyboardInterrupt  # even a non-Exception must not leak the temp

        with pytest.raises(KeyboardInterrupt):
            atomic_install(target, explode)
        assert target.read_text() == "old"
        assert [child.name for child in target.parent.iterdir()] == ["entry.json"]


class TestFilesWrittenBeforeThePrimitive:
    """``fixtures/durable_parent`` holds a ``log:``, ``dir:`` and ``.json``
    cache and a history file written by the last commit that had its own
    copies of the locking/append/replace code (``make_fixture.py`` there is
    the script), plus what *that* commit read back from them."""

    @pytest.fixture()
    def frozen(self, tmp_path):
        shutil.copytree(FIXTURE, tmp_path / "frozen")
        return tmp_path / "frozen", json.loads((FIXTURE / "expected.json").read_text())

    @staticmethod
    def observed(store):
        stats = store.stats()
        return [list(item) for item in store.scan()], stats

    def test_log_reads_to_the_same_entries_and_stats(self, frozen):
        """The rotated log (active file plus one sealed segment) imports into
        the one log file: same keys, values and order — and again on a
        re-open."""
        root, expected = frozen
        for _ in range(2):
            scan, stats = self.observed(open_store(f"log:{root / 'cache.log'}"))
            assert scan == expected["log"]["scan"]
            assert stats["entries"] == expected["log"]["stats"]["entries"]
            assert stats["dead_records"] == stats["corrupt_lines"] == 0

    def test_a_rotated_log_imports_once_and_leaves_no_segment(self, frozen):
        root, _expected = frozen
        log = root / "cache.log"
        assert (root / "cache.log.000001.seg").exists()
        open_store(str(log))
        assert not list(root.glob("*.seg"))
        inode, data = log.stat().st_ino, log.read_bytes()
        open_store(str(log))
        assert (log.stat().st_ino, log.read_bytes()) == (inode, data)

    @pytest.mark.parametrize(
        "name, spec",
        [
            ("json", "{root}/cache.json"),
            ("json", "json:{root}/cache.json"),
            ("dir", "dir:{root}/cache.dir"),
            ("dir", "{root}/cache.dir/"),
        ],
    )
    def test_older_formats_import_to_the_same_entries(self, frozen, name, spec):
        """Every spelling that reaches a ``.json`` or ``dir:`` cache of the
        older formats imports it into the log: same keys, values and order,
        the tombstoned ``k0``/``k1`` absent — and again on a re-open."""
        root, expected = frozen
        for _ in range(2):
            scan, stats = self.observed(open_store(spec.format(root=root)))
            assert scan == expected[name]["scan"]
            assert stats["entries"] == expected[name]["stats"]["entries"]
            assert stats["dead_records"] == stats["corrupt_lines"] == 0

    def test_history_reads_to_the_same_records_and_stats(self, frozen):
        root, expected = frozen
        store = HistoryStore(root / "history.jsonl")
        assert [r.to_dict() for r in store.records()] == expected["history"]["records"]
        stats = store.stats()
        assert {k: stats[k] for k in expected["history"]["stats"]} == (
            expected["history"]["stats"]
        )

    def test_an_appended_record_is_byte_identical(self, frozen):
        root, expected = frozen
        log = AppendLogStore(root / "cache.log")
        before = log.path.stat().st_size
        log.put("appended", {"v": "é", "n": [1, 2.5, None]})
        assert log.path.read_bytes()[before:].decode("utf-8") == expected["log"]["appended"]

        history = HistoryStore(root / "history.jsonl")
        before = history.path.stat().st_size
        history.append(
            HistoryRecord(kernel="jacobi1d", fingerprint="f3", winner_ms=0.25, ts=4.0)
        )
        assert history.path.read_bytes()[before:].decode("utf-8") == (
            expected["history"]["appended"]
        )


class TestOlderTuningCachesStayWarm:
    SPACE = SpaceOptions(thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2)

    @pytest.mark.parametrize("name", ["json", "dir"])
    def test_a_repeat_autotune_compiles_nothing(self, tmp_path, name):
        """A tuning cache written in an older format answers a repeat request
        from the imported log with zero compiles."""
        from repro.compiler import counting_compiles
        from repro.kernels import build_matmul_program

        program = build_matmul_program(24, 24, 24)
        written = AppendLogStore(tmp_path / "cold.log")
        cold = autotune(program, space_options=self.SPACE, cache=f"log:{written.path}")
        entries = dict(written.scan())
        if name == "json":
            spec = str(tmp_path / "cache.json")
            (tmp_path / "cache.json").write_text(json.dumps({"version": 2, "entries": entries}))
        else:
            spec = f"dir:{tmp_path / 'cache.dir'}"
            for seq, (key, value) in enumerate(entries.items()):
                shard = tmp_path / "cache.dir" / key[:2]
                shard.mkdir(parents=True, exist_ok=True)
                (shard / f"{key}.json").write_text(
                    json.dumps({"key": key, "seq": seq, "value": value})
                )
        with counting_compiles() as compiles:
            warm = autotune(program, space_options=self.SPACE, cache=spec)
        assert warm.from_cache and compiles.count == 0
        assert warm.best.to_dict() == cold.best.to_dict()


class TestStaleLockTakeover:
    def test_a_dead_peers_lock_is_taken_over_not_waited_on(self, tmp_path):
        """A dead NFS peer's wedged sidecar lock is aged out."""
        import os

        fcntl = pytest.importorskip("fcntl")
        lock_path = tmp_path / "entry.lock"
        # a "dead peer": holds the flock forever, sidecar mtime long stale
        peer = open(lock_path, "a")
        fcntl.flock(peer, fcntl.LOCK_EX)
        os.utime(lock_path, (1.0, 1.0))  # 1970: older than any threshold
        takeovers = []
        try:
            done = threading.Event()

            def contender():
                with file_lock(lock_path, stale_after=0.2, on_takeover=lambda: takeovers.append(1)):
                    done.set()

            thread = threading.Thread(target=contender, daemon=True)
            thread.start()
            assert done.wait(timeout=10), "wedged behind a dead peer's lock"
            thread.join(timeout=10)
            assert takeovers
        finally:
            fcntl.flock(peer, fcntl.LOCK_UN)
            peer.close()

    def test_fresh_contention_is_waited_out_not_stolen(self, tmp_path):
        """A *live* holder (fresh mtime) is never taken over; the contender
        waits and proceeds only after the holder releases."""
        import time

        fcntl = pytest.importorskip("fcntl")
        lock_path = tmp_path / "entry.lock"
        holder = open(lock_path, "a")
        fcntl.flock(holder, fcntl.LOCK_EX)  # mtime stays fresh: a live holder
        takeovers = []
        done = threading.Event()

        def contender():
            with file_lock(lock_path, stale_after=30.0, on_takeover=lambda: takeovers.append(1)):
                done.set()

        thread = threading.Thread(target=contender, daemon=True)
        thread.start()
        time.sleep(0.3)
        assert not done.is_set(), "live holder's lock was stolen"
        fcntl.flock(holder, fcntl.LOCK_UN)
        holder.close()
        assert done.wait(timeout=10)
        thread.join(timeout=10)
        assert takeovers == []


class TestLayering:
    @staticmethod
    def imported_modules(path: Path):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"{path}: relative import"
                yield node.module

    def test_the_primitive_imports_only_the_standard_library(self):
        roots = {m.split(".")[0] for m in self.imported_modules(SRC / "utils" / "durable.py")}
        assert roots <= set(sys.stdlib_module_names), roots

    @pytest.mark.parametrize("package", ["telemetry", "codegen", "utils"])
    def test_nothing_below_the_autotuner_imports_it(self, package):
        for path in sorted((SRC / package).rglob("*.py")):
            upward = [
                m for m in self.imported_modules(path)
                if m == "repro.autotune" or m.startswith("repro.autotune.")
            ]
            assert not upward, f"{path} imports {upward}"
