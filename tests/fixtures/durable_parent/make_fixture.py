"""Regenerates this directory's frozen-bytes fixture (see tests/test_durable.py).

Run with ``PYTHONPATH`` pointing at the ``src/`` of the commit whose on-disk
format is to be frozen — the committed files were written by commit 464c6e8,
the last one before ``repro.utils.durable`` existed::

    PYTHONPATH=/path/to/464c6e8/src python make_fixture.py OUT_DIR

Everything goes through the stores' public API except the ``del``/``clear``
log lines (the format defines them, no public call writes them) and the
deliberately corrupt and crash-torn bytes.

Like ``cache.json`` and ``cache.dir``, the sealed segment ``cache.log.000001.seg``
is now import-only: the current store writes neither segments nor rotates,
and ``open_store`` folds a rotated log into the one log file on first open.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from repro.autotune.store import AppendLogStore, JsonFileStore, ShardedStore
from repro.telemetry.history import HistoryRecord, HistoryStore

APPENDED_ENTRY = ("appended", {"v": "é", "n": [1, 2.5, None]})
APPENDED_RECORD = dict(kernel="jacobi1d", fingerprint="f3", winner_ms=0.25, ts=4.0)


def raw(path: Path, data: bytes) -> None:
    with open(path, "ab") as handle:
        handle.write(data)


def write(out: Path) -> None:
    log = AppendLogStore(out / "cache.log")
    log.put("a", {"v": 1})
    log.put("b", {"v": 2})
    log.put("a", {"v": 3})  # a dead record
    log.rotate()  # -> cache.log.000001.seg
    log.put("c", {"v": 4})
    log._append({"op": "del", "key": "b"})
    raw(log.path, b"?? not json ??\n[1, 2]\n")
    log.put("d", {"v": 5})
    log._append({"op": "clear"})
    log.put("e", {"v": 6})
    log.put("f", {"v": 7})
    log.put("e", {"v": 8})
    raw(log.path, b'{"op":"put","key":"torn","value":{"v"')

    flat = JsonFileStore(out / "cache.json")
    for index in range(4):
        flat.put(f"k{index}", {"v": index})
    flat.prune(2)  # k0, k1 become tombstones

    sharded = ShardedStore(out / "cache.dir")
    for key in ("x", "y", "x"):
        sharded.put(key, {"v": key})

    history = HistoryStore(out / "history.jsonl")
    history.append(HistoryRecord(kernel="matmul", fingerprint="f1", winner_ms=1.5, ts=1.0))
    raw(history.path, b"not json at all\n[3]\n" + b'{"no_kernel_field":true}\n')
    history.append(
        HistoryRecord(kernel="matmul", fingerprint="f2", variant="2x2:grid", rho=0.5, ts=2.0)
    )
    raw(history.path, b'{"kernel": "mat')


def read(out: Path) -> dict:
    """What the writing commit itself reads back, and the bytes it appends."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "copy"
        shutil.copytree(out, copy)
        log = AppendLogStore(copy / "cache.log")
        flat = JsonFileStore(copy / "cache.json")
        sharded = ShardedStore(copy / "cache.dir")
        history = HistoryStore(copy / "history.jsonl")
        records = history.records()
        keep = ("entries", "bytes", "dead_records", "corrupt_lines", "segments",
                "sealed_bytes", "tombstones", "shards")
        expected = {
            "log": {
                "scan": list(log.scan()),
                "stats": {k: v for k, v in log.stats().items() if k in keep},
            },
            "json": {
                "scan": list(flat.scan()),
                "stats": {k: v for k, v in flat.stats().items() if k in keep},
            },
            "dir": {
                "scan": list(sharded.scan()),
                "stats": {k: v for k, v in sharded.stats().items() if k in keep},
            },
            "history": {
                "records": [record.to_dict() for record in records],
                "stats": {k: v for k, v in history.stats().items() if k != "path"},
            },
        }
        before = log.path.stat().st_size
        log.put(*APPENDED_ENTRY)
        expected["log"]["appended"] = log.path.read_bytes()[before:].decode("utf-8")
        before = history.path.stat().st_size
        history.append(HistoryRecord(**APPENDED_RECORD))
        expected["history"]["appended"] = history.path.read_bytes()[before:].decode("utf-8")
    return expected


if __name__ == "__main__":
    target = Path(sys.argv[1])
    write(target)
    for lock in target.rglob("*.lock"):
        lock.unlink()
    (target / "expected.json").write_text(json.dumps(read(target), indent=1) + "\n")
