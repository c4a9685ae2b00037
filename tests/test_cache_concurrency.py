"""Concurrent multi-process access to one shared ``TuningCache`` store.

Every scenario runs parametrized over the three spellings of a cache location
(``.json`` path, ``dir:`` directory, ``log:`` file) — each names where the
one append log lives.  The helpers are
module-level so they pickle for ``multiprocessing``; the fork start method
is used explicitly (the stores' advisory locking is POSIX/``fcntl``-based,
mirroring the platform the service targets).
"""

from __future__ import annotations

import multiprocessing
import sys

import pytest

from repro.autotune import TuningCache
from repro.autotune.store import AppendLogStore
from test_cache_store import SmallThresholdLog

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="fork start method and fcntl are POSIX-only"
)

BACKENDS = ("json", "dir", "log")

SMALL_SPACE = {"thread_counts": [64], "block_counts": [16], "tile_candidates_per_geometry": 2}


def store_spec(backend: str, tmp_path) -> str:
    return {
        "json": str(tmp_path / "cache.json"),
        "dir": f"dir:{tmp_path / 'cache-dir'}",
        "log": f"log:{tmp_path / 'cache.log'}",
    }[backend]


def _put_entry(spec: str, index: int, barrier) -> None:
    cache = TuningCache(spec)
    barrier.wait(timeout=30)  # maximise write overlap across all processes
    cache.put(f"key-{index}", {"value": index})


def _put_many(spec: str, writer: int, count: int, barrier) -> None:
    cache = TuningCache(spec)
    barrier.wait(timeout=30)
    for i in range(count):
        cache.put(f"w{writer}-{i}", {"writer": writer, "i": i})


def _prune_repeatedly(spec: str, keep: int, rounds: int, barrier) -> None:
    cache = TuningCache(spec)
    barrier.wait(timeout=30)
    for _ in range(rounds):
        cache.prune(keep)


def _open_then_put_after_prune(spec: str, opened, pruned) -> None:
    # Open (loading any in-memory mirror) BEFORE the parent prunes, write after.
    cache = TuningCache(spec)
    opened.set()
    assert pruned.wait(timeout=30)
    cache.put("late-write", {"value": "fresh"})


def _log_churn(spec: str, writer: int, count: int, barrier) -> None:
    # hammer a small key set so dead records pile up and compaction triggers
    store = SmallThresholdLog(spec)
    barrier.wait(timeout=30)
    for i in range(count):
        store.put(f"churn-{i % 4}", {"writer": writer, "i": i})


def _tune_against_cache(spec: str, queue) -> None:
    from repro.compiler import counting_compiles
    from repro.service import TuneRequest
    from repro.autotune import autotune

    request = TuneRequest(kernel="matmul", sizes={"m": 24, "n": 24, "k": 24}, space=SMALL_SPACE)
    resolved = request.resolve()
    with counting_compiles() as compiles:
        report = autotune(
            resolved.problem.program,
            options=resolved.problem.options,
            space_options=resolved.problem.space_options,
            cache=TuningCache(spec),
        )
    queue.put({"compiles": compiles.count, "report": report.to_dict()})


@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_writers_lose_no_entries(backend, tmp_path):
    """8 processes write 8 distinct keys through one store simultaneously.

    Each put is one locked append: no last-writer-wins clobbering may drop
    an entry.
    """
    ctx = multiprocessing.get_context("fork")
    spec = store_spec(backend, tmp_path)
    barrier = ctx.Barrier(8)
    procs = [ctx.Process(target=_put_entry, args=(spec, i, barrier)) for i in range(8)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    merged = TuningCache(spec)
    assert len(merged) == 8
    for i in range(8):
        assert merged.get(f"key-{i}") == {"value": i}


@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_writers_and_pruner_interleave_safely(backend, tmp_path):
    """3 writers racing a repeated pruner: no corruption, no zombie entries.

    The final state must be a consistent store whose every entry carries the
    value its writer stored, and a closing prune must stick — whatever
    interleaving the scheduler produced.
    """
    ctx = multiprocessing.get_context("fork")
    spec = store_spec(backend, tmp_path)
    barrier = ctx.Barrier(4)
    writers = [
        ctx.Process(target=_put_many, args=(spec, w, 20, barrier)) for w in range(3)
    ]
    pruner = ctx.Process(target=_prune_repeatedly, args=(spec, 5, 10, barrier))
    for proc in writers + [pruner]:
        proc.start()
    for proc in writers + [pruner]:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    # the store survived the race in a readable, self-consistent state
    final = TuningCache(spec)
    for key, value in final.scan():
        writer, i = key[1:].split("-")
        assert value == {"writer": int(writer), "i": int(i)}
    # and a quiescent prune leaves exactly the newest entries, durably
    final.prune(3)
    reloaded = TuningCache(spec)
    assert len(reloaded) <= 3
    assert [k for k, _ in reloaded.scan()] == [k for k, _ in final.scan()]


@pytest.mark.parametrize("backend", BACKENDS)
def test_pruned_entries_cannot_be_resurrected_by_live_writer(backend, tmp_path):
    """Regression (fork-based): a writer that loaded before a prune must not
    resurrect the pruned entries with its next save.

    A writer only ever appends its own puts, never a copy of the index it
    loaded, so the log is prune-safe by construction — under every
    spelling.
    """
    ctx = multiprocessing.get_context("fork")
    spec = store_spec(backend, tmp_path)
    seed = TuningCache(spec)
    for i in range(5):
        seed.put(f"k{i}", {"v": i})

    opened, pruned = ctx.Event(), ctx.Event()
    writer = ctx.Process(target=_open_then_put_after_prune, args=(spec, opened, pruned))
    writer.start()
    assert opened.wait(timeout=30)  # the writer holds a pre-prune view
    assert TuningCache(spec).prune(2) == 3
    pruned.set()
    writer.join(timeout=60)
    assert writer.exitcode == 0

    final = TuningCache(spec)
    assert [k for k, _ in final.scan()] == ["k3", "k4", "late-write"]
    for i in range(3):
        assert final.peek(f"k{i}") is None, f"k{i} was resurrected"


def test_append_log_compaction_under_load(tmp_path):
    """4 processes churn 4 keys through one tiny-threshold log concurrently.

    Compactions race appends (each rewrite swaps the log's inode under the
    other writers); no entry may be lost and the log must stay bounded
    instead of growing one line per put.
    """
    ctx = multiprocessing.get_context("fork")
    path = str(tmp_path / "churn.log")
    barrier = ctx.Barrier(4)
    procs = [
        ctx.Process(target=_log_churn, args=(path, w, 100, barrier)) for w in range(4)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    final = AppendLogStore(path)
    entries = dict(final.scan())
    assert sorted(entries) == [f"churn-{i}" for i in range(4)]
    for key, value in entries.items():
        assert value["i"] % 4 == int(key.split("-")[1])
    # 400 puts compacted down to 4 live entries: the file stays small
    assert final.stats()["bytes"] < 4096


def test_second_process_tuning_same_fingerprint_is_free(tmp_path):
    """Two processes, one fingerprint, one shared store: one compile run total.

    The first process tunes cold and persists; the second answers entirely
    from the shared store with zero pipeline compiles and a bit-identical
    report.  Runs against a ``dir:`` location — the ``.json`` spelling is
    covered by the service suite — and proves a store URI round-trips to a
    worker.
    """
    ctx = multiprocessing.get_context("fork")
    spec = f"dir:{tmp_path / 'cache-dir'}"
    queue = ctx.Queue()
    outcomes = []
    for _ in range(2):
        proc = ctx.Process(target=_tune_against_cache, args=(spec, queue))
        proc.start()
        proc.join(timeout=300)
        assert proc.exitcode == 0
        outcomes.append(queue.get(timeout=30))
    first, second = outcomes
    assert first["compiles"] > 0
    assert second["compiles"] == 0
    assert second["report"] == first["report"]
