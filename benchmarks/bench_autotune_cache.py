"""Autotuning service — cold-vs-warm cache speedup and cache store timings.

The persistent compilation cache is the infrastructure piece that turns the
one-shot pipeline into a service: the first tuning request pays the full
search-and-evaluate cost, every identical request afterwards is answered from
disk with zero pipeline compiles.  This harness measures both paths over a
seeded batch of matmul problem sizes and asserts the warm path is at least an
order of magnitude faster.

It also times the one persistent store (the append log) at put/get/warm-open,
and the one-shot import of a cache written in the older formats (a version-2
``.json`` document, a ``dir:`` of per-entry files) on first open against the
plain re-open after it, and runs standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_autotune_cache.py --quick

Store failures exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np
import pytest

from repro import TuningCache, autotune, counting_compiles
from repro.autotune import SpaceOptions, TuningJob, autotune_batch, open_store
from repro.autotune.store import CACHE_VERSION
from repro.kernels import build_matmul_program

from conftest import DEFAULT_SEED, print_series

SPACE = SpaceOptions(
    thread_counts=(64, 128),
    block_counts=(16, 32),
    tile_candidates_per_geometry=2,
)


def _problem_sizes(count: int = 3):
    """Seeded random (m, n, k) triples — reproducible across runs."""
    rng = np.random.default_rng(DEFAULT_SEED)
    sizes = []
    for _ in range(count):
        m, n, k = (int(2 ** rng.integers(5, 8)) for _ in range(3))
        sizes.append((m, n, k))
    return sizes


@pytest.fixture(scope="module")
def cache_rows(tmp_path_factory):
    cache_path = tmp_path_factory.mktemp("autotune") / "cache.json"
    jobs = [
        TuningJob(build_matmul_program(m, n, k), label=f"matmul_{m}x{n}x{k}")
        for m, n, k in _problem_sizes()
    ]
    rows = []

    start = time.perf_counter()
    with counting_compiles() as cold_compiled:
        cold_reports = autotune_batch(
            jobs, cache=TuningCache(cache_path), seed=DEFAULT_SEED, space_options=SPACE
        )
    cold_seconds = time.perf_counter() - start
    cold_compiles = cold_compiled.count

    start = time.perf_counter()
    with counting_compiles() as warm_compiled:
        warm_reports = autotune_batch(
            jobs, cache=TuningCache(cache_path), seed=DEFAULT_SEED, space_options=SPACE
        )
    warm_seconds = time.perf_counter() - start
    warm_compiles = warm_compiled.count

    for cold, warm in zip(cold_reports, warm_reports):
        rows.append(
            {
                "kernel": cold.kernel_name,
                "best_ms": cold.best.time_ms,
                "baseline_ms": cold.baseline.time_ms,
                "evaluations": cold.num_evaluations,
                "warm_hit": warm.from_cache,
            }
        )
    print_series("Autotune: best configurations (modelled ms)", rows)
    print_series(
        "Autotune: cold vs warm cache",
        [
            {
                "path": "cold",
                "seconds": cold_seconds,
                "pipeline_compiles": cold_compiles,
            },
            {
                "path": "warm",
                "seconds": warm_seconds,
                "pipeline_compiles": warm_compiles,
            },
        ],
    )
    return {
        "rows": rows,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_compiles": cold_compiles,
        "warm_compiles": warm_compiles,
        "cold_reports": cold_reports,
        "warm_reports": warm_reports,
    }


def test_warm_cache_serves_without_compiling(cache_rows):
    """Every warm request is a cache hit and triggers zero pipeline compiles."""
    assert cache_rows["warm_compiles"] == 0
    assert cache_rows["cold_compiles"] > 0
    assert all(row["warm_hit"] for row in cache_rows["rows"])


def test_warm_cache_is_much_faster(cache_rows):
    """Cold tuning compiles dozens of configurations; warm reads one JSON file."""
    assert cache_rows["warm_seconds"] < cache_rows["cold_seconds"] / 10


def test_warm_report_matches_cold(cache_rows):
    """The cached report is byte-identical to the freshly computed one."""
    for cold, warm in zip(cache_rows["cold_reports"], cache_rows["warm_reports"]):
        assert warm.best.to_dict() == cold.best.to_dict()
        assert warm.fingerprint == cold.fingerprint


def test_tuned_never_worse_than_baseline(cache_rows):
    """Acceptance: modelled time of the winner ≤ the seed pipeline's default."""
    for report in cache_rows["cold_reports"]:
        assert report.best.time_ms <= report.baseline.time_ms


def test_parallel_matches_serial_report():
    """max_workers > 1 must produce the identical TuningReport."""
    program = build_matmul_program(64, 64, 64)
    serial = autotune(program, space_options=SPACE, max_workers=1, seed=DEFAULT_SEED)
    parallel = autotune(program, space_options=SPACE, max_workers=4, seed=DEFAULT_SEED)
    assert parallel.to_dict() == serial.to_dict()


def test_cold_tuning_benchmark(benchmark):
    program = build_matmul_program(64, 64, 64)
    small = SpaceOptions(
        thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
    )
    benchmark(lambda: autotune(program, space_options=small, seed=DEFAULT_SEED))


# -- store microbenchmarks ---------------------------------------------------------
def _payload(index: int, size: int) -> Dict[str, object]:
    """A report-shaped value of roughly ``size`` JSON bytes."""
    return {"index": index, "blob": "x" * size, "best": {"time_ms": float(index)}}


def run_store_microbench(
    root: Path, entries: int = 64, payload_bytes: int = 512
) -> Dict[str, object]:
    """Put/get/warm-open timings of the append log."""
    spec = f"log:{root}/cache.log"
    cache = TuningCache(spec)

    start = time.perf_counter()
    for i in range(entries):
        cache.put(f"fingerprint-{i:05d}", _payload(i, payload_bytes))
    put_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for i in range(entries):
        assert cache.get(f"fingerprint-{i:05d}") is not None
    get_seconds = time.perf_counter() - start

    # warm open: a fresh instance (new process in production) answering one hit
    start = time.perf_counter()
    warm = TuningCache(spec)
    assert warm.get(f"fingerprint-{entries - 1:05d}") is not None
    warm_hit_seconds = time.perf_counter() - start

    stats = warm.stats()
    return {
        "store": "log",
        "entries": entries,
        "put_ms_per_entry": 1e3 * put_seconds / entries,
        "get_ms_per_entry": 1e3 * get_seconds / entries,
        "warm_open_hit_ms": 1e3 * warm_hit_seconds,
        "store_bytes": stats["bytes"],
    }


def _write_older_format(layout: str, root: Path, entries: int, payload_bytes: int) -> str:
    """A cache as earlier versions wrote it at ``root``; returns its spec."""
    values = {f"{i:064x}": _payload(i, payload_bytes) for i in range(entries)}
    if layout == "json":
        path = root / "cache.json"
        path.write_text(json.dumps({"version": CACHE_VERSION, "entries": values}))
        return str(path)
    for seq, (key, value) in enumerate(values.items()):
        shard = root / "cache-dir" / key[:2]
        shard.mkdir(parents=True, exist_ok=True)
        (shard / f"{key}.json").write_text(json.dumps({"key": key, "seq": seq, "value": value}))
    return f"dir:{root}/cache-dir"


def run_import_microbench(
    layout: str, root: Path, entries: int = 64, payload_bytes: int = 512
) -> Dict[str, object]:
    """First open of an older-format cache (the import) against the re-open after it."""
    spec = _write_older_format(layout, root, entries, payload_bytes)
    start = time.perf_counter()
    imported = open_store(spec)
    import_seconds = time.perf_counter() - start
    start = time.perf_counter()
    reopened = open_store(spec)
    reopen_seconds = time.perf_counter() - start
    if len(imported) != entries or len(reopened) != entries:
        raise RuntimeError(f"{spec!r} imported {len(imported)} of {entries} entries")
    return {
        "store": f"{layout}-import",
        "entries": entries,
        "import_ms": 1e3 * import_seconds,
        "reopen_ms": 1e3 * reopen_seconds,
        "store_bytes": reopened.stats()["bytes"],
    }


def test_store_microbench_smoke(tmp_path):
    """The log completes the put/get/warm-hit loop and stays consistent."""
    row = run_store_microbench(tmp_path, entries=16, payload_bytes=128)
    assert row["store_bytes"] > 0
    print_series("Cache store microbench (log)", [row])


@pytest.mark.parametrize("layout", ["json", "dir"])
def test_import_microbench_smoke(layout, tmp_path):
    """An older-format cache imports every entry once; the re-open reads the log."""
    row = run_import_microbench(layout, tmp_path, entries=16, payload_bytes=128)
    assert row["store_bytes"] > 0
    print_series(f"Cache import microbench ({layout})", [row])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the tuning-cache store at put/get/warm-hit and the "
        "one-shot import of older-format caches."
    )
    parser.add_argument(
        "--entries", type=int, default=256, help="entries to put/get or import"
    )
    parser.add_argument(
        "--payload-bytes", type=int, default=2048, help="approx JSON bytes per entry"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes for CI smoke runs (64 entries of 256 bytes)",
    )
    parser.add_argument(
        "--json",
        metavar="OUT",
        default=None,
        help="merge results + telemetry counters into OUT (e.g. BENCH_telemetry.json)",
    )
    args = parser.parse_args(argv)
    entries = 64 if args.quick else args.entries
    payload = 256 if args.quick else args.payload_bytes
    runs = [
        ("log", lambda root: run_store_microbench(root, entries, payload)),
        ("json-import", lambda root: run_import_microbench("json", root, entries, payload)),
        ("dir-import", lambda root: run_import_microbench("dir", root, entries, payload)),
    ]
    rows = []
    for name, run in runs:
        with tempfile.TemporaryDirectory(prefix=f"bench-cache-{name}-") as root:
            try:
                rows.append(run(Path(root)))
            except Exception as error:  # an IO or import failure fails the job
                print(f"error: {name} failed: {error}", file=sys.stderr)
                return 1
    print_series("Cache store microbench (log put/get/warm-hit)", rows[:1])
    print_series("Cache import microbench (older format, first open vs re-open)", rows[1:])
    if args.json:
        from conftest import write_bench_history, write_bench_json

        write_bench_json(
            args.json,
            "bench_autotune_cache",
            {"entries": entries, "payload_bytes": payload, "stores": rows},
        )
        print(f"json -> {args.json}")

        # one cold + one warm request against the same cache, both recorded in
        # a history store, so BENCH_history.json shows the hit/miss pair
        with tempfile.TemporaryDirectory(prefix="bench-cache-history-") as root:
            history = str(Path(root) / "history.jsonl")
            cache = TuningCache(str(Path(root) / "cache.json"))
            small = SpaceOptions(
                thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
            )
            program = build_matmul_program(32, 32, 32)
            for _ in range(2):
                autotune(
                    program,
                    space_options=small,
                    seed=DEFAULT_SEED,
                    cache=cache,
                    history=history,
                )
            history_out = str(Path(args.json).with_name("BENCH_history.json"))
            write_bench_history(history_out, "bench_autotune_cache", history)
            print(f"history json -> {history_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
