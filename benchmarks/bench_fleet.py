"""Fleet acceptance bench: exactly-once tuning and warm-hit latency percentiles.

Boots N thread-executor tuning servers *in this process*, joins them into a
consistent-hash ring over one shared ``dir:`` cache, then drives them the way
a build farm would:

* a **cold** round tunes each problem size once through whichever server the
  round-robin lands on (the ring routes it home — this is where the fleet's
  exactly-once property is earned);
* a **warm** round hammers every server from M client threads with the same
  requests and records per-request wall time — each answer is an inline
  cache hit, so the distribution is pure routing + HTTP overhead.

The headline numbers are the warm-hit p50/p90/p99 across servers x clients
and the fleet-wide tuning-run count (must equal the number of distinct
fingerprints — N servers must not mean N runs).  Standalone for CI::

    PYTHONPATH=src python benchmarks/bench_fleet.py --quick --json BENCH_fleet.json

With ``--history FILE`` every server appends its HistoryRecords there, so two
bench invocations give ``python -m repro.autotune history check`` a
comparable window per tuned group.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.service import TuneRequest, TuningClient, TuningServer
from repro.telemetry import parse_prometheus_text

from conftest import print_series

SPACE = {"thread_counts": [64], "block_counts": [16], "tile_candidates_per_geometry": 2}


def _requests(sizes: Sequence[int]) -> List[TuneRequest]:
    return [
        TuneRequest(kernel="matmul", sizes={"m": m, "n": m, "k": m}, space=SPACE)
        for m in sizes
    ]


def start_fleet(
    count: int, cache_root: str, history: Optional[str], mode: str = "redirect"
) -> List[TuningServer]:
    """``count`` ringed servers sharing one ``dir:`` cache."""
    servers = [
        TuningServer(
            port=0,
            executor="thread",
            max_workers=2,
            cache=f"dir:{cache_root}",
            history=history,
        ).start()
        for _ in range(count)
    ]
    for server in servers:
        peers = [peer.url for peer in servers if peer is not server]
        server.configure_fleet(peers, mode=mode)
    return servers


def _percentiles(samples_ms: Sequence[float]) -> Dict[str, float]:
    data = np.asarray(samples_ms, dtype=float)
    return {
        "p50_ms": float(np.percentile(data, 50)),
        "p90_ms": float(np.percentile(data, 90)),
        "p99_ms": float(np.percentile(data, 99)),
        "max_ms": float(data.max()),
        "samples": int(data.size),
    }


def run_fleet(
    servers_n: int,
    clients_m: int,
    warm_iterations: int,
    sizes: Sequence[int],
    history: Optional[str] = None,
) -> Dict[str, object]:
    """One full cold + warm round; the bench's result payload."""
    requests = _requests(sizes)
    with tempfile.TemporaryDirectory(prefix="bench-fleet-cache-") as cache_root:
        servers = start_fleet(servers_n, cache_root, history)
        try:
            clients = [TuningClient(server.url) for server in servers]

            cold_ms = []
            for index, request in enumerate(requests):
                start = time.perf_counter()
                clients[index % len(clients)].tune(request, timeout=600)
                cold_ms.append(1000 * (time.perf_counter() - start))

            # a batch ride-along: mixed priorities through one POST
            batch = [
                TuneRequest(
                    kernel="matmul",
                    sizes={"m": m, "n": m, "k": m},
                    space=SPACE,
                    priority=priority,
                )
                for m, priority in zip(sizes, ("high", "low", "normal") * len(sizes))
            ]
            batch_handles = clients[0].submit_batch(batch)
            for handle in batch_handles:
                handle.result(timeout=600)

            def warm_worker(worker: int) -> List[float]:
                latencies = []
                for i in range(warm_iterations):
                    request = requests[(worker + i) % len(requests)]
                    client = clients[(worker + i) % len(clients)]
                    start = time.perf_counter()
                    report = client.tune(request, timeout=60)
                    latencies.append(1000 * (time.perf_counter() - start))
                    assert report.from_cache, "warm round must be all cache hits"
                return latencies

            with ThreadPoolExecutor(max_workers=clients_m) as pool:
                warm_ms = [
                    sample
                    for worker in pool.map(warm_worker, range(clients_m))
                    for sample in worker
                ]

            tuning_runs = sum(
                server.service.stats()["server"]["tuning_runs"] for server in servers
            )
            redirects = sum(
                value
                for key, value in parse_prometheus_text(clients[0].metrics())
                .get("repro_fleet_redirects_total", {})
                .items()
            )
            return {
                "servers": servers_n,
                "clients": clients_m,
                "distinct_fingerprints": len(requests),
                "tuning_runs": tuning_runs,
                "fleet_redirects": redirects,
                "cold_mean_ms": float(np.mean(cold_ms)),
                "warm": _percentiles(warm_ms),
            }
        finally:
            for server in servers:
                server.stop()


# -- pytest smoke (collected by the tier-1 run) ------------------------------------
def test_fleet_bench_round_trip_quick() -> None:
    results = run_fleet(servers_n=2, clients_m=2, warm_iterations=3, sizes=[24])
    assert results["tuning_runs"] == results["distinct_fingerprints"] == 1
    warm = results["warm"]
    assert warm["samples"] == 6
    assert warm["p99_ms"] < results["cold_mean_ms"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fleet warm-hit latency percentiles and the exactly-once gate."
    )
    parser.add_argument("--servers", type=int, default=3, help="ring size")
    parser.add_argument("--clients", type=int, default=4, help="client threads")
    parser.add_argument(
        "--iterations", type=int, default=16, help="warm requests per client"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="2 servers x 2 clients and fewer warm iterations, for CI",
    )
    parser.add_argument(
        "--json", metavar="OUT", default=None,
        help="merge results + telemetry counters into OUT",
    )
    parser.add_argument(
        "--history", metavar="FILE", default=None,
        help="append every server's HistoryRecords to FILE for the "
        "'history check' regression gate",
    )
    args = parser.parse_args(argv)
    servers_n = 2 if args.quick else args.servers
    clients_m = 2 if args.quick else args.clients
    iterations = 6 if args.quick else args.iterations
    sizes = [32, 48] if args.quick else [32, 48, 64]

    results = run_fleet(servers_n, clients_m, iterations, sizes, args.history)
    warm = dict(results["warm"])
    print_series(
        f"fleet warm-hit latency ({servers_n} servers x {clients_m} clients)",
        [warm],
    )
    print_series(
        "fleet exactly-once accounting",
        [
            {
                "distinct_fingerprints": results["distinct_fingerprints"],
                "tuning_runs": results["tuning_runs"],
                "fleet_redirects": results["fleet_redirects"],
                "cold_mean_ms": results["cold_mean_ms"],
            }
        ],
    )

    failures: List[str] = []
    if results["tuning_runs"] != results["distinct_fingerprints"]:
        failures.append(
            f"{results['tuning_runs']} tuning runs for "
            f"{results['distinct_fingerprints']} distinct fingerprints — "
            "exactly-once does not hold fleet-wide"
        )
    if warm["p99_ms"] >= results["cold_mean_ms"]:
        failures.append(
            f"warm-hit p99 {warm['p99_ms']:.1f}ms not below the cold mean "
            f"{results['cold_mean_ms']:.1f}ms"
        )
    if warm["p99_ms"] > 1000.0:
        failures.append(f"warm-hit p99 {warm['p99_ms']:.1f}ms > 1000ms")

    if args.json:
        from conftest import write_bench_json

        write_bench_json(args.json, "bench_fleet", results)
        print(f"json -> {args.json}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"\nfleet acceptance: {results['distinct_fingerprints']} fingerprints, "
        f"{results['tuning_runs']} tuning runs, warm p99 {warm['p99_ms']:.1f}ms"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
