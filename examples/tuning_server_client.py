"""End-to-end demo of the tuning server: dedup, shared cache, warm hits.

Starts a :class:`TuningServer` in-process on an ephemeral port backed by a
``dir:`` cache (the append log ``DIR/cache.log`` — a worker put is one
locked append the server sees on its next lookup), submits the same matmul request twice
(cold run, then a warm cache hit with zero compiles), fires four
*concurrent* identical requests to show in-flight deduplication (one tuning
run serves all four), and drains gracefully.

Run with:  python examples/tuning_server_client.py
"""

import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.service import TuneRequest, TuningClient, TuningServer

SPACE = {"thread_counts": [64, 128], "block_counts": [16, 32], "tile_candidates_per_geometry": 2}


def main() -> None:
    cache_dir = Path(tempfile.gettempdir()) / "repro_tuning_server_demo_cache"
    shutil.rmtree(cache_dir, ignore_errors=True)

    server = TuningServer(
        port=0, executor="process", max_workers=2, cache=f"dir:{cache_dir}"
    )
    server.start()
    client = TuningClient(server.url)
    health = client.healthz()
    print(f"server: {server.url}  health: {health['status']}  "
          f"cache backend: {health['cache_backend']}")

    request = TuneRequest(kernel="matmul", sizes={"m": 128, "n": 128, "k": 128}, space=SPACE)

    print("\n== cold submission (tuned on a worker process) ==")
    pending = client.submit(request)
    job = pending.job(timeout=600)
    print(pending.result().summary())
    print(f"outcome: {pending.outcome}  worker compiles: {job['compiles']}")

    print("\n== identical submission (served from the shared cache) ==")
    warm = client.submit(request)
    job = warm.job(timeout=60)
    print(f"outcome: {warm.outcome}  compiles: {job['compiles']}  "
          f"from-cache: {job['from_cache']}")

    print("\n== 4 concurrent submissions of a new request (in-flight dedup) ==")
    bigger = TuneRequest(kernel="matmul", sizes={"m": 256, "n": 256, "k": 256}, space=SPACE)
    with ThreadPoolExecutor(max_workers=4) as pool:
        handles = list(pool.map(lambda _: client.submit(bigger), range(4)))
    reports = [handle.result(timeout=600) for handle in handles]
    stats = client.cache_stats()
    print(f"4 identical reports: {all(r.to_dict() == reports[0].to_dict() for r in reports)}")
    print(f"server counters: {stats['server']}")
    print(f"cache: {stats['cache']}")

    server.stop()
    print("\nserver drained and stopped")


if __name__ == "__main__":
    main()
