"""Tests of :class:`repro.service.jobs.JobTable`, the thread-free job core.

The table is driven event by event — no pool, no lock, no sleep — so every
order of a small set of events can be enumerated and checked.
"""

from __future__ import annotations

import ast
from itertools import permutations
from pathlib import Path

from repro.service.jobs import JobTable
from repro.service.protocol import TuneRequest

JOBS_SOURCE = Path(__file__).resolve().parent.parent / "src" / "repro" / "service" / "jobs.py"


def test_job_table_imports_no_threads_sockets_or_clocks():
    """The core stays drivable step by step: no concurrency, I/O or time."""
    banned = {"threading", "concurrent", "http", "socket", "time"}
    imported = set()
    for node in ast.walk(ast.parse(JOBS_SOURCE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported.add(node.module.split(".")[0])
    assert imported & banned == set()


# -- every interleaving ------------------------------------------------------------
#: three submitters of key A, one of key B, a worker finishing, a worker dying
#: and a drain that gives up on queued work
EVENTS = ("submit-A", "submit-A", "submit-A", "submit-B", "finish", "die", "drain")
REQUEST = TuneRequest(kernel="matmul")


def _run(order, max_workers):
    """Play one event order through a table, as the service adapter would.

    Returns the table, the jobs each accepted submitter was handed, and the
    accepted submissions per key.
    """
    table = JobTable(max_workers=max_workers)
    cache = {}  # what the adapter's cache.put / cache.get would hold
    running = []  # started jobs in start order, as the pool sees them
    handed = []
    accepted = {"A": 0, "B": 0}
    drained = False

    def check():
        keys = [job.fingerprint for job in running]
        assert len(keys) == len(set(keys)), "two running jobs for one key"
        assert len(running) == table.running <= max_workers
        for key, job_id in table.inflight.items():
            assert table.records[job_id].fingerprint == key
            assert not table.records[job_id].finished

    for step, event in enumerate(order):
        if event.startswith("submit-"):
            if drained:  # the adapter answers 503 before the table sees it
                continue
            key = event[len("submit-"):]
            accepted[key] += 1
            job, _outcome, started = table.submit(f"job-{step}", key, REQUEST, cache.get, 1)
            handed.append(job)
        elif event == "drain":
            drained = True
            started = table.cancel_queued(RuntimeError("drained"))
        elif not running:
            continue  # no job on a worker: nothing to finish or die
        elif event == "finish":
            job = running.pop(0)
            cache[job.fingerprint] = {"fingerprint": job.fingerprint}
            started = table.finish(job.id, {"report": {}, "compiles": 1, "from_cache": False})
        else:
            started = table.fail(running.pop(0).id, RuntimeError("worker died"))
        running += started
        check()
    while running:  # the drain waits for the pool to finish what it runs
        job = running.pop(0)
        running += table.finish(job.id, {"report": {}, "compiles": 1, "from_cache": False})
        check()
    return table, handed, accepted


def test_every_event_order_keeps_the_job_invariants():
    orders = set(permutations(EVENTS))
    assert len(orders) == 840  # 7! / 3! — the three A submitters are alike
    for max_workers in (1, 2):
        for order in orders:
            table, handed, accepted = _run(order, max_workers)
            jobs = {job.id: job for job in handed}
            for key, submitters in accepted.items():
                waiters = sum(j.waiters for j in jobs.values() if j.fingerprint == key)
                assert waiters == submitters, (order, key)
            # exactly once: a key is tuned again only after its last run failed
            for key in accepted:
                tuned = [j for j in jobs.values() if j.fingerprint == key and not j.from_cache]
                assert sum(j.status == "done" for j in tuned) <= 1, (order, key)
            # no lost response: every accepted submitter's job reached an end
            assert all(job.status in ("done", "error") for job in handed), order
            assert table.idle and table.running == 0, order
            assert table.queue_depths() == {"high": 0, "normal": 0, "low": 0}
            counters = table.counters
            assert counters["submitted"] == sum(accepted.values())
            assert counters["submitted"] == (
                counters["deduplicated"]
                + counters["cache_hits"]
                + counters["tuning_runs"]
                + counters["failed"]
            ), (order, counters)
            assert counters["cache_hits"] + counters["tuning_runs"] + counters["failed"] == len(jobs)
