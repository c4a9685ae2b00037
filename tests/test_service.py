"""Tests of the ``repro.service`` tuning server.

Integration coverage runs a real HTTP server.  The in-process suites use the
*thread* executor so every pipeline compile lands on this process's
``repro_compiles_total`` — the acceptance check that N concurrent identical
requests cost exactly one tuning run's compiles.  The process-pool suite and
the SIGTERM test exercise the multi-process deployment shape.
"""

from __future__ import annotations

import io
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.autotune import TuningCache, autotune, tune
from repro.autotune.cli import main as autotune_cli
from repro.compiler import counting_stage_runs
from repro.service.cli import main as service_cli
from repro.telemetry import METRICS, events, parse_prometheus_text
from repro.service import (
    PendingTuning,
    ServiceError,
    ServiceUnavailable,
    TuneRequest,
    TuningClient,
    TuningServer,
    TuningService,
    execute_request,
)

SMALL_SPACE = {"thread_counts": [64], "block_counts": [16], "tile_candidates_per_geometry": 2}
WIDE_SPACE = {
    "thread_counts": [64, 128],
    "block_counts": [16, 32],
    "tile_candidates_per_geometry": 2,
}


def compiles_total() -> float:
    return METRICS.get("repro_compiles_total").value()


def matmul_request(m: int = 32, **overrides) -> TuneRequest:
    payload = {"kernel": "matmul", "sizes": {"m": m, "n": m, "k": m}, "space": SMALL_SPACE}
    payload.update(overrides)
    return TuneRequest(**payload)


@pytest.fixture
def thread_server():
    server = TuningServer(port=0, executor="thread", max_workers=4).start()
    yield server
    server.stop()


# -- protocol ----------------------------------------------------------------------
class TestTuneRequest:
    def test_round_trips_through_dict(self):
        request = matmul_request(seed=7, eval_workers=2, check_correctness=True)
        assert TuneRequest.from_dict(request.to_dict()) == request

    def test_rejects_malformed_requests(self):
        with pytest.raises(ValueError, match="strategy"):
            TuneRequest(kernel="matmul", strategy="simulated-annealing")
        with pytest.raises(ValueError, match="space fields"):
            TuneRequest(kernel="matmul", space={"warp_counts": [2]})
        with pytest.raises(ValueError, match="eval_workers"):
            TuneRequest(kernel="matmul", eval_workers=0)
        with pytest.raises(ValueError, match="integer"):
            TuneRequest(kernel="matmul", sizes={"m": 32.9})  # no silent truncation
        with pytest.raises(ValueError, match="integer"):
            TuneRequest(kernel="matmul", sizes={"m": True})
        with pytest.raises(ValueError, match="list of integers"):
            # a JSON string must not be iterated character-by-character
            TuneRequest(kernel="matmul", space={"thread_counts": "64"})
        with pytest.raises(ValueError, match="list of booleans"):
            TuneRequest(kernel="matmul", space={"scratchpad_choices": "yes"})
        with pytest.raises(ValueError, match="list of booleans"):
            TuneRequest(kernel="matmul", space={"scratchpad_choices": ["true"]})
        with pytest.raises(ValueError, match="tile_candidates_per_geometry"):
            TuneRequest(kernel="matmul", space={"tile_candidates_per_geometry": "lots"})
        with pytest.raises(ValueError, match="check_correctness"):
            TuneRequest(kernel="matmul", check_correctness="false")
        with pytest.raises(ValueError, match="unknown TuneRequest fields"):
            TuneRequest.from_dict({"kernel": "matmul", "gpu": "H100"})
        with pytest.raises(ValueError, match="kernel"):
            TuneRequest.from_dict({"sizes": {"m": 8}})

    def test_resolve_rejects_unknown_kernel_and_sizes(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            TuneRequest(kernel="no_such_kernel").resolve()
        with pytest.raises(ValueError, match="size parameters"):
            TuneRequest(kernel="matmul", sizes={"batch": 4}).resolve()

    def test_fingerprint_matches_the_session_cache_key(self):
        """The service's dedup key must be the exact key autotune caches under."""
        request = matmul_request()
        resolved = request.resolve()
        report = autotune(resolved.problem.program, space_options=resolved.problem.space_options)
        assert report.fingerprint == resolved.fingerprint

    @pytest.mark.parametrize(
        "request_fields",
        [
            {"kernel": "matmul", "sizes": {"m": 16, "n": 16, "k": 16}},
            {"kernel": "distributed-gemm", "sizes": {"m": 32, "n": 32, "k": 32}},
        ],
    )
    def test_problem_builds_without_analysis_and_keys_like_resolve(self, request_fields):
        """problem() is what a worker tunes: no compiler stage runs building
        it, and tuning it lands on the key resolve() told the server."""
        request = TuneRequest(space=SMALL_SPACE, **request_fields)
        with counting_stage_runs() as stage_runs:
            problem = request.problem()
        assert dict(stage_runs.counts) == {}
        resolved = request.resolve()
        assert set(vars(resolved)) == {"request", "problem", "fingerprint"}
        assert tune(problem).fingerprint == resolved.fingerprint

    def test_backend_travels_and_splits_the_fingerprint(self):
        base = matmul_request()
        measured = matmul_request(backend="measure-py:")
        assert TuneRequest.from_dict(measured.to_dict()) == measured
        assert TuneRequest.from_dict(base.to_dict()).backend == "model:"
        # model-priced and measured requests must never dedup to one job
        assert base.resolve().fingerprint != measured.resolve().fingerprint

    def test_bad_backend_uri_rejected_at_validation(self):
        with pytest.raises(ValueError, match="unknown evaluation backend"):
            TuneRequest(kernel="matmul", backend="cuda:")
        with pytest.raises(ValueError, match="key=value"):
            TuneRequest(kernel="matmul", backend="measure-py:warmup")


# -- worker ------------------------------------------------------------------------
class TestWorker:
    def test_cold_run_reports_compiles(self):
        outcome = execute_request(matmul_request(m=16).to_dict())
        assert outcome["compiles"] > 0
        assert not outcome["from_cache"]
        assert outcome["report"]["best"]["feasible"]

    def test_reported_stages_are_every_stage_the_job_ran(self):
        """One analysis per worker job, and ``stages`` is the whole truth:
        nothing the job runs falls outside the counted block."""
        payload = matmul_request(m=16).to_dict()
        with counting_stage_runs() as observed:
            outcome = execute_request(payload)
        assert outcome["stages"] == dict(observed.counts)
        assert outcome["stages"]["analysis"] == 1

    def test_warm_run_from_shared_cache_file_is_free(self, tmp_path):
        path = str(tmp_path / "cache.json")
        payload = matmul_request(m=16).to_dict()
        cold = execute_request(payload, cache_path=path)
        warm = execute_request(payload, cache_path=path)
        assert warm["from_cache"] and warm["compiles"] == 0
        assert warm["report"] == cold["report"]


# -- engine ------------------------------------------------------------------------
class TestTuningService:
    def test_draining_rejects_new_submissions(self):
        service = TuningService(executor="thread", max_workers=1)
        job, outcome = service.submit(matmul_request(m=16).to_dict())
        service.drain()
        assert service.job(job.id).status == "done"
        with pytest.raises(ServiceUnavailable):
            service.submit(matmul_request(m=24).to_dict())

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            TuningService(executor="mpi")
        with pytest.raises(ValueError, match="max_workers"):
            TuningService(executor="thread", max_workers=0)
        with pytest.raises(ValueError, match="max_finished_jobs"):
            TuningService(executor="thread", max_finished_jobs=0)

    def test_broken_pool_fails_the_job_instead_of_wedging_the_fingerprint(self):
        service = TuningService(executor="thread", max_workers=1)
        service._pool.shutdown(wait=True)  # simulate a dead worker pool
        payload = matmul_request(m=16).to_dict()
        job, outcome = service.submit(payload)
        assert outcome == "error" and job.status == "error"
        assert "cannot schedule new futures" in job.error
        # the fingerprint was rolled back: nothing is wedged in flight
        assert job.fingerprint not in service.jobs.inflight

    def test_server_spec_reaches_the_worker(self):
        """The worker must tune for the service's machine, not the default."""
        import dataclasses

        from repro.machine import GEFORCE_8800_GTX

        custom = dataclasses.replace(GEFORCE_8800_GTX, name="Custom GPU (modelled)")
        service = TuningService(executor="thread", max_workers=1, spec=custom)
        payload = matmul_request(m=16).to_dict()
        job, outcome = service.submit(payload)
        assert outcome == "created"
        service.drain()
        job = service.job(job.id)
        assert job.status == "done"
        assert job.report["spec_name"] == "Custom GPU (modelled)"
        # the worker's fingerprint agrees with the server's dedup key
        assert job.report["fingerprint"] == job.fingerprint

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("spelling", ["json", "dir", "log"])
    def test_worker_persisted_entry_is_a_submit_time_hit(self, executor, spelling, tmp_path):
        """The worker's put reaches the server through the log alone: the
        repeat is answered at submission, whatever spelling named the log."""
        spec = {
            "json": str(tmp_path / "cache.json"),
            "dir": f"dir:{tmp_path / 'cache-dir'}",
            "log": f"log:{tmp_path / 'cache.log'}",
        }[spelling]
        service = TuningService(cache=spec, executor=executor, max_workers=1)
        try:
            payload = matmul_request(m=16).to_dict()
            job, outcome = service.submit(payload)
            assert outcome == "created"
            assert service.wait_for_job(job.id, timeout=300)["status"] == "done"
            again, outcome = service.submit(payload)
            assert outcome == "cached" and again.from_cache
            assert again.report == service.job(job.id).report
            assert service.stats()["server"]["tuning_runs"] == 1
        finally:
            service.drain()

    def test_entry_another_writer_persisted_later_is_a_submit_time_hit(self, tmp_path):
        """No per-instance overlay to fall out of: an entry appended after the
        server opened the log is still found at submission."""
        spec = str(tmp_path / "cache.json")
        service = TuningService(cache=spec, executor="thread", max_workers=1)
        try:
            payload = matmul_request(m=16).to_dict()
            fingerprint = TuneRequest.from_dict(payload).resolve().fingerprint
            TuningCache(spec).put(fingerprint, {"fingerprint": fingerprint})
            job, outcome = service.submit(payload)
            assert outcome == "cached"
            assert job.report == {"fingerprint": fingerprint}
        finally:
            service.drain()

    def test_server_does_not_re_append_a_worker_report(self, tmp_path):
        """The worker's put is the job's only log line: the server does not
        write the same report back on completion."""
        path = tmp_path / "cache.log"
        service = TuningService(cache=f"log:{path}", executor="thread", max_workers=1)
        try:
            job, _ = service.submit(matmul_request(m=16).to_dict())
            service.wait_for_job(job.id, timeout=300)
        finally:
            service.drain()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(line["op"], line["key"]) for line in lines] == [("put", job.fingerprint)]

    def test_services_sharing_a_json_cache_answer_each_others_jobs(self, tmp_path):
        spec = str(tmp_path / "cache.json")
        first = TuningService(cache=spec, executor="thread", max_workers=1)
        second = TuningService(cache=spec, executor="thread", max_workers=1)
        try:
            payload = matmul_request(m=16).to_dict()
            job, _ = first.submit(payload)
            first.wait_for_job(job.id, timeout=300)
            _job, outcome = second.submit(payload)
            assert outcome == "cached"
        finally:
            first.drain()
            second.drain()

    def test_finished_jobs_are_evicted_to_bound_memory(self):
        service = TuningService(executor="thread", max_workers=1, max_finished_jobs=2)
        payload = matmul_request(m=16).to_dict()
        first, _ = service.submit(payload)
        service.drain()  # first job done and its report cached
        # reopen acceptance for the cached-path submissions below
        service.draining = False
        jobs = [service.submit(payload)[0] for _ in range(3)]
        assert all(job.from_cache for job in jobs)
        # only the newest max_finished_jobs records survive
        assert service.job(first.id) is None
        assert service.job(jobs[0].id) is None
        assert service.job(jobs[-1].id) is not None

    def test_racing_submitters_tune_each_key_exactly_once(self, monkeypatch):
        """Eight threads submit one new key per round while its run finishes
        among them, with a tiny switch interval: a lost update to the job
        table shows as a second tuning run, an unbalanced counter or a job
        that never ends."""

        def worker(payload, **_):
            time.sleep(0.001 * (payload["sizes"]["m"] % 3))  # finish amid the submitters
            return {"report": {}, "compiles": 1, "stages": {}, "from_cache": False}

        monkeypatch.setattr("repro.service.server.execute_request", worker)
        payloads = [matmul_request(m=16 + 8 * round_).to_dict() for round_ in range(15)]
        # resolve each key once up front, so the eight submitters of a round
        # reach the job table together instead of staggered by the resolve
        resolved = {p["sizes"]["m"]: TuneRequest.from_dict(p).resolve() for p in payloads}
        monkeypatch.setattr(TuneRequest, "resolve", lambda self, spec: resolved[self.sizes["m"]])
        service = TuningService(executor="thread", max_workers=4)
        handed = []
        barrier = threading.Barrier(8)

        def submitter():
            for payload in payloads:
                barrier.wait(timeout=60)
                handed.append(service.submit(payload)[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submitter) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            service.drain(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        counters = service.stats()["server"]
        assert counters["submitted"] == len(handed) == 120
        assert counters["tuning_runs"] == 15 and counters["failed"] == 0
        assert counters["deduplicated"] + counters["cache_hits"] == 105
        assert all(job.status == "done" for job in handed)
        assert service.jobs.idle and service.jobs.running == 0


# -- HTTP integration --------------------------------------------------------------
class TestHTTPServer:
    def test_healthz_and_kernels(self, thread_server):
        client = TuningClient(thread_server.url)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["executor"] == "thread"
        names = [k["name"] for k in client.kernels()["kernels"]]
        assert "matmul" in names and "jacobi1d" in names

    def test_unknown_endpoint_and_job_are_404(self, thread_server):
        client = TuningClient(thread_server.url)
        with pytest.raises(ServiceError) as error:
            client.status("not-a-job")
        assert error.value.status == 404
        with pytest.raises(ServiceError) as error:
            client._call("GET", "/nope")
        assert error.value.status == 404

    def test_malformed_tune_requests_are_400(self, thread_server):
        client = TuningClient(thread_server.url)
        with pytest.raises(ServiceError) as error:
            client.submit({"kernel": "no_such_kernel"})
        assert error.value.status == 400
        with pytest.raises(ServiceError) as error:
            client.submit({"kernel": "matmul", "strategy": "annealing"})
        assert error.value.status == 400

    def test_served_report_matches_direct_autotune(self, thread_server):
        request = matmul_request()
        client = TuningClient(thread_server.url)
        served = client.tune(request, timeout=300)
        resolved = request.resolve()
        direct = autotune(resolved.problem.program, space_options=resolved.problem.space_options)
        assert served.to_dict() == direct.to_dict()

    def test_hybrid_backend_round_trip(self, thread_server):
        """submit --backend hybrid:...: measured provenance over the wire."""
        client = TuningClient(thread_server.url)
        request = matmul_request(
            m=16,
            backend="hybrid:model>measure-py?top=4",
            space=WIDE_SPACE,
        )
        model_request = matmul_request(m=16, space=WIDE_SPACE)
        pending = client.submit(request)
        report = pending.result(timeout=300)
        assert report.best.measurement_kind == "measured-py"
        assert report.backend.startswith("hybrid:")
        # a model-priced request for the same kernel is a different job/key
        assert client.submit(model_request).fingerprint != pending.fingerprint

    def test_unavailable_backend_reports_per_job_error(self, thread_server):
        client = TuningClient(thread_server.url)
        request = matmul_request(backend="measure-c:cc=definitely-not-a-compiler-xyz")
        pending = client.submit(request)
        job = pending.job(timeout=300)
        assert job["status"] == "error"
        assert "no C toolchain" in job["error"]

    def test_eight_concurrent_identical_requests_cost_one_tuning_run(self, thread_server):
        """The acceptance criterion: N identical in-flight requests, one compile run."""
        request = matmul_request(m=48)
        expected_compiles = execute_request(request.to_dict())["compiles"]
        assert expected_compiles > 0

        client = TuningClient(thread_server.url)
        start = compiles_total()
        with ThreadPoolExecutor(max_workers=8) as pool:
            handles = list(pool.map(lambda _: client.submit(request), range(8)))
        reports = [handle.result(timeout=300) for handle in handles]

        # exactly one tuning run's worth of pipeline compiles, not eight
        assert compiles_total() - start == expected_compiles
        assert all(r.to_dict() == reports[0].to_dict() for r in reports)
        stats = client.cache_stats()["server"]
        assert stats["submitted"] == 8
        assert stats["tuning_runs"] == 1
        # every other submission attached in flight or hit the warm cache
        assert stats["deduplicated"] + stats["cache_hits"] == 7

    def test_repeated_request_is_served_from_cache_with_zero_compiles(self, thread_server):
        client = TuningClient(thread_server.url)
        request = matmul_request(m=24)
        first = client.submit(request)
        first.result(timeout=300)
        start = compiles_total()
        second = client.submit(request)
        # a warm hit carries its full state inline: no /status round trip,
        # and eviction between submit and poll cannot lose the answer
        assert second._job_state is not None
        job = second.job(timeout=60)
        assert second.cached
        assert job["from_cache"] and job["compiles"] == 0
        assert compiles_total() == start
        assert job["report"] == first.job()["report"]

    def test_cache_stats_report_backend_identity(self, thread_server):
        """/cache/stats names the persistence backend next to the counters."""
        stats = TuningClient(thread_server.url).cache_stats()["cache"]
        assert stats["backend"] == "memory"  # the fixture server has no path
        for field in ("entries", "bytes", "hits", "misses"):
            assert field in stats
        assert TuningClient(thread_server.url).cache_backend() == "memory"

    def test_server_runs_on_a_dir_store(self, tmp_path):
        """A dir: store URI threads through server, worker, and /cache/stats."""
        from repro.service.protocol import ordered_cache_stats

        spec = f"dir:{tmp_path / 'cache-dir'}"
        server = TuningServer(
            port=0, executor="thread", max_workers=2, cache=spec
        ).start()
        try:
            client = TuningClient(server.url)
            health = client.healthz()
            assert health["cache_backend"] == "log"
            assert health["cache_path"] == f"log:{tmp_path / 'cache-dir' / 'cache.log'}"
            request = matmul_request(m=24)
            client.tune(request, timeout=300)
            cache_stats = client.cache_stats()["cache"]
            assert cache_stats["backend"] == "log"
            assert cache_stats["entries"] == 1
            assert cache_stats["compactions"] == 0
            # the render helper puts common fields first, gauges after
            rendered = [name for name, _ in ordered_cache_stats(cache_stats)]
            assert rendered[:3] == ["backend", "entries", "bytes"]
            assert "compactions" in rendered[3:]
            # the worker persisted through the log: a fresh cache instance
            # (different process in production) starts warm
            assert request.resolve().fingerprint in TuningCache(spec)
        finally:
            server.stop()

    def test_server_on_log_store_counts_worker_entries(self, tmp_path):
        """Regression: /cache/stats must see entries workers appended to the log.

        The worker persists through its *own* store instance; the server's
        index is stale until ``stats()`` replays the log's tail.
        """
        spec = f"log:{tmp_path / 'cache.log'}"
        server = TuningServer(
            port=0, executor="thread", max_workers=2, cache=spec
        ).start()
        try:
            client = TuningClient(server.url)
            client.tune(matmul_request(m=24), timeout=300)
            stats = client.cache_stats()["cache"]
            assert stats["backend"] == "log"
            assert stats["entries"] == 1
            assert stats["compactions"] == 0
        finally:
            server.stop()

    def test_evicted_job_is_recovered_by_cached_resubmission(self, thread_server):
        """A finished job evicted before its waiter polled is not a lost report."""
        client = TuningClient(thread_server.url)
        request = matmul_request(m=56)
        pending = client.submit(request)
        report = pending.result(timeout=300)
        # simulate heavy-traffic eviction of the finished record
        service = thread_server.service
        with service._lock:
            del service.jobs.records[pending.job_id]
        late = PendingTuning(
            client, pending.job_id, pending.fingerprint, "created",
            request=request.to_dict(),
        )
        recovered = late.result(timeout=60)
        assert recovered.to_dict() == report.to_dict()

    def test_keepalive_connection_survives_posts_with_unread_bodies(self, thread_server):
        """Every POST path must drain the body, or HTTP/1.1 pipelining desyncs."""
        import http.client

        host, port = thread_server.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            body = json.dumps({"kernel": "matmul"})
            connection.request("POST", "/nope", body=body,
                              headers={"Content-Type": "application/json"})
            assert connection.getresponse().read() and True
            # the same persistent connection must still parse cleanly
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_invalid_content_length_is_400_and_closes(self, thread_server, length):
        """The body boundary is unknown: answer 400, drop the connection, and
        keep serving — no traceback, no handler thread parked on the socket."""
        with socket.create_connection(thread_server.address, timeout=10) as raw:
            raw.sendall(
                f"POST /tune HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode()
            )
            response = b""
            while chunk := raw.recv(4096):  # until the server closes
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"connection: close" in head.lower()
        assert "Content-Length" in json.loads(body)["error"]
        assert TuningClient(thread_server.url).healthz()["status"] == "ok"

    def test_stop_returns_on_a_server_that_never_started(self):
        """A fixture failing between construction and start() must not
        deadlock its teardown (httpd.shutdown() waits on serve_forever)."""
        server = TuningServer(port=0, executor="thread")
        address = server.address
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=10)
        assert not stopper.is_alive()
        with socket.socket() as probe:  # the port was released
            probe.bind(address)

    def test_shutdown_endpoint_drains_and_stops(self, capsys):
        server = TuningServer(port=0, executor="thread", max_workers=2).start()
        client = TuningClient(server.url)
        pending = client.submit(matmul_request(m=16))
        assert service_cli(["shutdown", "--url", server.url]) == 0
        assert "status: draining" in capsys.readouterr().out
        # serve_forever returns only after the drain: the serving thread ends
        server._thread.join(timeout=60)
        assert not server._thread.is_alive(), "server did not stop after /shutdown"
        # the accepted job was drained, not abandoned
        assert server.service.job(pending.job_id).status == "done"


# -- process pool ------------------------------------------------------------------
class TestProcessPool:
    def test_distinct_requests_run_on_worker_processes_in_parallel(self, tmp_path):
        server = TuningServer(
            port=0, executor="process", max_workers=2, cache=tmp_path / "cache.json"
        ).start()
        try:
            client = TuningClient(server.url)
            start = compiles_total()
            a = client.submit(matmul_request(m=32))
            b = client.submit(
                TuneRequest(kernel="jacobi1d", sizes={"size": 256}, space=SMALL_SPACE)
            )
            job_a, job_b = a.job(timeout=300), b.job(timeout=300)
            # both tuned on the pool's worker processes...
            assert job_a["status"] == "done" and job_b["status"] == "done"
            assert job_a["compiles"] > 0 and job_b["compiles"] > 0
            # ...so this (server) process never compiled anything, the GIL
            # escaped: every compile on its books arrived in a worker's delta
            assert compiles_total() - start == job_a["compiles"] + job_b["compiles"]
            assert client.cache_stats()["server"]["tuning_runs"] == 2
        finally:
            server.stop()

    def test_identical_concurrent_requests_share_one_worker_run(self, tmp_path):
        """Two clients, same fingerprint, one shared cache file: one tuning run."""
        cache_path = tmp_path / "cache.json"
        server = TuningServer(
            port=0, executor="process", max_workers=2, cache=cache_path
        ).start()
        try:
            client = TuningClient(server.url)
            request = matmul_request(m=40)
            with ThreadPoolExecutor(max_workers=2) as pool:
                handles = list(pool.map(lambda _: client.submit(request), range(2)))
            reports = [handle.result(timeout=300) for handle in handles]
            assert reports[0].to_dict() == reports[1].to_dict()
            stats = client.cache_stats()["server"]
            assert stats["tuning_runs"] == 1
            assert stats["deduplicated"] + stats["cache_hits"] == 1
            # the one run persisted through the shared, file-locked cache
            assert handles[0].fingerprint in TuningCache(cache_path)
        finally:
            server.stop()


# -- evaluation workers inside a job ------------------------------------------------
def _spans(roots):
    from repro.telemetry.trace import Span, iter_spans

    return [span for span, _ in iter_spans([Span.from_dict(root) for root in roots])]


def _kinds(spans):
    from collections import Counter

    return Counter((span.kind, span.name) for span in spans)


class TestEvaluationWorkers:
    """``eval_workers > 1`` fans a job's candidates out inside the worker that
    runs it.  Either way the job reads as its serial twin: same report,
    compiles and stage counts, and (traced) the same spans under ``search``."""

    def test_thread_job_evaluates_serially_with_a_warning(self, monkeypatch):
        from repro.autotune import ExecutorFallbackWarning

        stream = io.StringIO()
        monkeypatch.setattr(events, "EVENTS", events.EventLog(json_mode=True, stream=stream))

        def run(workers):
            service = TuningService(executor="thread", max_workers=1)
            request = matmul_request(m=16, space=WIDE_SPACE, eval_workers=workers, check_correctness=True)
            job, _outcome = service.submit(request.to_dict())
            service.drain()
            job = service.job(job.id)
            assert job.status == "done"
            return job.report, job.compiles, job.stages

        # the job thread shares this process with the server's threads: no fork
        with pytest.warns(ExecutorFallbackWarning, match="threads"):
            parallel = run(2)
        serial = run(1)
        assert serial[1] > 0 and parallel == serial
        fallbacks = [
            record for record in map(json.loads, stream.getvalue().splitlines())
            if record["event"] == "executor.fallback"
        ]
        assert [record["reason"] for record in fallbacks] == ["threads"]

    def test_process_job_forks_its_pool_and_ships_everything_home(self, tmp_path):
        request = matmul_request(m=16, space=WIDE_SPACE, check_correctness=True, trace=True)
        serial = execute_request(request.to_dict())  # eval_workers=1, in this process
        server = TuningServer(port=0, executor="process", max_workers=1).start()
        try:
            client = TuningClient(server.url)
            job = client.submit(TuneRequest(**{**request.to_dict(), "eval_workers": 2})).job(timeout=300)
        finally:
            server.stop()
        assert job["status"] == "done"
        assert (job["report"], job["compiles"], job["stages"]) == (
            serial["report"], serial["compiles"], serial["stages"]
        )
        spans = _spans(job["trace"])
        assert _kinds(spans) == _kinds(_spans(serial["trace"]))
        (search,) = [span for span in spans if span.kind == "search"]
        candidates = [span for span in _spans([search.to_dict()]) if span.kind == "candidate"]
        assert len(candidates) == len(job["report"]["results"]) > 1
        # grafted from the job's own pool workers, not evaluated on its thread
        assert search.tid not in {candidate.tid for candidate in candidates}


# -- tuning history and the fleet dashboard ----------------------------------------
class TestServiceHistory:
    def test_thread_server_appends_exactly_one_record_per_job(self, tmp_path):
        """Thread workers share the server process; the record must still be
        appended exactly once (by ``_finish``, never by the worker itself)."""
        from repro.telemetry.history import HistoryStore

        history_path = tmp_path / "history.jsonl"
        server = TuningServer(
            port=0, executor="thread", max_workers=2, history=history_path
        ).start()
        try:
            client = TuningClient(server.url)
            request = matmul_request(m=16)
            first = client.submit(request)
            first.result(timeout=300)
            second = client.submit(request)  # warm: answered at submit time
            second.result(timeout=60)

            tuned, hit = HistoryStore(history_path).records()
            assert not tuned.cache_hit and tuned.evaluations > 0
            assert tuned.source == "worker" and tuned.job_id == first.job_id
            assert hit.cache_hit and hit.evaluations == 0
            assert hit.source == "server" and hit.job_id == second.job_id
            assert hit.group_key() == tuned.group_key()

            payload = client.history_rollup()
            assert payload["history"]["records"] == 2
            (row,) = payload["rollup"]
            assert row["kernel"] == "matmul" and row["cache_hits"] == 1
        finally:
            server.stop()

    def test_traced_job_history_record_matches_the_span_tree(self, tmp_path):
        """Acceptance: the absorbed record's trace id is the id annotated on
        the job's shipped root span — one correlation key across /status,
        the event log, and the history store."""
        from repro.telemetry.history import HistoryStore

        history_path = tmp_path / "history.jsonl"
        server = TuningServer(
            port=0, executor="thread", max_workers=2, history=history_path
        ).start()
        try:
            client = TuningClient(server.url)
            request = matmul_request(
                m=16,
                backend="hybrid:model>measure-py?top=4",
                space=WIDE_SPACE,
                trace=True,
            )
            job = client.submit(request).job(timeout=300)
            assert job["status"] == "done"
            (record,) = HistoryStore(history_path).records()
            assert record.trace_id is not None
            assert job["trace_id"] == record.trace_id
            assert job["trace"][0]["attrs"]["trace_id"] == record.trace_id
            # hybrid backend: measured provenance and a persisted rho
            assert record.winner_kind == "measured-py"
            assert record.rho is not None
        finally:
            server.stop()

    def test_process_pool_ships_history_across_the_pickle_boundary(self, tmp_path):
        from repro.telemetry.history import HistoryStore

        history_path = tmp_path / "history.jsonl"
        server = TuningServer(
            port=0, executor="process", max_workers=2,
            cache=tmp_path / "cache.json", history=history_path,
        ).start()
        try:
            client = TuningClient(server.url)
            pending = client.submit(matmul_request(m=16))
            pending.result(timeout=300)
            (record,) = HistoryStore(history_path).records()
            assert record.source == "worker"
            assert record.job_id == pending.job_id
            assert record.evaluations > 0
        finally:
            server.stop()

    def test_dashboard_serves_html_with_kernel_names(self, tmp_path):
        server = TuningServer(
            port=0, executor="thread", max_workers=2,
            history=tmp_path / "history.jsonl",
        ).start()
        try:
            client = TuningClient(server.url)
            client.tune(matmul_request(m=16), timeout=300)
            html = client.dashboard()
            assert "<html" in html and "matmul" in html
            assert "repro tuning fleet" in html
            assert client.healthz()["history_path"] == str(tmp_path / "history.jsonl")
        finally:
            server.stop()

    def test_memory_history_when_no_path_configured(self, thread_server):
        client = TuningClient(thread_server.url)
        client.tune(matmul_request(m=16), timeout=300)
        payload = client.history_rollup()
        assert payload["history"]["path"] is None
        assert payload["history"]["records"] >= 1


# -- failed jobs (satellite: error outcomes are fully stamped) ---------------------
class TestFailedJobAccounting:
    def _outcome_totals(self):
        from repro.telemetry import parse_prometheus_text

        parsed = parse_prometheus_text(METRICS.render())
        return {
            dict(labels)["outcome"]: value
            for labels, value in parsed.get("repro_jobs_total", {}).items()
        }

    def test_worker_crash_stamps_duration_and_error_metrics(self, monkeypatch):
        def raiser(*args, **kwargs):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr("repro.service.server.execute_request", raiser)
        before_errors = self._outcome_totals().get("error", 0)
        before_count = METRICS.get("repro_job_seconds").count()
        service = TuningService(executor="thread", max_workers=1)
        try:
            job, _ = service.submit(matmul_request(m=16).to_dict())
            service.drain()
            job = service.job(job.id)
            assert job.status == "error"
            assert "worker exploded" in job.error
            # the record is fully stamped: duration, finish time, metrics
            assert job.duration_s is not None and job.duration_s >= 0.0
            assert job.finished_at is not None
            assert job.to_dict()["duration_s"] == job.duration_s
            assert self._outcome_totals().get("error", 0) == before_errors + 1
            assert METRICS.get("repro_job_seconds").count() == before_count + 1
        finally:
            service.drain()

    def test_unknown_kernel_is_rejected_before_a_job_exists(self):
        service = TuningService(executor="thread", max_workers=1)
        try:
            with pytest.raises(ValueError, match="unknown kernel"):
                service.submit({"kernel": "no_such_kernel"})
            assert service.jobs_snapshot() == []
            assert service.stats()["server"]["submitted"] == 0
        finally:
            service.drain()

    def test_unknown_kernel_over_http_is_400_and_leaves_no_job(self, thread_server):
        client = TuningClient(thread_server.url)
        with pytest.raises(ServiceError) as error:
            client.submit({"kernel": "no_such_kernel"})
        assert error.value.status == 400
        assert thread_server.service.jobs_snapshot() == []


# -- graceful shutdown -------------------------------------------------------------
class TestSigtermDrain:
    def test_sigterm_drains_inflight_jobs_before_exit(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "serve",
                "--port", "0", "--workers", "1", "--executor", "thread",
                "--cache", str(cache_path),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner
            url = banner.split("listening on ")[1].split()[0]
            client = TuningClient(url)
            # a wider space so the job is still in flight when SIGTERM lands
            pending = client.submit(matmul_request(m=64, space=WIDE_SPACE))
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=300)
            assert proc.returncode == 0
            output = proc.stdout.read()
            assert "draining in-flight jobs" in output
            assert "server drained and stopped" in output
            # the in-flight job ran to completion and persisted before exit
            assert pending.fingerprint in TuningCache(cache_path)
        finally:
            if proc.poll() is None:
                proc.kill()


# -- staged-compiler integration ---------------------------------------------------
class TestStagedCompilerThroughService:
    def test_job_reports_per_stage_execution_counts(self, tmp_path):
        """A cold job's record carries the worker's stage counts — analysis
        exactly once (the session-replay promise), tiling once per candidate —
        and a warm hit reports zero stage work, like zero compiles."""
        server = TuningServer(
            port=0, executor="thread", max_workers=1,
            cache=str(tmp_path / "cache.json"),
        ).start()
        try:
            client = TuningClient(server.url)
            cold = client.submit(matmul_request(m=24)).job(timeout=300)
            assert cold["stages"]["analysis"] == 1
            assert cold["stages"]["tiling"] >= 2  # once per evaluation, the seed's included
            warm = client.submit(matmul_request(m=24)).job(timeout=300)
            assert warm["from_cache"] is True
            assert warm["stages"] == {}
            assert warm["compiles"] == 0
        finally:
            server.stop()


# -- the python -m repro.service subcommands ---------------------------------------
MATMUL_16 = ["submit", "matmul", "--size", "m=16", "n=16", "k=16"]


class TestServiceCli:
    """``python -m repro.service`` run in-process against live thread servers:
    the strings its output promises, and the counters ``/metrics`` scrapes."""

    def test_subcommands_against_one_server(self, tmp_path, capsys, monkeypatch):
        """``submit`` cold then warm, ``status``, ``stats``, ``fleet`` and ``top``,
        then a distributed-gemm round trip whose grid variant reaches the
        server's history; every job lifecycle edge is in the JSON event log."""
        log = io.StringIO()
        json_log = events.EventLog(json_mode=True, level="info", stream=log)
        monkeypatch.setattr(events, "EVENTS", json_log)
        tuned = METRICS.get("repro_jobs_total").value(outcome="tuned")
        history = tmp_path / "history.jsonl"
        server = TuningServer(port=0, executor="thread", max_workers=2, history=history).start()
        url = server.url
        try:
            submit = [*MATMUL_16, "--threads", "64", "--blocks", "16", "--url", url, "--wait"]
            assert service_cli(submit) == 0
            cold = capsys.readouterr().out
            assert "from-cache: false" in cold
            job_id = re.search(r"^job: (\S+)$", cold, re.M).group(1)
            # the identical request again: answered at submission, zero compiles
            assert service_cli(submit) == 0
            warm = capsys.readouterr().out
            assert "outcome: cached" in warm
            assert "from-cache: true" in warm
            assert "compiles: 0" in warm
            assert service_cli(["status", job_id, "--url", url]) == 0
            status = capsys.readouterr().out
            assert "status: done" in status and "duration: " in status
            assert service_cli(["stats", "--url", url]) == 0
            stats = capsys.readouterr().out
            assert "backend: memory" in stats and "tuning_runs: 1" in stats
            assert service_cli(["fleet", "--url", url]) == 0
            assert "not configured" in capsys.readouterr().out
            assert service_cli(["top", "--url", url, "--iterations", "1"]) == 0
            frame = capsys.readouterr().out
            assert "repro tuning fleet" in frame
            # the registry is process-wide: this job is the one tuned since `tuned`
            assert f"tuned={tuned + 1:.0f}" in frame and "tuning_runs=1" in frame

            submit = ["submit", "distributed-gemm", "--size", "m=32", "n=32", "k=32",
                      "--url", url, "--wait"]
            assert service_cli(submit) == 0
            cold = capsys.readouterr().out
            assert "from-cache: false" in cold
            assert "via model-dist" in cold and "schedule=" in cold
            assert service_cli(submit) == 0
            warm = capsys.readouterr().out
            assert "from-cache: true" in warm and "compiles: 0" in warm
        finally:
            server.stop()
        for event in ("job.submit", "job.start", "job.done"):
            assert f'"event": "{event}"' in log.getvalue()
        assert autotune_cli(["history", "list", str(history)]) == 0
        assert "distributed-gemm 16x16:WSE-2 subgrid" in capsys.readouterr().out

    def test_traced_hybrid_submit_scrape_and_render(self, thread_server, tmp_path, capsys):
        trace_path, chrome = tmp_path / "t.json", tmp_path / "chrome.json"
        submit = [
            *MATMUL_16, "--threads", "16", "32", "--blocks", "4", "8",
            "--backend", "hybrid:model>measure-py?top=4",
            "--url", thread_server.url,
        ]
        assert service_cli([*submit, "--trace", str(trace_path)]) == 0
        traced = capsys.readouterr().out
        assert re.search(rf"trace: \d+ spans -> {re.escape(str(trace_path))}", traced)
        assert "duration: " in traced
        assert "best measured as: measured-py" in traced and "via measured-py" in traced
        # the identical request warm: a cache hit in /metrics
        assert service_cli([*submit, "--wait"]) == 0
        assert "from-cache: true" in capsys.readouterr().out
        parsed = parse_prometheus_text(TuningClient(thread_server.url).metrics())
        stages = {dict(k).get("stage") for k in parsed["repro_stage_runs_total"]}
        assert {"analysis", "tiling"} <= stages
        assert parsed["repro_cache_hits_total"][()] >= 1
        kinds = {dict(k).get("kind") for k in parsed["repro_measurements_total"]}
        assert {"model", "measured-py"} <= kinds
        # the trace CLI renders the capture
        assert autotune_cli(["trace", str(trace_path), "--chrome", str(chrome)]) == 0
        rendered = capsys.readouterr().out
        for needle in ("request [request]", "analysis [pass]", "hotspots"):
            assert needle in rendered
        assert json.loads(chrome.read_text())["traceEvents"]
