"""The long-lived tuning server: work queue, dedup, shared cache, HTTP API.

Two layers:

* :class:`TuningService` — the transport-agnostic engine.  Incoming requests
  are fingerprinted synchronously; a warm cache entry answers instantly with
  zero compiles, an identical *in-flight* request attaches to the existing
  job (N concurrent submitters, exactly one tuning run), and everything else
  is queued onto a ``ProcessPoolExecutor`` (or thread pool) worker.
* :class:`TuningServer` — a stdlib ``ThreadingHTTPServer`` exposing the
  engine as JSON over HTTP: ``POST /tune``, ``POST /tune/batch``,
  ``GET /status/<job>`` (``?wait=SECONDS`` long-polls until the job
  finishes), ``GET /cache/stats``, ``GET /healthz``, ``GET /kernels``,
  ``GET /history`` (the tuning-history rollup), ``GET /dashboard``
  (the HTML fleet view), ``GET /fleet``, ``POST /shutdown``.

Several servers form a *fleet* (see :mod:`repro.fleet`): a consistent-hash
ring assigns every tuning fingerprint one home server, and a non-home
server either 307-redirects ``/tune`` to the home or proxies it there —
so in-flight dedup (exactly one tuning run for N identical concurrent
submissions) holds across the whole fleet, not just per process.  Worker
scheduling goes through a priority queue: small warm probes overtake giant
cold sweeps instead of queueing FIFO behind them.

Every lifecycle edge (submit, dedup-join, start, cache put, done, error)
emits a structured event through :mod:`repro.telemetry.events`; each
completed job appends one :class:`~repro.telemetry.history.HistoryRecord`
to the service's history store — shipped back from process workers
alongside the metrics delta.

Shutdown is graceful: :meth:`TuningService.drain` rejects new submissions
(503) while every accepted job runs to completion — and, with a file-backed
cache, persists — before the pool stops.  The ``serve`` CLI wires SIGTERM to
exactly that.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time
import uuid
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import wait as wait_futures
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.kernels.registry import available_kernels, get_kernel
from repro.machine.spec import GEFORCE_8800_GTX, GPUSpec
from repro.telemetry import METRICS, summarize_spans
from repro.telemetry.events import emit
from repro.telemetry.history import HistoryRecord, HistoryStore, open_history, rollup
from repro.autotune.cache import TuningCache
from repro.autotune.search import EXECUTORS
from repro.fleet.queue import PriorityExecutor, space_cost_estimate
from repro.fleet.registry import FleetRegistry
from repro.service.dashboard import render_dashboard
from repro.service.protocol import JobRecord, TuneRequest
from repro.service.worker import execute_request

#: service-level metrics (the autotune/compiler layers register their own)
JOBS_TOTAL = METRICS.counter(
    "repro_jobs_total",
    "Tuning jobs reaching a terminal state, by outcome.",
    labels=("outcome",),  # cached | tuned | error
)
JOB_SECONDS = METRICS.histogram(
    "repro_job_seconds",
    "Queue+run wall time of worker-executed jobs (monotonic clock).",
)
HTTP_REQUESTS_TOTAL = METRICS.counter(
    "repro_http_requests_total",
    "HTTP requests served, by method and endpoint (path parameters folded).",
    labels=("method", "endpoint"),
)
FLEET_REDIRECTS_TOTAL = METRICS.counter(
    "repro_fleet_redirects_total",
    "Requests routed to their home server, by routing mode.",
    labels=("mode",),  # redirect | proxy | batch-redirect
)

#: ceiling on one long-poll /status wait — clients loop for longer waits, so
#: a handler thread is never parked longer than this
MAX_STATUS_WAIT_S = 30.0


class ServiceUnavailable(RuntimeError):
    """Raised for submissions that arrive while the server is draining."""


class TuningService:
    """Transport-agnostic tuning engine: dedup, shared cache, worker pool.

    ``executor="process"`` uses spawn-started workers (fork from a process
    already running HTTP handler threads can clone a mid-acquire lock and
    deadlock the child), which carries the standard multiprocessing caveat:
    the embedding program's main module must be importable — true for
    ``python -m repro.service``, pytest, and any real script file with an
    ``if __name__ == "__main__"`` guard, but not for a bare REPL/stdin
    script, where ``executor="thread"`` should be used instead.
    """

    def __init__(
        self,
        cache: Union[TuningCache, str, Path, None] = None,
        executor: str = "process",
        max_workers: int = 2,
        spec: GPUSpec = GEFORCE_8800_GTX,
        max_finished_jobs: int = 1024,
        absorb_limit: Optional[int] = None,
        history: Union[HistoryStore, str, Path, None] = None,
        reuse_artifacts: bool = False,
        fleet: Optional[FleetRegistry] = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers!r}")
        if max_finished_jobs < 1:
            raise ValueError(f"max_finished_jobs must be positive, got {max_finished_jobs!r}")
        # absorb_limit bounds the cache facade's in-memory overlay of results
        # absorbed from worker processes, keeping a long-lived server's
        # resident memory flat (evicted entries are re-read from the store).
        # None keeps the cache's own bound (the TuningCache default).
        self.cache = cache if isinstance(cache, TuningCache) else TuningCache(cache)
        if absorb_limit is not None:
            self.cache.set_absorb_limit(absorb_limit)
        # Always have a history store so /dashboard and the history rollup
        # work out of the box; without a path it simply stays in memory.
        # (`or` would be wrong here: an empty store is falsy via __len__.)
        opened = open_history(history)
        self.history = opened if opened is not None else HistoryStore()
        self.executor = executor
        self.max_workers = max_workers
        self.spec = spec
        #: finished job records kept for /status before the oldest are evicted
        self.max_finished_jobs = max_finished_jobs
        #: opt-in cross-request analysis-artifact reuse in the workers
        self.reuse_artifacts = reuse_artifacts
        if executor == "process":
            # Workers spawn lazily, at the first submit — i.e. from a process
            # whose HTTP handler threads are already running.  fork() from a
            # multi-threaded process can clone a mid-acquire lock into the
            # child and deadlock it, so use the spawn start method.
            self._pool: Any = ProcessPoolExecutor(
                max_workers=max_workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
        else:
            self._pool = ThreadPoolExecutor(max_workers=max_workers)
        # The priority front: at most max_workers tasks sit in the pool; the
        # rest queue by (priority class, sweep cost, arrival) so small warm
        # probes overtake giant cold sweeps instead of waiting behind them.
        self._queue = PriorityExecutor(self._pool, max_workers)
        #: this server's fleet view (None: a standalone server, no routing)
        self.fleet = fleet
        # Reentrant: a future that completes before submit() releases the lock
        # runs its done-callback (_finish) synchronously on this thread.
        self._lock = threading.RLock()
        #: signalled (notify_all) every time a job reaches a terminal state —
        #: what long-poll /status waits block on
        self._finished_cond = threading.Condition(self._lock)
        self._jobs: Dict[str, JobRecord] = {}
        self._futures: Dict[str, Future] = {}
        #: fingerprint → job id of the one in-flight job covering it
        self._inflight: Dict[str, str] = {}
        self._draining = False
        self.counters = {
            "submitted": 0,
            "deduplicated": 0,
            "cache_hits": 0,
            "tuning_runs": 0,
            "failed": 0,
        }

    # -- submission --------------------------------------------------------------------
    def submit(self, payload: Mapping[str, Any]) -> Tuple[JobRecord, str]:
        """Accept one request; returns ``(job, outcome)``.

        ``outcome`` is ``"created"`` (a new tuning run was queued),
        ``"deduplicated"`` (attached to an identical in-flight job — no new
        work), ``"cached"`` (answered from the warm cache with zero
        compiles), or ``"error"`` (the worker pool refused the job — e.g. a
        broken process pool).  Raises ``ValueError`` for malformed requests
        and :class:`ServiceUnavailable` while draining.
        """
        request = TuneRequest.from_dict(dict(payload))
        resolved = request.resolve(self.spec)  # fingerprint only — no compile
        key = resolved.fingerprint
        with self._lock:
            if self._draining:
                raise ServiceUnavailable("server is draining; not accepting new requests")
            self.counters["submitted"] += 1
            emit(
                "job.submit",
                kernel=request.kernel,
                fingerprint=key[:16],
                backend=request.backend,
            )

            inflight_id = self._inflight.get(key)
            if inflight_id is not None:
                job = self._jobs[inflight_id]
                job.waiters += 1
                self.counters["deduplicated"] += 1
                emit(
                    "job.dedup",
                    job_id=job.id,
                    kernel=request.kernel,
                    fingerprint=key[:16],
                    waiters=job.waiters,
                )
                return job, "deduplicated"

            stored = self.cache.get(key)
            if stored is not None:
                self.counters["cache_hits"] += 1
                job = JobRecord(
                    id=self._new_job_id(),
                    fingerprint=key,
                    request=request.to_dict(),
                    status="done",
                    from_cache=True,
                    compiles=0,
                    stages={},
                    report=dict(stored),
                )
                job.mark_finished()  # duration_s ~ 0: answered at submission
                JOBS_TOTAL.inc(outcome="cached")
                self._jobs[job.id] = job
                self.history.append(
                    HistoryRecord.from_report(
                        stored,
                        key,
                        grid=resolved.grid,
                        cache_hit=True,
                        wall_s=job.duration_s or 0.0,
                        source="server",
                        job_id=job.id,
                    )
                )
                emit(
                    "job.cached",
                    job_id=job.id,
                    kernel=request.kernel,
                    fingerprint=key[:16],
                )
                self._evict_finished_locked()
                return job, "cached"

            job = JobRecord(id=self._new_job_id(), fingerprint=key, request=request.to_dict())
            self._jobs[job.id] = job
            self._inflight[key] = job.id
            # Workers (thread or process) open their own cache instance from
            # the store URI: a fresh open can pick up entries a *different*
            # server sharing the store persisted since our pre-check, their
            # counters stay off this instance's books (one counted lookup per
            # request — the submit-time get above), and _finish absorbs the
            # result back into memory either way.  The URI round-trips every
            # backend (plain .json path, dir: sharded store, log: append log).
            cache_path = self.cache.uri
            task = partial(
                execute_request,
                job.request,
                cache_path=cache_path,
                spec=self.spec,
                job_id=job.id,
                reuse_artifacts=self.reuse_artifacts,
            )
            try:
                future = self._queue.submit(
                    task,
                    priority=request.priority,
                    cost=space_cost_estimate(resolved.space_options),
                )
            except Exception as error:  # e.g. BrokenProcessPool after a worker died
                # Roll back the in-flight registration: the fingerprint must
                # not stay wedged on a job that will never get a future.
                self._inflight.pop(key, None)
                job.error = f"{type(error).__name__}: {error}"
                job.status = "error"
                job.mark_finished()
                JOBS_TOTAL.inc(outcome="error")
                if job.duration_s is not None:
                    JOB_SECONDS.observe(job.duration_s)
                self.counters["failed"] += 1
                emit(
                    "job.error",
                    level="error",
                    job_id=job.id,
                    kernel=request.kernel,
                    error=job.error,
                )
                self._evict_finished_locked()
                return job, "error"
            self._futures[job.id] = future
            future.add_done_callback(partial(self._finish, job.id))
            emit(
                "job.start",
                job_id=job.id,
                kernel=request.kernel,
                fingerprint=key[:16],
            )
            return job, "created"

    def submit_batch(
        self, payloads: Iterable[Mapping[str, Any]]
    ) -> List[Tuple[Optional[JobRecord], str, Optional[str]]]:
        """Accept many requests; per item ``(job, outcome, error)``.

        Items are independent — one malformed request yields an ``invalid``
        outcome for that slot (``job`` ``None``, ``error`` the message) and
        never poisons its neighbours.  Everything lands on the priority
        queue, so within the batch small probes still run before big sweeps.
        """
        results: List[Tuple[Optional[JobRecord], str, Optional[str]]] = []
        for payload in payloads:
            try:
                job, outcome = self.submit(payload)
                results.append((job, outcome, None))
            except ServiceUnavailable:
                raise  # draining rejects the whole batch: nothing partial
            except (ValueError, TypeError) as error:
                results.append((None, "invalid", str(error)))
        return results

    def fingerprint_of(self, payload: Mapping[str, Any]) -> str:
        """The fingerprint a payload would tune under — no submission.

        What fleet routing keys off: cheap (no compile), and raising the
        same ``ValueError`` a submission would, so a non-home server still
        400s malformed requests instead of bouncing them around the ring.
        """
        request = TuneRequest.from_dict(dict(payload))
        return request.resolve(self.spec).fingerprint

    def wait_for_job(
        self, job_id: str, timeout: float
    ) -> Optional[Dict[str, Any]]:
        """Long-poll: the job's snapshot once finished, or at ``timeout``.

        ``None`` for an unknown job.  Parked on a condition the finish path
        signals — zero polling; an evicted-while-waiting job returns
        ``None`` and the client falls back to its recovery path.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._finished_cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    return None
                if job.finished:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._finished_cond.wait(remaining)
            return self.job_payload(job_id)

    def _new_job_id(self) -> str:
        return uuid.uuid4().hex[:12]

    def _evict_finished_locked(self) -> None:
        """Bound memory on a long-lived server: drop the oldest finished jobs.

        Caller holds the lock.  In-flight jobs are never evicted; dict order
        is insertion order, so the survivors are the newest records.
        """
        finished = [job_id for job_id, job in self._jobs.items() if job.finished]
        excess = len(finished) - self.max_finished_jobs
        for job_id in finished[:max(excess, 0)]:
            del self._jobs[job_id]

    def _finish(self, job_id: str, future: Future) -> None:
        with self._lock:
            job = self._jobs[job_id]
            self._inflight.pop(job.fingerprint, None)
            self._futures.pop(job_id, None)
            job.mark_finished()
            try:
                outcome = future.result()
            except (Exception, CancelledError) as error:
                # worker died, unpicklable state, or drained with a hard timeout
                job.error = f"{type(error).__name__}: {error}"
                job.status = "error"
                JOBS_TOTAL.inc(outcome="error")
                # Failed jobs burn queue+run wall time too; leaving them out
                # of the latency histogram would make a flapping fleet look
                # *faster* the more its jobs die.
                if job.duration_s is not None:
                    JOB_SECONDS.observe(job.duration_s)
                self.counters["failed"] += 1
                emit("job.error", level="error", job_id=job.id, error=job.error)
                self._evict_finished_locked()
                self._finished_cond.notify_all()
                return
            # Populate the result fields before flipping status: "done" is the
            # publication point status readers key off.
            job.report = outcome["report"]
            job.compiles = outcome["compiles"]
            job.stages = outcome.get("stages")
            job.from_cache = outcome["from_cache"]
            job.trace = outcome.get("trace")
            if job.trace:
                job.span_summary = summarize_spans(job.trace)
            job.status = "done"
            JOBS_TOTAL.inc(outcome="cached" if outcome["from_cache"] else "tuned")
            if job.duration_s is not None:
                JOB_SECONDS.observe(job.duration_s)
            # A process worker's registry bumps happened in its own process;
            # absorb its shipped delta so /metrics reflects the whole fleet.
            # Thread workers share *this* registry — absorbing their delta
            # would double-count every sample.
            if self.executor == "process" and outcome.get("metrics"):
                METRICS.absorb(outcome["metrics"])
            if outcome["from_cache"]:
                self.counters["cache_hits"] += 1
            else:
                self.counters["tuning_runs"] += 1
            # A process worker persisted through its own TuningCache instance;
            # absorb keeps this instance's warm-hit path and stats() current
            # without a redundant read-merge-write.
            self.cache.absorb(job.fingerprint, outcome["report"])
            emit(
                "cache.put",
                level="debug",
                job_id=job.id,
                fingerprint=job.fingerprint[:16],
            )
            # The worker shipped its history record like the metrics delta;
            # the server owns the store, so this is the single append per job
            # whichever executor ran it.
            history_payload = outcome.get("history")
            if history_payload is not None:
                record = HistoryRecord.from_dict(history_payload)
                record.job_id = job.id
                job.trace_id = record.trace_id
                self.history.append(record)
            emit(
                "job.done",
                job_id=job.id,
                from_cache=outcome["from_cache"],
                duration_s=round(job.duration_s, 3) if job.duration_s else 0.0,
                trace_id=job.trace_id,
            )
            self._evict_finished_locked()
            self._finished_cond.notify_all()

    # -- inspection --------------------------------------------------------------------
    def job(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and not job.finished:
                future = self._futures.get(job_id)
                job.status = "running" if future is not None and future.running() else "queued"
            return job

    def job_payload(self, job_id: str) -> Optional[Dict[str, Any]]:
        """A consistent ``/status`` snapshot, built while holding the lock.

        Handler threads must not serialise a live :class:`JobRecord` outside
        the lock — a job finishing concurrently could be observed half-updated.
        """
        with self._lock:
            job = self.job(job_id)
            return None if job is None else job.to_dict()

    def job_counts(self) -> Dict[str, int]:
        counts = {"queued": 0, "running": 0, "done": 0, "error": 0}
        with self._lock:
            running = {
                job_id for job_id, future in self._futures.items() if future.running()
            }
            for job in self._jobs.values():
                if job.finished:
                    counts[job.status] += 1
                elif job.id in running:
                    counts["running"] += 1
                else:
                    counts["queued"] += 1
        return counts

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def stats(self) -> Dict[str, Any]:
        """The ``/cache/stats`` payload: cache, server counters, job counts.

        The ``cache`` section carries the persistence backend's identity and
        gauges (``backend``, ``entries``, ``bytes``, plus e.g. ``shards`` for
        the sharded store or ``segments``/``compactions`` for the append
        log) alongside this instance's hit/miss counters — see
        :data:`repro.service.protocol.CACHE_STATS_COMMON_FIELDS`.
        """
        with self._lock:
            counters = dict(self.counters)
        return {
            "cache": self.cache.stats(),
            "server": counters,
            "jobs": self.job_counts(),
            "queue": self._queue.queue_depths(),
        }

    def health(self) -> Dict[str, Any]:
        payload = {
            "status": "draining" if self.draining else "ok",
            "executor": self.executor,
            "workers": self.max_workers,
            "cache_path": self.cache.uri,
            "cache_backend": self.cache.backend,
            "history_path": self.history.uri,
            "jobs": self.job_counts(),
        }
        if self.fleet is not None:
            payload["fleet"] = self.fleet.describe()
        return payload

    def jobs_snapshot(self) -> list:
        """Lightweight (report-free) snapshots of every retained job."""
        with self._lock:
            return [job.to_dict(include_report=False) for job in self._jobs.values()]

    def history_rollup(self) -> Dict[str, Any]:
        """The ``GET /history`` payload: store stats + per-group rollup."""
        records = self.history.records()
        return {"history": self.history.stats(), "rollup": rollup(records)}

    def dashboard_html(self) -> str:
        """The ``GET /dashboard`` page."""
        return render_dashboard(
            self.health(), self.stats(), self.jobs_snapshot(), self.history.records()
        )

    # -- lifecycle ---------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> None:
        """Stop accepting work and wait until every accepted job finished.

        Queued-but-unstarted jobs still run: the pool keeps consuming its
        queue until :meth:`Executor.shutdown` completes, so every job a client
        was promised a report for produces one (and, with a file-backed cache,
        persists it) before this method returns.  With a ``timeout``, jobs
        still unfinished when it expires are cancelled (their records flip to
        ``error``) so shutdown time stays bounded; already-running work on a
        process pool finishes its current task regardless.
        """
        with self._lock:
            self._draining = True
            pending = list(self._futures.values())
        unfinished = wait_futures(pending, timeout=timeout).not_done if pending else set()
        # Shut down through the priority front so still-queued (undispatched)
        # tasks are cancelled or flushed consistently with the pool.
        if unfinished:
            self._queue.shutdown(wait=False, cancel_futures=True)
        else:
            self._queue.shutdown(wait=True)


class TuningRequestHandler(BaseHTTPRequestHandler):
    """Routes the JSON-over-HTTP API onto a :class:`TuningService`."""

    server_version = "repro-tuning-server/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> TuningService:
        return self.server.service  # type: ignore[attr-defined]

    def _send_json(self, code: int, payload: Mapping[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _count_request(self, method: str, path: str) -> None:
        # fold path parameters so the label space stays bounded: every
        # /status/<job> is one endpoint, and unknown paths are one bucket
        known = (
            "/tune",
            "/tune/batch",
            "/shutdown",
            "/metrics",
            "/healthz",
            "/cache/stats",
            "/kernels",
            "/dashboard",
            "/history",
            "/fleet",
        )
        if path.startswith("/status/"):
            endpoint = "/status"
        elif path in known:
            endpoint = path
        else:
            endpoint = "other"
        HTTP_REQUESTS_TOTAL.inc(method=method, endpoint=endpoint)

    def _drain_body(self) -> bytes:
        """Read the request body unconditionally.

        Under HTTP/1.1 keep-alive an unread body would be parsed as the next
        request line on the same connection, so every POST path must drain it
        — including 404s and /shutdown, which ignore the content.
        """
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path
        self._count_request("GET", path)
        if path == "/metrics":
            # Prometheus text exposition format 0.0.4 — `curl`-able and
            # scrapeable; everything else on this server speaks JSON.
            self._send_text(
                200, METRICS.render(), "text/plain; version=0.0.4; charset=utf-8"
            )
        elif path == "/healthz":
            self._send_json(200, self.service.health())
        elif path == "/cache/stats":
            self._send_json(200, self.service.stats())
        elif path == "/kernels":
            kernels = [get_kernel(name).describe() for name in available_kernels()]
            self._send_json(200, {"kernels": kernels})
        elif path == "/dashboard":
            self._send_text(
                200, self.service.dashboard_html(), "text/html; charset=utf-8"
            )
        elif path == "/history":
            self._send_json(200, self.service.history_rollup())
        elif path == "/fleet":
            fleet = self.service.fleet
            if fleet is None:
                self._send_json(200, {"fleet": None, "queue": self.service._queue.queue_depths()})
            else:
                self._send_json(
                    200,
                    {
                        "fleet": fleet.describe(),
                        "queue": self.service._queue.queue_depths(),
                    },
                )
        elif path.startswith("/status/"):
            job_id = path[len("/status/"):]
            wait_s = self._wait_seconds()
            if wait_s is None:
                self._send_json(400, {"error": "wait must be a non-negative number"})
                return
            if wait_s > 0:
                payload = self.service.wait_for_job(
                    job_id, min(wait_s, MAX_STATUS_WAIT_S)
                )
            else:
                payload = self.service.job_payload(job_id)
            if payload is None:
                self._send_json(404, {"error": "unknown job"})
            else:
                self._send_json(200, payload)
        else:
            self._send_json(404, {"error": f"unknown endpoint {path!r}"})

    def _wait_seconds(self) -> Optional[float]:
        """The ``?wait=SECONDS`` long-poll parameter (0 when absent).

        ``None`` signals a malformed value — the caller answers 400.
        """
        query = parse_qs(urlparse(self.path).query)
        raw = query.get("wait", ["0"])[-1]
        try:
            wait_s = float(raw)
        except ValueError:
            return None
        return wait_s if wait_s >= 0 else None

    def _route_home(self, payload: Mapping[str, Any]) -> Optional[str]:
        """Fleet routing for one /tune payload.

        ``None``: handle locally (standalone server, or this node is the
        fingerprint's home).  Otherwise the response has been sent — a 307
        pointing at the home (redirect mode) or the home's relayed answer
        (proxy mode) — and the caller must stop.
        """
        fleet = self.service.fleet
        if fleet is None:
            return None
        fingerprint = self.service.fingerprint_of(payload)  # ValueError → 400
        home = fleet.home(fingerprint)
        if home == fleet.node_id:
            return None
        if fleet.mode == "redirect":
            FLEET_REDIRECTS_TOTAL.inc(mode="redirect")
            location = home + "/tune"
            body = json.dumps(
                {"redirect": location, "node": home, "fingerprint": fingerprint}
            ).encode("utf-8")
            # 307 preserves method+body, so the client re-POSTs verbatim.
            self.send_response(307)
            self.send_header("Location", location)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:  # proxy
            FLEET_REDIRECTS_TOTAL.inc(mode="proxy")
            status, relayed = fleet.forward_tune(home, payload)
            if isinstance(relayed, dict):
                relayed.setdefault("node", home)
            self._send_json(status, relayed)
        return home

    def _tune_response(self, job: JobRecord, outcome: str) -> Dict[str, Any]:
        response: Dict[str, Any] = {
            "job": job.id,
            "fingerprint": job.fingerprint,
            "status": job.status,
            "outcome": outcome,
        }
        if self.service.fleet is not None:
            response["node"] = self.service.fleet.node_id
        # A job finished at submission (warm hit) carries its full state
        # inline, so the client needs no /status round trip — and cannot
        # lose the answer to finished-job eviction in between.
        if job.finished:
            response["job_state"] = self.service.job_payload(job.id)
        return response

    def _batch_item(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One /tune/batch slot: routed, submitted, or per-item error.

        Batch items are never answered with 307 — a multi-status redirect
        cannot be expressed in one response — so in redirect mode a non-home
        item comes back as outcome ``redirected`` with the home's URL for the
        client to resubmit; in proxy mode it is forwarded transparently.
        """
        fleet = self.service.fleet
        try:
            if fleet is not None:
                fingerprint = self.service.fingerprint_of(payload)
                home = fleet.home(fingerprint)
                if home != fleet.node_id:
                    if fleet.mode == "redirect":
                        FLEET_REDIRECTS_TOTAL.inc(mode="batch-redirect")
                        return {
                            "outcome": "redirected",
                            "node": home,
                            "redirect": home + "/tune",
                            "fingerprint": fingerprint,
                        }
                    FLEET_REDIRECTS_TOTAL.inc(mode="proxy")
                    status, relayed = fleet.forward_tune(home, payload)
                    if isinstance(relayed, dict):
                        relayed.setdefault("node", home)
                        if status >= 400:
                            relayed.setdefault("outcome", "error")
                        return relayed
                    return {"outcome": "error", "error": f"peer returned {status}"}
            job, outcome = self.service.submit(payload)
        except ServiceUnavailable:
            raise  # 503s the whole batch
        except (ValueError, TypeError) as error:
            return {"outcome": "invalid", "error": str(error)}
        return self._tune_response(job, outcome)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path
        self._count_request("POST", path)
        raw = self._drain_body()
        if path == "/tune":
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (ValueError, UnicodeDecodeError) as error:
                self._send_json(400, {"error": f"invalid JSON body: {error}"})
                return
            if not isinstance(payload, dict):
                self._send_json(400, {"error": "request body must be a JSON object"})
                return
            try:
                if self._route_home(payload) is not None:
                    return  # routed to its home server; response already sent
                job, outcome = self.service.submit(payload)
            except ServiceUnavailable as error:
                self._send_json(503, {"error": str(error)})
                return
            except (ValueError, TypeError) as error:
                self._send_json(400, {"error": str(error)})
                return
            response = self._tune_response(job, outcome)
            self._send_json(200, response)
        elif path == "/tune/batch":
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (ValueError, UnicodeDecodeError) as error:
                self._send_json(400, {"error": f"invalid JSON body: {error}"})
                return
            requests = payload.get("requests") if isinstance(payload, dict) else None
            if not isinstance(requests, list) or not all(
                isinstance(item, dict) for item in requests
            ):
                self._send_json(
                    400,
                    {"error": "body must be {\"requests\": [<TuneRequest>, ...]}"},
                )
                return
            try:
                jobs = [self._batch_item(item) for item in requests]
            except ServiceUnavailable as error:
                self._send_json(503, {"error": str(error)})
                return
            self._send_json(200, {"jobs": jobs})
        elif path == "/shutdown":
            # Only loopback peers may stop the server: anyone who can reach a
            # --host 0.0.0.0 deployment must not be able to deny service.
            if self.client_address[0] not in ("127.0.0.1", "::1"):
                self._send_json(403, {"error": "shutdown is restricted to loopback clients"})
                return
            self._send_json(200, {"status": "draining"})
            threading.Thread(
                target=self.server.tuning_server.stop,  # type: ignore[attr-defined]
                daemon=True,
            ).start()
        else:
            self._send_json(404, {"error": f"unknown endpoint {path!r}"})

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # keep the server quiet; the CLI prints lifecycle events


class TuningServer:
    """A :class:`TuningService` bound to an HTTP address.

    ``port=0`` binds an ephemeral port; the actual address is available as
    :attr:`url` immediately after construction.  Use :meth:`serve_forever` in
    the foreground (the CLI) or :meth:`start` for a background thread (tests,
    examples), and :meth:`stop` for a graceful drain-then-shutdown.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8037,
        cache: Union[TuningCache, str, Path, None] = None,
        executor: str = "process",
        max_workers: int = 2,
        spec: GPUSpec = GEFORCE_8800_GTX,
        absorb_limit: Optional[int] = None,
        history: Union[HistoryStore, str, Path, None] = None,
        reuse_artifacts: bool = False,
        peers: Iterable[str] = (),
        fleet_mode: str = "redirect",
        advertise_url: Optional[str] = None,
    ) -> None:
        self.service = TuningService(
            cache=cache,
            executor=executor,
            max_workers=max_workers,
            spec=spec,
            absorb_limit=absorb_limit,
            history=history,
            reuse_artifacts=reuse_artifacts,
        )
        self._httpd = ThreadingHTTPServer((host, port), TuningRequestHandler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._httpd.tuning_server = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        # Fleet membership needs the *bound* address (port may have been 0),
        # so the registry is built after the socket exists.
        if list(peers):
            self.configure_fleet(peers, mode=fleet_mode, advertise_url=advertise_url)

    def configure_fleet(
        self,
        peers: Iterable[str],
        mode: str = "redirect",
        advertise_url: Optional[str] = None,
    ) -> FleetRegistry:
        """Join (or re-form) a fleet; returns the new registry.

        ``advertise_url`` is the URL *peers* reach this server under —
        required when binding 0.0.0.0 or behind a proxy; defaults to the
        bound address.  Callable after ``start()`` too: tests boot two
        ephemeral-port servers first and introduce them to each other next.
        """
        registry = FleetRegistry(advertise_url or self.url, peers, mode=mode)
        self.service.fleet = registry
        return registry

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def start(self) -> "TuningServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful shutdown: drain every accepted job, then stop serving."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self.service.drain(timeout=drain_timeout)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
