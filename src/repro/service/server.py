"""The long-lived tuning server: work queue, dedup, shared cache, HTTP API.

Two layers:

* :class:`TuningService` — the transport-agnostic engine.  Incoming requests
  are fingerprinted synchronously; a warm cache entry answers instantly with
  zero compiles, an identical *in-flight* request attaches to the existing
  job (N concurrent submitters, exactly one tuning run), and everything else
  is queued onto a ``ProcessPoolExecutor`` (or thread pool) worker.  The job
  lifecycle itself is :class:`~repro.service.jobs.JobTable`, a thread-free
  state machine; this class is its adapter to the lock, the pool and I/O.
* :class:`TuningServer` — a stdlib ``ThreadingHTTPServer`` exposing the
  engine as JSON over HTTP: ``POST /tune``, ``POST /tune/batch``,
  ``GET /status/<job>`` (``?wait=SECONDS`` long-polls until the job
  finishes), ``GET /cache/stats``, ``GET /healthz``, ``GET /kernels``,
  ``GET /history`` (the tuning-history rollup), ``GET /dashboard``
  (the HTML fleet view), ``GET /fleet``, ``POST /shutdown``.

Several servers form a *fleet* (see :mod:`repro.fleet`): a consistent-hash
ring assigns every tuning fingerprint one home server, and a non-home
server 307-redirects ``/tune`` to the home — so in-flight dedup (exactly
one tuning run for N identical concurrent submissions) holds across the
whole fleet, not just per process.  Clients poll the node that owns their
job, so every member must be reachable by clients.  Worker
scheduling goes through the job table's priority queue: small warm probes
overtake giant cold sweeps instead of queueing FIFO behind them.

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
import uuid
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.kernels.registry import available_kernels, get_kernel
from repro.machine.spec import GEFORCE_8800_GTX, GPUSpec
from repro.telemetry import METRICS
from repro.telemetry.events import emit
from repro.telemetry.history import HistoryRecord, HistoryStore, open_history, rollup
from repro.autotune.cache import TuningCache
from repro.fleet.registry import FleetRegistry
from repro.service.dashboard import render_dashboard
from repro.service.jobs import JobTable, space_cost_estimate
from repro.service.protocol import JobRecord, TuneRequest
from repro.service.worker import execute_request

#: service-level metrics (the job table and the autotune/compiler layers
#: register their own)
HTTP_REQUESTS_TOTAL = METRICS.counter(
    "repro_http_requests_total",
    "HTTP requests served, by method and endpoint (path parameters folded).",
    labels=("method", "endpoint"),
)
FLEET_REDIRECTS_TOTAL = METRICS.counter(
    "repro_fleet_redirects_total",
    "Requests routed to their home server, by how the client was told.",
    labels=("mode",),  # redirect (a 307) | batch-redirect (a /tune/batch slot)
)

#: worker kinds of the job pool (a job's candidates evaluate serially or on
#: its own process pool, see repro.autotune.search)
EXECUTORS = ("thread", "process")

#: ceiling on one long-poll /status wait — clients loop for longer waits, so
#: a handler thread is never parked longer than this
MAX_STATUS_WAIT_S = 30.0


class ServiceUnavailable(RuntimeError):
    """Raised for submissions that arrive while the server is draining."""


class TuningService:
    """Transport-agnostic tuning engine: dedup, shared cache, worker pool.

    The adapter around a :class:`~repro.service.jobs.JobTable`: every job
    event runs under one lock, the jobs an event releases are handed to the
    pool outside it (a future that is already done runs its callback right
    there), and the cache, history and metrics-delta I/O happens here.

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
        history: Union[HistoryStore, str, Path, None] = None,
        fleet: Optional[FleetRegistry] = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        self.jobs = JobTable(max_workers, max_finished_jobs)
        self.cache = cache if isinstance(cache, TuningCache) else TuningCache(cache)
        # Always have a history store so /dashboard and the history rollup
        # work out of the box; without a path it simply stays in memory.
        # (`or` would be wrong here: an empty store is falsy via __len__.)
        opened = open_history(history)
        self.history = opened if opened is not None else HistoryStore()
        self.executor = executor
        self.spec = spec
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
        #: this server's fleet view (None: a standalone server, no routing)
        self.fleet = fleet
        self._lock = threading.Lock()
        #: signalled (notify_all) after every job event — what long-poll
        #: /status and drain wait on
        self._changed = threading.Condition(self._lock)
        #: set (under the lock) once drain() began: submissions are refused
        self.draining = False

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
        cost = space_cost_estimate(resolved.problem.space_options)
        with self._lock:
            if self.draining:
                raise ServiceUnavailable("server is draining; not accepting new requests")
            job, outcome, started = self.jobs.submit(
                uuid.uuid4().hex[:12], resolved.fingerprint, request, self.cache.get, cost
            )
            if outcome == "cached":
                self.history.append(
                    HistoryRecord.from_report(
                        job.report,
                        job.fingerprint,
                        grid=resolved.problem.grid,
                        cache_hit=True,
                        wall_s=job.duration_s or 0.0,
                        source="server",
                        job_id=job.id,
                    )
                )
        if job.id in self._start(started):
            return job, "error"
        return job, outcome

    def _start(self, jobs: List[JobRecord]) -> List[str]:
        """Hand started jobs to the pool (caller does *not* hold the lock).

        Returns the ids the pool refused: each refusal fails its job, which
        frees the slot for the next queued one — so a broken pool fails
        every queued job in turn instead of wedging their fingerprints.
        """
        refused = []
        while jobs:
            job = jobs.pop(0)
            # Workers (thread or process) open their own cache instance from
            # the store URI: a fresh open can pick up entries a *different*
            # server sharing the store persisted since our pre-check, and
            # their counters stay off this instance's books (one counted
            # lookup per request — the submit-time get).  An in-memory cache
            # has no URI, so _finish puts the report instead.
            task = partial(
                execute_request,
                job.request,
                cache_path=self.cache.uri,
                spec=self.spec,
                job_id=job.id,
            )
            try:
                future = self._pool.submit(task)
            except RuntimeError as error:  # BrokenExecutor, or a pool already shut down
                refused.append(job.id)
                with self._lock:
                    jobs += self.jobs.fail(job.id, error)
                    self._changed.notify_all()
                continue
            future.add_done_callback(partial(self._finish, job.id))
        return refused

    def _finish(self, job_id: str, future: Future) -> None:
        error = future.exception()  # the worker raised, or its process died
        with self._lock:
            if error is not None:
                started = self.jobs.fail(job_id, error)
            else:
                outcome = future.result()
                started = self.jobs.finish(job_id, outcome)
                fingerprint = self.jobs.records[job_id].fingerprint
                # A process worker's registry bumps happened in its own
                # process; absorb its shipped delta so /metrics reflects the
                # whole fleet.  Thread workers share *this* registry —
                # absorbing their delta would double-count every sample.
                if self.executor == "process" and outcome.get("metrics"):
                    METRICS.absorb(outcome["metrics"])
                # A worker persisted through its own instance of a persistent
                # cache, and this instance's next lookup replays the log's
                # tail; an in-memory cache is private to this instance, so
                # put it here — under the same lock hold that took the
                # fingerprint out of flight, so no submission misses both.
                if self.cache.path is None:
                    self.cache.put(fingerprint, outcome["report"])
                emit("cache.put", level="debug", job_id=job_id, fingerprint=fingerprint[:16])
                # The worker shipped its history record like the metrics
                # delta; the server owns the store, so this is the single
                # append per job whichever executor ran it.
                if outcome.get("history") is not None:
                    record = HistoryRecord.from_dict(outcome["history"])
                    record.job_id = job_id
                    self.history.append(record)
            self._changed.notify_all()
        self._start(started)

    def fingerprint_of(self, payload: Mapping[str, Any]) -> str:
        """The fingerprint a payload would tune under — no submission.

        What fleet routing keys off: cheap (no compile), and raising the
        same ``ValueError`` a submission would, so a non-home server still
        400s malformed requests instead of bouncing them around the ring.
        """
        request = TuneRequest.from_dict(dict(payload))
        return request.resolve(self.spec).fingerprint

    def wait_for_job(self, job_id: str, timeout: float = 0.0) -> Optional[Dict[str, Any]]:
        """The job's ``/status`` snapshot, once finished or at ``timeout``.

        ``None`` for an unknown job.  A positive ``timeout`` long-polls,
        parked on the condition every job event signals — zero polling; an
        evicted-while-waiting job returns ``None`` and the client falls back
        to its recovery path.  The snapshot is built under the lock: a job
        finishing concurrently could otherwise be observed half-updated.
        """
        with self._changed:
            if timeout > 0:
                self._changed.wait_for(
                    lambda: job_id not in self.jobs.records or self.jobs.records[job_id].finished,
                    timeout=timeout,
                )
            job = self.jobs.records.get(job_id)
            return None if job is None else job.to_dict()

    # -- inspection --------------------------------------------------------------------
    def job(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self.jobs.records.get(job_id)

    def stats(self) -> Dict[str, Any]:
        """The ``/cache/stats`` payload: cache, server counters, job counts.

        The ``cache`` section carries the persistence backend's identity and
        gauges (``backend``, ``entries``, ``bytes``, plus e.g.
        ``segments``/``compactions`` for the append log) alongside this
        instance's hit/miss counters — see :data:`repro.service.protocol.CACHE_STATS_COMMON_FIELDS`.
        The job sections are one consistent snapshot of the table.
        """
        cache = self.cache.stats()
        with self._lock:
            return {
                "cache": cache,
                "server": dict(self.jobs.counters),
                "jobs": self.jobs.job_counts(),
                "queue": self.jobs.queue_depths(),
            }

    def queue_depths(self) -> Dict[str, int]:
        """Waiting (undispatched) jobs per priority class."""
        with self._lock:
            return self.jobs.queue_depths()

    def health(self) -> Dict[str, Any]:
        with self._lock:
            jobs = self.jobs.job_counts()
        payload = {
            "status": "draining" if self.draining else "ok",
            "executor": self.executor,
            "workers": self.jobs.max_workers,
            "cache_path": self.cache.uri,
            "cache_backend": self.cache.backend,
            "history_path": self.history.uri,
            "jobs": jobs,
        }
        if self.fleet is not None:
            payload["fleet"] = self.fleet.describe()
        return payload

    def jobs_snapshot(self) -> list:
        """Lightweight (report-free) snapshots of every retained job."""
        with self._lock:
            return [job.to_dict(include_report=False) for job in self.jobs.records.values()]

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

        Queued jobs still run, so every job a client was promised a report
        for produces one (and, with a file-backed cache, persists it) before
        this method returns.  With a ``timeout``, jobs still queued when it
        expires fail (their fingerprints are freed) so shutdown time stays
        bounded; already-running work finishes regardless.
        """
        with self._changed:
            self.draining = True
            idle = self._changed.wait_for(lambda: self.jobs.idle, timeout=timeout)
            if not idle:
                self.jobs.cancel_queued(ServiceUnavailable("drained before a worker was free"))
                self._changed.notify_all()
        self._pool.shutdown(wait=idle)


class TuningRequestHandler(BaseHTTPRequestHandler):
    """Routes the JSON-over-HTTP API onto a :class:`TuningService`.

    Both methods share :meth:`_dispatch`, which looks the path up in
    ``GET_ROUTES``/``POST_ROUTES`` and answers what a route raises:
    ``ValueError``/``TypeError`` 400, :class:`ServiceUnavailable` 503.
    """

    server_version = "repro-tuning-server/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> TuningService:
        return self.server.service  # type: ignore[attr-defined]

    def _send(self, code: int, payload: Any, content_type: str = "", **headers: str) -> None:
        """Answer with ``payload`` as JSON, or verbatim as text of ``content_type``."""
        body = (payload if content_type else json.dumps(payload)).encode("utf-8")
        self.send_response(code)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", content_type or "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[bytes]:
        """Read the request body unconditionally.

        Under HTTP/1.1 keep-alive an unread body would be parsed as the next
        request line on the same connection, so every POST path must drain it
        — including 404s and /shutdown, which ignore the content.  A length
        that is not a non-negative integer leaves the body boundary unknown:
        that is answered 400 here (``None`` returned) and the connection
        closed, since the rest of the stream cannot be trusted.
        """
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not raw.isdecimal():
            self._send(400, {"error": f"invalid Content-Length {raw!r}"}, Connection="close")
            return None
        return self.rfile.read(int(raw))

    @staticmethod
    def _json_object(body: bytes) -> Dict[str, Any]:
        """The request body as a JSON object (``ValueError`` → 400 otherwise)."""
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as error:
            raise ValueError(f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _dispatch(self, method: str, routes: Mapping[str, Any]) -> None:
        path = urlparse(self.path).path
        # fold path parameters so the label space stays bounded: every
        # /status/<job> is one endpoint, and unknown paths are one bucket
        key = "/status/" if path.startswith("/status/") else path
        known = key in self.GET_ROUTES or key in self.POST_ROUTES
        HTTP_REQUESTS_TOTAL.inc(
            method=method, endpoint=key.rstrip("/") if known else "other"
        )
        args = ()
        if method == "POST":
            body = self._read_body()
            if body is None:
                return
            args = (body,)
        route = routes.get(key)
        if route is None:
            self._send(404, {"error": f"unknown endpoint {path!r}"})
            return
        try:
            route(self, *args)
        except ServiceUnavailable as error:
            self._send(503, {"error": str(error)})
        except (ValueError, TypeError) as error:
            self._send(400, {"error": str(error)})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET", self.GET_ROUTES)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST", self.POST_ROUTES)

    # -- GET routes --------------------------------------------------------------------
    def _get_metrics(self) -> None:
        # Prometheus text exposition format 0.0.4 — `curl`-able and
        # scrapeable; everything else on this server speaks JSON.
        self._send(200, METRICS.render(), "text/plain; version=0.0.4; charset=utf-8")

    def _get_kernels(self) -> None:
        kernels = [get_kernel(name).describe() for name in available_kernels()]
        self._send(200, {"kernels": kernels})

    def _get_fleet(self) -> None:
        fleet = self.service.fleet
        described = None if fleet is None else fleet.describe()
        self._send(200, {"fleet": described, "queue": self.service.queue_depths()})

    def _get_status(self) -> None:
        url = urlparse(self.path)
        job_id = url.path[len("/status/"):]
        # the ?wait=SECONDS long-poll parameter (0 when absent)
        try:
            wait_s = float(parse_qs(url.query).get("wait", ["0"])[-1])
        except ValueError:
            wait_s = -1.0
        if not wait_s >= 0:  # also rejects NaN
            raise ValueError("wait must be a non-negative number")
        payload = self.service.wait_for_job(job_id, min(wait_s, MAX_STATUS_WAIT_S))
        if payload is None:
            self._send(404, {"error": "unknown job"})
        else:
            self._send(200, payload)

    # -- POST routes -------------------------------------------------------------------
    def _redirect(self, payload: Mapping[str, Any], mode: str) -> Optional[Dict[str, Any]]:
        """Fleet routing for one /tune payload.

        ``None``: handle locally (standalone server, or this node is the
        fingerprint's home).  Otherwise the body that points the client at
        the home member, counted under ``mode``.
        """
        fleet = self.service.fleet
        if fleet is None:
            return None
        fingerprint = self.service.fingerprint_of(payload)  # ValueError → 400
        home = fleet.home(fingerprint)
        if home == fleet.node_id:
            return None
        FLEET_REDIRECTS_TOTAL.inc(mode=mode)
        return {"redirect": home + "/tune", "node": home, "fingerprint": fingerprint}

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
            response["job_state"] = self.service.wait_for_job(job.id)
        return response

    def _post_tune(self, body: bytes) -> None:
        payload = self._json_object(body)
        redirect = self._redirect(payload, "redirect")
        if redirect is not None:
            # 307 preserves method+body, so the client re-POSTs verbatim.
            self._send(307, redirect, Location=redirect["redirect"])
            return
        job, outcome = self.service.submit(payload)
        self._send(200, self._tune_response(job, outcome))

    def _batch_item(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One /tune/batch slot: routed, submitted, or per-item error.

        Batch items are never answered with 307 — a multi-status redirect
        cannot be expressed in one response — so a non-home item comes back
        as outcome ``redirected`` with the home's URL for the client to
        resubmit.  Items are independent: a malformed one is ``invalid`` in
        its slot and never poisons its neighbours; only draining
        (:class:`ServiceUnavailable`, not caught here) 503s the whole batch.
        """
        try:
            redirect = self._redirect(payload, "batch-redirect")
            if redirect is not None:
                return {"outcome": "redirected", **redirect}
            job, outcome = self.service.submit(payload)
        except (ValueError, TypeError) as error:
            return {"outcome": "invalid", "error": str(error)}
        return self._tune_response(job, outcome)

    def _post_batch(self, body: bytes) -> None:
        requests = self._json_object(body).get("requests")
        if not isinstance(requests, list) or not all(
            isinstance(item, dict) for item in requests
        ):
            raise ValueError("body must be {\"requests\": [<TuneRequest>, ...]}")
        self._send(200, {"jobs": [self._batch_item(item) for item in requests]})

    def _post_shutdown(self, _body: bytes) -> None:
        # Only loopback peers may stop the server: anyone who can reach a
        # --host 0.0.0.0 deployment must not be able to deny service.
        if self.client_address[0] not in ("127.0.0.1", "::1"):
            self._send(403, {"error": "shutdown is restricted to loopback clients"})
            return
        self._send(200, {"status": "draining"})
        threading.Thread(
            target=self.server.tuning_server.stop,  # type: ignore[attr-defined]
            daemon=True,
        ).start()

    #: path → route; ``/status/`` stands for every ``/status/<job>``.  Also the
    #: endpoint label set of ``repro_http_requests_total``.
    GET_ROUTES = {
        "/metrics": _get_metrics,
        "/healthz": lambda self: self._send(200, self.service.health()),
        "/cache/stats": lambda self: self._send(200, self.service.stats()),
        "/kernels": _get_kernels,
        "/dashboard": lambda self: self._send(
            200, self.service.dashboard_html(), "text/html; charset=utf-8"
        ),
        "/history": lambda self: self._send(200, self.service.history_rollup()),
        "/fleet": _get_fleet,
        "/status/": _get_status,
    }
    POST_ROUTES = {
        "/tune": _post_tune,
        "/tune/batch": _post_batch,
        "/shutdown": _post_shutdown,
    }

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
        history: Union[HistoryStore, str, Path, None] = None,
        peers: Iterable[str] = (),
        advertise_url: Optional[str] = None,
    ) -> None:
        self.service = TuningService(
            cache=cache,
            executor=executor,
            max_workers=max_workers,
            spec=spec,
            history=history,
        )
        self._httpd = ThreadingHTTPServer((host, port), TuningRequestHandler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._httpd.tuning_server = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        #: serve_forever() is, was, or is about to be running
        self._serving = False
        # Fleet membership needs the *bound* address (port may have been 0),
        # so the registry is built after the socket exists.
        if list(peers):
            self.configure_fleet(peers, advertise_url=advertise_url)

    def configure_fleet(
        self,
        peers: Iterable[str],
        mode: str = "redirect",
        advertise_url: Optional[str] = None,
    ) -> FleetRegistry:
        """Join (or re-form) a fleet; returns the new registry.

        ``advertise_url`` is the URL peers *and clients* reach this server
        under — required when binding 0.0.0.0 or behind NAT; defaults to the
        bound address.  Callable after ``start()`` too: tests boot two
        ephemeral-port servers first and introduce them to each other next.
        ``mode`` is kept for callers that name the one routing there is.
        """
        if mode != "redirect":
            raise ValueError(
                f"fleet mode {mode!r} was removed; 'redirect' is the only routing"
            )
        registry = FleetRegistry(advertise_url or self.url, peers)
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
        self._serving = True
        self._httpd.serve_forever()

    def start(self) -> "TuningServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._serving = True  # before the thread exists: stop() may race its start
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful shutdown: drain every accepted job, then stop serving."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self.service.drain(timeout=drain_timeout)
        # shutdown() waits on an event only serve_forever() ever sets: on a
        # server that was constructed but never started it would block forever
        if self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
