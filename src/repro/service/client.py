"""Client library for the tuning server (stdlib ``urllib`` only).

Blocking and asynchronous usage::

    client = TuningClient("http://127.0.0.1:8037")

    # blocking: submit and wait for the report
    report = client.tune(TuneRequest(kernel="matmul", sizes={"m": 256, "n": 256, "k": 256}))

    # measured tuning: the backend URI travels in the request, the report's
    # best result comes back with measurement-kind provenance
    report = client.tune(
        TuneRequest(kernel="matmul", backend="hybrid:model>measure-py?top=8")
    )
    assert report.best.measurement_kind == "measured-py"

    # asynchronous: fire requests, poll or block on the handles later
    pending = [client.submit(request) for request in requests]
    reports = [p.result(timeout=300) for p in pending]

Identical concurrent submissions are deduplicated *server-side*: every handle
resolves to the same job and the same report, backed by exactly one tuning
run.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.autotune.session import TuningReport
from repro.service.protocol import FINISHED_STATES, TuneRequest

DEFAULT_HTTP_TIMEOUT = 30.0
DEFAULT_JOB_TIMEOUT = 600.0

#: per-request ceiling on one long-poll wait; the server caps slightly above
#: this, so each poll returns before the HTTP timeout kicks in
LONG_POLL_CHUNK_S = 25.0

#: fleet 307 hops followed per call before giving up (a hop is *normal* — one
#: redirect to the home server; more than a couple means the rings disagree)
MAX_REDIRECT_HOPS = 4


class _Redirect(Exception):
    """Internal: a 307 pointing the request at its fleet home server."""

    def __init__(self, location: str) -> None:
        super().__init__(location)
        self.location = location


class ServiceError(RuntimeError):
    """An HTTP-level or job-level failure reported by the tuning server."""

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.payload = dict(payload) if payload else {}


class PendingTuning:
    """Handle on a submitted job: poll with :meth:`status`, block with :meth:`result`."""

    def __init__(
        self,
        client: "TuningClient",
        job_id: str,
        fingerprint: str,
        outcome: str,
        job_state: Optional[Mapping[str, Any]] = None,
        request: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.client = client
        self.job_id = job_id
        self.fingerprint = fingerprint
        #: ``"created"`` | ``"deduplicated"`` | ``"cached"`` at submission time
        self.outcome = outcome
        #: the full job payload, present when the job finished at submission
        #: (warm cache hit) — no /status round trip needed then
        self._job_state = dict(job_state) if job_state else None
        #: the original request, kept so an evicted job can be recovered by
        #: re-submission (the server answers from its cache)
        self._request = dict(request) if request else None

    @property
    def deduplicated(self) -> bool:
        return self.outcome == "deduplicated"

    @property
    def cached(self) -> bool:
        return self.outcome == "cached"

    def _recover_evicted(self) -> None:
        """Re-submit once after the server evicted this job, adopting the new job.

        Non-blocking: a completed-and-cached job answers inline at submission;
        a job whose (error) state was genuinely lost becomes a fresh run that
        subsequent polls track under the adopted id.  One attempt only — the
        adopted handle carries no request, so recovery cannot chain.
        """
        retry = self.client.submit(self._request)
        self.job_id = retry.job_id
        self._job_state = retry._job_state
        self._request = None

    def status(self) -> Dict[str, Any]:
        """The job's current server-side state (raw ``/status`` payload).

        A 404 for a job the server evicted (bounded retention under heavy
        traffic) triggers one non-blocking re-submission — cached work answers
        instantly — instead of crashing the polling loop.
        """
        if self._job_state is not None:
            return dict(self._job_state)
        try:
            return self.client.status(self.job_id)
        except ServiceError as error:
            if error.status != 404 or self._request is None:
                raise
            self._recover_evicted()
            return self.status()

    def done(self) -> bool:
        return self.status()["status"] in FINISHED_STATES

    def job(self, timeout: float = DEFAULT_JOB_TIMEOUT) -> Dict[str, Any]:
        """Block until finished; the raw job payload (report, compiles, …).

        If the server evicted this finished job before we polled it (bounded
        job retention under heavy traffic), the request is re-submitted once —
        the report is in the server's cache, so the retry answers warm.
        """
        if self._job_state is not None:
            return dict(self._job_state)
        try:
            job = self.client.wait(self.job_id, timeout=timeout)
        except ServiceError as error:
            if error.status != 404 or self._request is None:
                raise
            self._recover_evicted()
            if self._job_state is not None:
                return dict(self._job_state)
            job = self.client.wait(self.job_id, timeout=timeout)
        self._job_state = dict(job)
        return job

    def result(self, timeout: float = DEFAULT_JOB_TIMEOUT) -> TuningReport:
        """Block until finished; the :class:`TuningReport` (raises on job error)."""
        return _report_from_job(self.job(timeout=timeout))


def _report_from_job(job: Mapping[str, Any]) -> TuningReport:
    if job["status"] == "error":
        raise ServiceError(f"tuning job {job['job']} failed: {job['error']}", payload=job)
    return TuningReport.from_dict(job["report"], from_cache=bool(job["from_cache"]))


class TuningClient:
    """Talks JSON over HTTP to a :class:`repro.service.server.TuningServer`.

    Fleet-aware: a ``307 Temporary Redirect`` from a non-home server is
    followed transparently (``urllib`` refuses to re-POST on its own, so the
    client re-issues the identical body at the ``Location`` target), and a
    handle returned by :meth:`submit` polls the server that actually owns
    the job (the ``node`` field of the ``/tune`` response).

    ``retries`` (off by default) bounds re-attempts after *transient*
    failures — connection errors, 502 from a gateway in front, 503 while
    draining — with exponential backoff from ``backoff`` seconds plus
    jitter.  Tuning submissions are idempotent server-side (dedup + cache),
    so a retried POST never duplicates work.
    """

    def __init__(
        self,
        url: str,
        timeout: float = DEFAULT_HTTP_TIMEOUT,
        retries: int = 0,
        backoff: float = 0.1,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries!r}")
        if backoff <= 0:
            raise ValueError(f"backoff must be positive, got {backoff!r}")
        self.retries = retries
        self.backoff = backoff

    def _peer(self, url: str) -> "TuningClient":
        """A client for another fleet member, inheriting this one's knobs."""
        if url.rstrip("/") == self.url:
            return self
        return TuningClient(
            url, timeout=self.timeout, retries=self.retries, backoff=self.backoff
        )

    # -- transport ---------------------------------------------------------------------
    def _request_once(
        self, method: str, url: str, payload: Optional[Mapping[str, Any]]
    ) -> Dict[str, Any]:
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(
            url,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            if error.code == 307 and error.headers.get("Location"):
                raise _Redirect(error.headers["Location"]) from None
            body = error.read().decode("utf-8", errors="replace")
            try:
                parsed = json.loads(body)
                message = parsed.get("error", body)
            except json.JSONDecodeError:
                parsed, message = {}, body
            raise ServiceError(
                f"{method} {url} failed ({error.code}): {message}",
                status=error.code,
                payload=parsed,
            ) from None
        except urllib.error.URLError as error:
            raise ServiceError(
                f"cannot reach tuning server at {url}: {error.reason}"
            ) from None

    def _call(
        self, method: str, path: str, payload: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        url = self.url + path
        attempts = 0
        hops = 0
        while True:
            try:
                return self._request_once(method, url, payload)
            except _Redirect as redirect:
                # A fleet 307: re-issue the identical request at the home
                # server.  Hops are routing, not failures — they don't burn
                # retry budget, but a bounce loop (disagreeing rings) must
                # not spin forever.
                hops += 1
                if hops > MAX_REDIRECT_HOPS:
                    raise ServiceError(
                        f"{method} {path}: gave up after {hops} fleet redirects "
                        f"(last target {redirect.location})"
                    ) from None
                url = redirect.location
            except ServiceError as error:
                transient = error.status is None or error.status in (502, 503)
                if not transient or attempts >= self.retries:
                    raise
                attempts += 1
                delay = self.backoff * (2 ** (attempts - 1))
                delay *= 0.5 + random.random() / 2  # full jitter: 50-100%
                time.sleep(delay)

    # -- endpoints ---------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._call("GET", "/healthz")

    def cache_stats(self) -> Dict[str, Any]:
        """The server's ``/cache/stats`` payload.

        The ``cache`` section identifies the persistence backend
        (``backend``: ``log`` | ``memory``) and its
        gauges next to the common entry/byte/hit/miss counters — render it
        with :func:`repro.service.protocol.ordered_cache_stats`.
        """
        return self._call("GET", "/cache/stats")

    def cache_backend(self) -> str:
        """The server cache's persistence backend name (one HTTP round trip)."""
        return str(self.cache_stats()["cache"].get("backend", "json"))

    def kernels(self) -> Dict[str, Any]:
        return self._call("GET", "/kernels")

    def metrics(self) -> str:
        """The server's ``/metrics`` page — raw Prometheus text, not JSON.

        Parse with :func:`repro.telemetry.parse_prometheus_text` when the
        values are needed programmatically.
        """
        request = urllib.request.Request(self.url + "/metrics", method="GET")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            raise ServiceError(
                f"GET /metrics failed ({error.code})", status=error.code
            ) from None
        except urllib.error.URLError as error:
            raise ServiceError(
                f"cannot reach tuning server at {self.url}: {error.reason}"
            ) from None

    def dashboard(self) -> str:
        """The server's ``/dashboard`` page — raw HTML, not JSON."""
        request = urllib.request.Request(self.url + "/dashboard", method="GET")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            raise ServiceError(
                f"GET /dashboard failed ({error.code})", status=error.code
            ) from None
        except urllib.error.URLError as error:
            raise ServiceError(
                f"cannot reach tuning server at {self.url}: {error.reason}"
            ) from None

    def history_rollup(self) -> Dict[str, Any]:
        """The server's ``/history`` payload: store stats + per-group rollup."""
        return self._call("GET", "/history")

    def status(self, job_id: str, wait: Optional[float] = None) -> Dict[str, Any]:
        """The job's state; with ``wait`` the server long-polls.

        ``wait`` seconds > 0 parks the request server-side until the job
        finishes (or the window closes) — one round trip instead of a
        sleep-poll loop.
        """
        path = f"/status/{job_id}"
        if wait is not None and wait > 0:
            path += f"?wait={wait:g}"
        return self._call("GET", path)

    def fleet(self) -> Dict[str, Any]:
        """The server's ``/fleet`` payload: membership + queue depths."""
        return self._call("GET", "/fleet")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain in-flight jobs and stop."""
        return self._call("POST", "/shutdown")

    # -- tuning ------------------------------------------------------------------------
    def submit(self, request: Union[TuneRequest, Mapping[str, Any]]) -> PendingTuning:
        """Fire one tuning request; returns immediately with a handle.

        In a fleet the job may live on another member (we were redirected
        there); the handle binds to the owning server's URL — the
        ``node`` field of the response — so its polls go straight home.
        """
        payload = request.to_dict() if isinstance(request, TuneRequest) else dict(request)
        response = self._call("POST", "/tune", payload)
        owner = self._peer(response["node"]) if response.get("node") else self
        return PendingTuning(
            owner,
            response["job"],
            response["fingerprint"],
            response["outcome"],
            job_state=response.get("job_state"),
            request=payload,
        )

    def submit_batch(
        self, requests: Iterable[Union[TuneRequest, Mapping[str, Any]]]
    ) -> List[PendingTuning]:
        """Fire many requests in one ``POST /tune/batch``; handles in order.

        Items the server answered ``redirected`` (a fleet member that is not
        their home) are resubmitted individually to their home server, so the
        caller always gets one live handle per request.  A malformed item
        raises — a batch is one unit of intent, not a best-effort spray.
        """
        payloads = [
            item.to_dict() if isinstance(item, TuneRequest) else dict(item)
            for item in requests
        ]
        response = self._call("POST", "/tune/batch", {"requests": payloads})
        jobs = response.get("jobs", [])
        if len(jobs) != len(payloads):
            raise ServiceError(
                f"batch answered {len(jobs)} slots for {len(payloads)} requests",
                payload=response,
            )
        handles: List[PendingTuning] = []
        for payload, item in zip(payloads, jobs):
            outcome = item.get("outcome")
            if outcome == "redirected":
                handles.append(self._peer(item["node"]).submit(payload))
                continue
            if outcome in ("invalid", "error") or "job" not in item:
                raise ServiceError(
                    f"batch item rejected: {item.get('error', item)}", payload=item
                )
            owner = self._peer(item["node"]) if item.get("node") else self
            handles.append(
                PendingTuning(
                    owner,
                    item["job"],
                    item["fingerprint"],
                    outcome,
                    job_state=item.get("job_state"),
                    request=payload,
                )
            )
        return handles

    def wait(
        self,
        job_id: str,
        timeout: float = DEFAULT_JOB_TIMEOUT,
        poll_interval: float = 0.05,
    ) -> Dict[str, Any]:
        """Block until the job finishes; the raw job payload.

        Long-polls ``/status/<job>?wait=...`` so a completed job costs one
        round trip (two for jobs outliving one poll window) instead of a
        20Hz polling loop; ``poll_interval`` only paces the rare degenerate
        case of a server answering a long-poll immediately.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            job = self.status(
                job_id, wait=max(0.0, min(remaining, LONG_POLL_CHUNK_S))
            )
            if job["status"] in FINISHED_STATES:
                return job
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} did not finish within {timeout:.0f}s "
                    f"(last status: {job['status']})"
                )
            time.sleep(poll_interval)

    def tune(
        self,
        request: Union[TuneRequest, Mapping[str, Any]],
        timeout: float = DEFAULT_JOB_TIMEOUT,
    ) -> TuningReport:
        """Blocking submit-and-wait; the finished :class:`TuningReport`."""
        return self.submit(request).result(timeout=timeout)
