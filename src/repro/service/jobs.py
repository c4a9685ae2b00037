"""The tuning service's job lifecycle as one thread-free state machine.

:class:`JobTable` owns the job records, the fingerprint → in-flight index
(N identical submissions, one tuning run), finished-job eviction, the
service counters and the priority run queue in front of the worker pool.
Its methods are events — submit, finish, fail, cancel-queued — and each
returns the jobs the pool must start next.  It takes no lock and does no
I/O: :class:`~repro.service.server.TuningService` serialises the events,
starts the returned jobs and does the cache, history and metrics I/O, so
tests can drive the table step by step through every interleaving.

The run queue ranks by ``(priority class, estimated cost, arrival)``: the
request class (``high`` < ``normal`` < ``low``) first, the estimated sweep
size second (small probes overtake giant sweeps *within* a class), arrival
last — equal work stays FIFO, so nothing starves.  Queue depth per class is
published as ``repro_fleet_queue_depth{priority}``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.telemetry import METRICS, summarize_spans
from repro.telemetry.events import emit
from repro.service.protocol import PRIORITY_CLASSES, JobRecord, TuneRequest

__all__ = ["JobTable", "space_cost_estimate"]

JOBS_TOTAL = METRICS.counter(
    "repro_jobs_total",
    "Tuning jobs reaching a terminal state, by outcome.",
    labels=("outcome",),  # cached | tuned | error
)
JOB_SECONDS = METRICS.histogram(
    "repro_job_seconds",
    "Queue+run wall time of worker-executed jobs (monotonic clock).",
)
QUEUE_DEPTH = METRICS.gauge(
    "repro_fleet_queue_depth",
    "Tuning tasks queued behind the worker pool, by priority class.",
    labels=("priority",),
)

#: which ``JobTable.counters`` entry a ``repro_jobs_total`` outcome bumps
_COUNTER_OF_OUTCOME = {"cached": "cache_hits", "tuned": "tuning_runs", "error": "failed"}


def space_cost_estimate(space_options: Any) -> int:
    """A cheap upper bound on a request's candidate sweep size.

    The product of the space axes (threads x blocks x scratchpad choices x
    tile vectors per geometry) — never a compile, so the scheduler can rank
    a request at submission time.  ``None`` tile limits (exhaustive) rank as
    a large constant: an unbounded sweep should never overtake a bounded one.
    """
    tiles = getattr(space_options, "tile_candidates_per_geometry", None)
    tiles = 64 if tiles is None else max(1, int(tiles))
    return (
        max(1, len(getattr(space_options, "thread_counts", ()) or ()))
        * max(1, len(getattr(space_options, "block_counts", ()) or ()))
        * max(1, len(getattr(space_options, "scratchpad_choices", ()) or ()))
        * tiles
    )


class JobTable:
    """Job records, in-flight dedup, eviction, counters and the run queue.

    At most ``max_workers`` jobs are ``running`` (handed to the pool); the
    rest wait ``queued`` in rank order.
    """

    def __init__(self, max_workers: int, max_finished_jobs: int = 1024) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers!r}")
        if max_finished_jobs < 1:
            raise ValueError(f"max_finished_jobs must be positive, got {max_finished_jobs!r}")
        self.max_workers = max_workers
        #: finished job records kept for /status before the oldest are evicted
        self.max_finished_jobs = max_finished_jobs
        #: job id → record, in flight or among the newest finished
        self.records: Dict[str, JobRecord] = {}
        self._finished: deque = deque()  # finished job ids, oldest first
        #: fingerprint → id of the one in-flight (queued or running) job covering it
        self.inflight: Dict[str, str] = {}
        self.counters = dict.fromkeys(
            ("submitted", "deduplicated", "cache_hits", "tuning_runs", "failed"), 0
        )
        self._queue: List[Tuple[int, int, int, str]] = []
        self._arrivals = 0

    @property
    def running(self) -> int:
        """Jobs handed to the pool and not yet finished: in flight, not queued."""
        return len(self.inflight) - len(self._queue)

    @property
    def idle(self) -> bool:
        return not self.inflight

    # -- events ------------------------------------------------------------------------
    def submit(
        self,
        job_id: str,
        key: str,
        request: TuneRequest,
        lookup: Callable[[str], Optional[Mapping[str, Any]]],
        cost: int,
    ) -> Tuple[JobRecord, str, List[JobRecord]]:
        """One accepted submission; ``(job, outcome, jobs to start)``.

        ``outcome`` is ``"deduplicated"`` (joined the in-flight job for
        ``key``), ``"cached"`` (``lookup(key)`` found a stored report: the
        job is done at once) or ``"created"`` (a new job joined the run
        queue).  The dedup check comes before the lookup, so a joined
        submission never touches the cache.
        """
        self.counters["submitted"] += 1
        emit("job.submit", kernel=request.kernel, fingerprint=key[:16], backend=request.backend)
        inflight_id = self.inflight.get(key)
        if inflight_id is not None:
            job = self.records[inflight_id]
            job.waiters += 1
            self.counters["deduplicated"] += 1
            emit(
                "job.dedup",
                job_id=job.id,
                kernel=request.kernel,
                fingerprint=key[:16],
                waiters=job.waiters,
            )
            return job, "deduplicated", []

        stored = lookup(key)
        job = JobRecord(id=job_id, fingerprint=key, request=request.to_dict())
        self.records[job_id] = job
        if stored is not None:
            job.from_cache, job.compiles, job.stages = True, 0, {}
            job.report = dict(stored)
            job.status = "done"
            # duration_s ~ 0: answered at submission, so not a worker-
            # executed job and kept out of the latency histogram
            self._settle(job, "cached", observe=False)
            emit("job.cached", job_id=job.id, kernel=request.kernel, fingerprint=key[:16])
            return job, "cached", []

        self.inflight[key] = job_id
        self._arrivals += 1
        rank = PRIORITY_CLASSES.index(request.priority), max(0, int(cost)), self._arrivals
        heappush(self._queue, (*rank, job_id))
        QUEUE_DEPTH.add(1, priority=request.priority)
        return job, "created", self._dispatch()

    def finish(self, job_id: str, outcome: Mapping[str, Any]) -> List[JobRecord]:
        """A worker returned ``outcome`` (the :func:`execute_request` payload)."""
        job = self._release(job_id)
        # Populate the result fields before flipping status: "done" is the
        # publication point status readers key off.
        job.report = outcome["report"]
        job.compiles = outcome["compiles"]
        job.stages = outcome.get("stages")
        job.from_cache = outcome["from_cache"]
        job.trace = outcome.get("trace")
        if job.trace:
            job.span_summary = summarize_spans(job.trace)
        job.trace_id = (outcome.get("history") or {}).get("trace_id")
        job.status = "done"
        self._settle(job, "cached" if job.from_cache else "tuned")
        emit(
            "job.done",
            job_id=job.id,
            from_cache=job.from_cache,
            duration_s=round(job.duration_s, 3) if job.duration_s else 0.0,
            trace_id=job.trace_id,
        )
        return self._dispatch()

    def fail(self, job_id: str, error: BaseException) -> List[JobRecord]:
        """A started job will never report: its worker raised, died, or the
        pool refused it."""
        self._fail(self._release(job_id), error)
        return self._dispatch()

    def cancel_queued(self, error: BaseException) -> List[JobRecord]:
        """Fail every job still waiting for a worker and free its fingerprint.

        Running jobs are left to finish.  Starts nothing, so always ``[]``.
        """
        while self._queue:
            job = self._pop()
            del self.inflight[job.fingerprint]
            self._fail(job, error)
        return []

    # -- inspection --------------------------------------------------------------------
    def job_counts(self) -> Dict[str, int]:
        counts = {"queued": 0, "running": 0, "done": 0, "error": 0}
        for job in self.records.values():
            counts[job.status] += 1
        return counts

    def queue_depths(self) -> Dict[str, int]:
        """Waiting (not yet started) jobs per priority class."""
        depths = {label: 0 for label in PRIORITY_CLASSES}
        for *_rank, job_id in self._queue:
            depths[self.records[job_id].request["priority"]] += 1
        return depths

    # -- transitions -------------------------------------------------------------------
    def _dispatch(self) -> List[JobRecord]:
        """Move the best-ranked queued jobs into free worker slots."""
        started = []
        while self._queue and self.running < self.max_workers:
            job = self._pop()
            job.status = "running"
            started.append(job)
            emit("job.start", job_id=job.id, fingerprint=job.fingerprint[:16])
        return started

    def _pop(self) -> JobRecord:
        job = self.records[heappop(self._queue)[-1]]
        QUEUE_DEPTH.add(-1, priority=job.request["priority"])
        return job

    def _release(self, job_id: str) -> JobRecord:
        """A running job left its worker slot."""
        job = self.records[job_id]
        del self.inflight[job.fingerprint]
        job.mark_finished()  # queue+run time, not the bookkeeping after it
        return job

    def _fail(self, job: JobRecord, error: BaseException) -> None:
        job.error = f"{type(error).__name__}: {error}"
        job.status = "error"
        self._settle(job, "error")
        emit("job.error", level="error", job_id=job.id, error=job.error)

    def _settle(self, job: JobRecord, outcome: str, observe: bool = True) -> None:
        """The terminal-state bookkeeping of every job.

        ``outcome`` is the ``repro_jobs_total`` label: cached | tuned | error.
        """
        job.mark_finished()
        JOBS_TOTAL.inc(outcome=outcome)
        # Failed jobs burn queue+run wall time too; leaving them out of the
        # latency histogram would make a flapping fleet look *faster* the
        # more its jobs die.
        if observe and job.duration_s is not None:
            JOB_SECONDS.observe(job.duration_s)
        self.counters[_COUNTER_OF_OUTCOME[outcome]] += 1
        # Bound memory on a long-lived server: drop the longest-finished
        # jobs.  In-flight jobs are never evicted.
        self._finished.append(job.id)
        while len(self._finished) > self.max_finished_jobs:
            del self.records[self._finished.popleft()]
