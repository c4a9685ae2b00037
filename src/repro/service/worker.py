"""The function a tuning-server worker executes, usable from any executor.

Module-level and fully picklable, so the server can submit it to a
``ProcessPoolExecutor`` (cold tuning escapes the GIL) or a thread pool (used
by in-process tests, where the server's own metrics registry sees every
compile).  A worker reopens the shared cache by its store URI (the append
log the server's ``.json``, ``dir:`` or ``log:`` spec names); the log's file
locks make its persistence safe against the other workers.

Beyond the end-to-end ``compiles`` count, the completion payload carries the
staged compiler's per-stage execution counts (``stages``): a healthy
session-backed run shows the config-invariant ``analysis`` stage executing
once while ``tiling``/``scratchpad``/``mapping`` run once per candidate —
the artifact-reuse promise of :mod:`repro.compiler`, observable per job.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.compiler import counting_compiles, counting_stage_runs
from repro.machine.spec import GEFORCE_8800_GTX, GPUSpec
from repro.telemetry import METRICS, trace
from repro.autotune.cache import TuningCache
from repro.autotune.session import tune
from repro.service.protocol import TuneRequest


def execute_request(
    payload: Mapping[str, Any],
    cache_path: Optional[str] = None,
    spec: Optional[GPUSpec] = None,
    job_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one tuning request to completion; returns the job-completion payload.

    Workers (thread *and* process) reopen the shared cache from
    ``cache_path`` — any store URI :class:`TuningCache` accepts — picking up
    entries other servers persisted since the pre-enqueue check; server-side
    warm hits never reach a worker at all.
    The returned ``compiles`` counts the pipeline compiles this request
    performed in the executing process (``stages`` the per-stage pass
    executions): exactly 0 for a warm cache hit, and — because the underlying
    counters are process-global — an upper bound when several *thread*
    workers tune concurrently in one process (process workers are exact,
    having the process to themselves).
    """
    request = TuneRequest.from_dict(payload)
    # ``eval_workers > 1`` forks an evaluation pool from a process worker; a
    # thread worker shares the server's threads, so tune() evaluates its
    # candidates serially (with ExecutorFallbackWarning) and the report is
    # the same.
    # Built against the server's machine spec (GPUSpec is a frozen dataclass
    # and pickles to process workers) so the report and its fingerprint match
    # the key the server deduplicated and will answer under.  No analysis
    # yet: tune() prepares the problem once, inside the counted block below.
    problem = request.problem(spec or GEFORCE_8800_GTX)
    cache = TuningCache(cache_path) if cache_path is not None else None
    # Worker-process metrics are invisible to the server's /metrics endpoint,
    # so every completion ships the registry *delta* attributable to this job.
    # The server absorbs it only from process workers: thread workers already
    # mutate the server's own registry, and a concurrent thread job's counts
    # would bleed into this delta anyway (same caveat as ``compiles`` below).
    metrics_baseline = METRICS.snapshot()
    collector = trace.start_trace() if request.trace else None
    try:
        # TuningProblem.prepare attaches trace_pass_hook to the session it
        # builds because the collector installed above is already active.
        with counting_compiles() as compiles, counting_stage_runs() as stage_runs:
            report = tune(problem, max_workers=request.eval_workers, cache=cache)
    finally:
        if collector is not None:
            trace.stop_trace()
    # The worker never appends to a history store itself: the server owns
    # the store and appends exactly once per job (no double-write when the
    # worker is a thread sharing the server's process).
    record = getattr(report, "history_record", None)
    if record is not None:
        record.source = "worker"
        record.job_id = job_id
    return {
        "fingerprint": report.fingerprint,
        "report": report.to_dict(),
        "from_cache": report.from_cache,
        # a warm hit is zero compiles by construction, whatever concurrent
        # jobs in this process added to the global counters meanwhile
        "compiles": 0 if report.from_cache else compiles.count,
        "stages": {} if report.from_cache else dict(stage_runs.counts),
        # plain dicts end to end — the payload must survive pickling back
        # from a spawn-started process worker
        "trace": collector.to_dicts() if collector is not None else None,
        "metrics": METRICS.delta_since(metrics_baseline),
        "history": record.to_dict() if record is not None else None,
    }
