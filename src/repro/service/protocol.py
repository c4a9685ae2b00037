"""Wire protocol of the tuning service.

The JSON body of ``POST /tune`` is a :class:`TuneRequest` — the request
vocabulary of :mod:`repro.autotune.request`, re-exported here with
:class:`ResolvedRequest` and :data:`PRIORITY_CLASSES` because it is also the
wire contract: the server resolves each request's cache fingerprint (the
same key :func:`~repro.autotune.session.tune` stores reports under) to
deduplicate in-flight requests and probe the shared cache without starting
a tuning run.

:class:`JobRecord` is the server-side state of one accepted request, returned
by ``GET /status/<job>``.

The ``cache`` section of ``GET /cache/stats`` always carries
:data:`CACHE_STATS_COMMON_FIELDS`; everything else is a backend-specific
gauge (``segments``/``compactions``/``dead_records`` for the append log).
:func:`ordered_cache_stats` gives clients and CLIs a stable render order
without having to know every gauge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

# The stats schema is owned by the store layer (the producer); re-exported
# here because it is also the wire contract of GET /cache/stats.
from repro.autotune.store import CACHE_STATS_COMMON_FIELDS, ordered_cache_stats
from repro.autotune.request import PRIORITY_CLASSES, ResolvedRequest, TuneRequest

__all__ = [
    "CACHE_STATS_COMMON_FIELDS",
    "FINISHED_STATES",
    "JobRecord",
    "PRIORITY_CLASSES",
    "ResolvedRequest",
    "TuneRequest",
    "format_stage_counts",
    "ordered_cache_stats",
]


def format_stage_counts(stages: Mapping[str, int]) -> str:
    """Render a per-stage execution-count payload in stage order.

    The compiler's standard stages come first in pipeline order, any extra
    (custom-pass) stages after, sorted — shared by the service CLI and tests
    so job transcripts are stable.
    """
    from repro.compiler import DEFAULT_PASSES

    ordered = [name for name in DEFAULT_PASSES if name in stages]
    ordered += sorted(name for name in stages if name not in DEFAULT_PASSES)
    return " ".join(f"{name}={stages[name]}" for name in ordered)


#: terminal job states
FINISHED_STATES = ("done", "error")


@dataclass
class JobRecord:
    """Server-side state of one accepted tuning request."""

    id: str
    fingerprint: str
    request: Dict[str, Any]
    status: str = "queued"  # queued | running | done | error
    #: how many /tune submissions this job serves (1 + in-flight duplicates)
    waiters: int = 1
    from_cache: bool = False
    #: pipeline compiles performed by the worker that ran this job
    compiles: Optional[int] = None
    #: per-stage pass executions (repro.compiler) performed by that worker —
    #: ``analysis`` staying at 1 while ``tiling`` counts candidates is the
    #: session-replay reuse promise, observable per job
    stages: Optional[Dict[str, int]] = None
    report: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    created_at: float = field(default_factory=time.time)
    finished_at: Optional[float] = None
    #: monotonic acceptance timestamp — server-local, never serialized.
    #: ``created_at``/``finished_at`` stay wall-clock (human-readable, cross
    #: host), but their difference jumps with NTP slews, so elapsed time is
    #: measured on the monotonic clock instead.
    created_mono: float = field(default_factory=time.monotonic, repr=False)
    #: queue+run wall time in seconds, captured from the monotonic clock the
    #: moment the job reaches a terminal state
    duration_s: Optional[float] = None
    #: span tree of the tuning run (list of Span.to_dict payloads), present
    #: only when the request asked for tracing
    trace: Optional[list] = None
    #: per-span-kind rollup (count + total_ms), cheap enough for /status
    span_summary: Optional[Dict[str, Any]] = None
    #: correlation id of the job's span trace (matches the ``trace_id`` of
    #: the history record this job appended), present only when traced
    trace_id: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.status in FINISHED_STATES

    def mark_finished(self) -> None:
        """Stamp the terminal timestamps (idempotent — first stamp wins)."""
        if self.finished_at is None:
            self.finished_at = time.time()
        if self.duration_s is None:
            self.duration_s = max(0.0, time.monotonic() - self.created_mono)

    def to_dict(self, include_report: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "job": self.id,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "waiters": self.waiters,
            "from_cache": self.from_cache,
            "compiles": self.compiles,
            "stages": dict(self.stages) if self.stages is not None else None,
            "error": self.error,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "duration_s": self.duration_s,
            "span_summary": dict(self.span_summary) if self.span_summary else None,
            "trace_id": self.trace_id,
            "request": dict(self.request),
        }
        if include_report:
            payload["report"] = self.report
            payload["trace"] = self.trace
        return payload
