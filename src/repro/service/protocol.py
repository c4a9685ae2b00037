"""Wire protocol of the tuning service.

A :class:`TuneRequest` is the JSON body of ``POST /tune``: a *named* kernel
(resolved through :mod:`repro.kernels.registry` — programs never travel over
the wire), its problem sizes, and the tuning knobs of
:func:`repro.autotune.autotune`.  :meth:`TuneRequest.problem` materialises the
:class:`~repro.autotune.session.TuningProblem` a worker tunes;
:meth:`TuneRequest.resolve` additionally computes its cache fingerprint — the
same key :func:`~repro.autotune.session.tune` stores reports under, so the
server can deduplicate in-flight requests and probe the shared cache without
starting a tuning run.

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
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional

# The stats schema is owned by the store layer (the producer); re-exported
# here because it is also the wire contract of GET /cache/stats.
from repro.autotune.store import CACHE_STATS_COMMON_FIELDS, ordered_cache_stats

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

from repro.core.options import MappingOptions
from repro.kernels.registry import get_kernel
from repro.machine.spec import GEFORCE_8800_GTX, GPUSpec
from repro.autotune.backends import parse_backend_uri
from repro.autotune.search import STRATEGIES
from repro.autotune.session import TuningProblem
from repro.autotune.space import SpaceOptions

#: keys accepted in a request's ``space`` payload
_SPACE_KEYS = (
    "thread_counts",
    "block_counts",
    "scratchpad_choices",
    "tile_candidates_per_geometry",
)

#: terminal job states
FINISHED_STATES = ("done", "error")

#: request priority classes, most urgent first (the wire values of
#: ``TuneRequest.priority``)
PRIORITY_CLASSES = ("high", "normal", "low")


@dataclass
class TuneRequest:
    """One tuning request as it travels over the wire."""

    kernel: str
    sizes: Dict[str, int] = field(default_factory=dict)
    strategy: str = "pruned"
    seed: int = 0
    #: parallel-evaluation fan-out *inside* the worker executing this job
    eval_workers: int = 1
    check_correctness: bool = False
    #: optional :meth:`MappingOptions.to_dict` payload
    options: Optional[Dict[str, Any]] = None
    #: optional subset of :class:`SpaceOptions` fields
    space: Optional[Dict[str, Any]] = None
    #: evaluation-backend URI (``model:``, ``measure-py:...``,
    #: ``measure-c:...``, ``hybrid:model>measure-py?top=K``)
    backend: str = "model:"
    #: collect a span trace of the tuning run (shipped back in the job
    #: payload).  Observability only — deliberately NOT a fingerprint
    #: ingredient: a traced and an untraced request share one cache entry.
    trace: bool = False
    #: scheduling class (``high`` | ``normal`` | ``low``) — decides queue
    #: order behind a busy worker pool, nothing else.  Like ``trace``,
    #: deliberately NOT a fingerprint ingredient: a high- and a low-priority
    #: submission of the same work share one cache entry and one job.
    priority: str = "normal"

    def __post_init__(self) -> None:
        if not isinstance(self.kernel, str) or not self.kernel:
            raise ValueError(f"kernel must be a non-empty string, got {self.kernel!r}")
        if not isinstance(self.sizes, Mapping):
            raise ValueError(f"sizes must be a mapping, got {self.sizes!r}")
        for name, value in self.sizes.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"size {name!r} must be an integer, got {value!r}"
                )
        self.sizes = {str(k): int(v) for k, v in self.sizes.items()}
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; available: {sorted(STRATEGIES)}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.check_correctness, bool):
            # a truthy string like "false" must not silently enable checking
            # (and leak into the fingerprint, splitting the cache)
            raise ValueError(
                f"check_correctness must be a boolean, got {self.check_correctness!r}"
            )
        if not isinstance(self.eval_workers, int) or self.eval_workers < 1:
            raise ValueError(f"eval_workers must be a positive integer, got {self.eval_workers!r}")
        if not isinstance(self.trace, bool):
            # a truthy string like "false" must not silently enable tracing
            raise ValueError(f"trace must be a boolean, got {self.trace!r}")
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"priority must be one of {PRIORITY_CLASSES}, got {self.priority!r}"
            )
        # Parse the backend URI eagerly: a typo must 400 at submission, not
        # error a worker.  (Host *availability* — e.g. a missing C toolchain —
        # is deliberately not checked here: the worker raising
        # BackendUnavailable reports it per job.)
        parse_backend_uri(self.backend)
        if self.space is not None:
            unknown = set(self.space) - set(_SPACE_KEYS)
            if unknown:
                raise ValueError(
                    f"unknown space fields {sorted(unknown)}; available: {list(_SPACE_KEYS)}"
                )
            for key in ("thread_counts", "block_counts"):
                values = self.space.get(key)
                if values is None:
                    continue
                # a JSON string would otherwise iterate character-by-character
                if not isinstance(values, (list, tuple)) or not all(
                    isinstance(v, int) and not isinstance(v, bool) for v in values
                ):
                    raise ValueError(f"space.{key} must be a list of integers, got {values!r}")
            choices = self.space.get("scratchpad_choices")
            if choices is not None and (
                not isinstance(choices, (list, tuple))
                or not all(isinstance(v, bool) for v in choices)
            ):
                raise ValueError(
                    f"space.scratchpad_choices must be a list of booleans, got {choices!r}"
                )
            limit = self.space.get("tile_candidates_per_geometry")
            if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool)):
                raise ValueError(
                    f"space.tile_candidates_per_geometry must be an integer, got {limit!r}"
                )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "sizes": dict(self.sizes),
            "strategy": self.strategy,
            "seed": self.seed,
            "eval_workers": self.eval_workers,
            "check_correctness": self.check_correctness,
            "options": dict(self.options) if self.options else None,
            "space": dict(self.space) if self.space else None,
            "backend": self.backend,
            "trace": self.trace,
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TuneRequest":
        known = {f.name for f in fields(cls)}
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown TuneRequest fields: {sorted(extra)}")
        if "kernel" not in payload:
            raise ValueError("a TuneRequest needs at least a 'kernel' name")
        return cls(**{k: v for k, v in payload.items() if v is not None})

    # -- server-side materialisation ---------------------------------------------------
    def space_options(self) -> SpaceOptions:
        """The request's :class:`SpaceOptions` (tuple-coerced from JSON lists)."""
        payload = dict(self.space or {})
        for key in ("thread_counts", "block_counts"):
            if key in payload:
                payload[key] = tuple(int(v) for v in payload[key])
        if "scratchpad_choices" in payload:
            payload["scratchpad_choices"] = tuple(
                bool(v) for v in payload["scratchpad_choices"]
            )
        return SpaceOptions(**payload)

    def mapping_options(self) -> MappingOptions:
        return MappingOptions.from_dict(self.options) if self.options else MappingOptions()

    def problem(self, spec: GPUSpec = GEFORCE_8800_GTX) -> TuningProblem:
        """Look the kernel up and build the :class:`TuningProblem` — no analysis.

        Raises ``ValueError`` for unknown kernels, sizes, options or space
        fields.
        """
        try:
            kernel = get_kernel(self.kernel)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        return TuningProblem(
            program=kernel.build(**self.sizes),
            spec=spec,
            options=self.mapping_options(),
            strategy=self.strategy,
            seed=self.seed,
            space_options=self.space_options(),
            check_correctness=self.check_correctness,
            check_program=kernel.build_check() if self.check_correctness else None,
            backend=self.backend,
            grid=kernel.grid,
        )

    def resolve(self, spec: GPUSpec = GEFORCE_8800_GTX) -> "ResolvedRequest":
        """Build the problem and compute the request's cache fingerprint.

        Cheap — band analysis and loop extents only, never a pipeline
        compile — so the server can fingerprint every incoming request
        synchronously.  Raises what :meth:`problem` raises.
        """
        problem = self.problem(spec)
        return ResolvedRequest(self, problem, problem.prepare().key)


@dataclass
class ResolvedRequest:
    """A :class:`TuneRequest` materialised against the kernel registry."""

    request: TuneRequest
    problem: TuningProblem
    fingerprint: str


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
