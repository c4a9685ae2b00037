"""The public autotuning API: :func:`autotune` and :func:`autotune_batch`.

One call turns the staged compiler into an empirical tuning service: build
the model-pruned configuration space, evaluate candidates (optionally in
parallel) by replaying them through one shared
:class:`repro.compiler.CompilationSession` (affine analysis runs once per
request, not once per candidate), and return a :class:`TuningReport` whose
best configuration can be replayed directly via
:meth:`CompilationSession.replay`.  With a :class:`TuningCache`,
repeated requests are answered from disk with **zero** pipeline compiles
(verifiable with :func:`repro.compiler.counting_compiles`).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Union

from repro.compiler import GLOBAL_ARTIFACT_CACHE, ArtifactCache, CompilationSession
from repro.telemetry import trace
from repro.telemetry.events import EVENTS, events_pass_hook
from repro.telemetry.history import HistoryRecord, HistoryStore, open_history, spearman_rho
from repro.telemetry.metrics import METRICS
from repro.core.options import MappingOptions
from repro.ir.printer import program_to_c
from repro.ir.program import Program
from repro.machine.spec import GEFORCE_8800_GTX, GPUSpec, GridSpec
from repro.autotune.backends import EvaluationBackend, resolve_backend
from repro.autotune.cache import TuningCache, fingerprint
from repro.autotune.distspace import DistributedSpace
from repro.autotune.evaluate import ConfigurationEvaluator, EvaluationResult
from repro.autotune.search import (
    EXECUTORS,
    SearchStrategy,
    make_batch_evaluator,
    resolve_strategy,
)
from repro.autotune.space import ConfigurationSpace, SpaceOptions

TUNING_REQUESTS_TOTAL = METRICS.counter(
    "repro_tuning_requests_total",
    "autotune() requests by answer source",
    labels=("source",),
)
REQUEST_SECONDS = METRICS.histogram(
    "repro_request_seconds", "end-to-end autotune() wall time in seconds"
)
MEASURE_PARALLELISM = METRICS.gauge(
    "repro_measure_parallelism",
    "concurrent measurement workers of the most recent wall-clock request",
)


@dataclass
class TuningReport:
    """Everything one tuning request produced."""

    kernel_name: str
    fingerprint: str
    strategy: str
    spec_name: str
    best: EvaluationResult
    baseline: EvaluationResult
    results: List[EvaluationResult] = field(default_factory=list)
    from_cache: bool = False
    seed: int = 0
    #: evaluation-backend URI the request ran under (provenance)
    backend: str = "model:"

    @property
    def num_evaluations(self) -> int:
        return len(self.results)

    @property
    def speedup_over_baseline(self) -> float:
        """Modelled baseline time over best time (≥ 1 when tuning helped)."""
        if self.best.time_ms == 0:
            return float("inf")
        return self.baseline.time_ms / self.best.time_ms

    def summary(self) -> str:
        best = self.best
        tiles = ", ".join(f"{k}={v}" for k, v in best.configuration.tile_sizes)
        source = "cache" if self.from_cache else f"{self.num_evaluations} evaluations"
        kind = best.measurement_kind
        provenance = "" if kind == "model" else f" via {kind}"
        extras = "".join(f" {k}={v}" for k, v in best.configuration.extras)
        return (
            f"{self.kernel_name}: best {best.time_ms:.3f} ms "
            f"(baseline {self.baseline.time_ms:.3f} ms, "
            f"{self.speedup_over_baseline:.2f}x) — blocks={best.configuration.num_blocks} "
            f"threads={best.configuration.threads_per_block} tiles[{tiles}] "
            f"scratchpad={'on' if best.configuration.use_scratchpad else 'off'}"
            f"{extras} [{source}]{provenance}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernel_name": self.kernel_name,
            "fingerprint": self.fingerprint,
            "strategy": self.strategy,
            "spec_name": self.spec_name,
            "best": self.best.to_dict(),
            "baseline": self.baseline.to_dict(),
            "results": [r.to_dict() for r in self.results],
            "seed": self.seed,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any], from_cache: bool = False) -> "TuningReport":
        stored = payload.get("results", [])
        results = [EvaluationResult.from_dict(r) for r in stored]

        def member(entry: Mapping[str, Any]) -> EvaluationResult:
            # autotune() picks best and baseline *from* results; alias the equal
            # member like it does instead of holding two more deserialised copies
            for raw, result in zip(stored, results):
                if raw == entry:
                    return result
            return EvaluationResult.from_dict(entry)

        return cls(
            kernel_name=payload["kernel_name"],
            fingerprint=payload["fingerprint"],
            strategy=payload["strategy"],
            spec_name=payload["spec_name"],
            best=member(payload["best"]),
            baseline=member(payload["baseline"]),
            results=results,
            from_cache=from_cache,
            seed=payload.get("seed", 0),
            backend=payload.get("backend", "model:"),
        )


@dataclass
class TuningJob:
    """One (program, problem-size) pair of a batch tuning request."""

    program: Program
    param_values: Optional[Mapping[str, int]] = None
    label: Optional[str] = None

    @property
    def name(self) -> str:
        return self.label or self.program.name


@dataclass(frozen=True)
class TuningProblem:
    """*What* to tune: exactly the eleven ingredients of the request fingerprint.

    Everything that can change a request's answer is a field here and enters
    the cache key; the resources a request runs with (workers, executor,
    cache, history, artifact cache — the other keywords of :func:`tune`)
    never do.  The backend identity is an ingredient: the same kernel tuned
    under ``model:`` and under ``measure-py:`` occupies two distinct cache
    keys (modelled and measured milliseconds are not comparable, so one must
    never answer for the other).  Wall-clock backends additionally
    fingerprint the input ``seed``.  :func:`autotune` documents each field.
    """

    program: Program
    spec: GPUSpec = GEFORCE_8800_GTX
    param_values: Optional[Mapping[str, int]] = None
    options: Optional[MappingOptions] = None
    strategy: Union[str, SearchStrategy] = "pruned"
    seed: int = 0
    space_options: Optional[SpaceOptions] = None
    check_correctness: bool = False
    check_program: Optional[Program] = None
    backend: Union[str, EvaluationBackend, None] = None
    grid: Optional[GridSpec] = None

    def prepare(self, artifact_cache: Optional[ArtifactCache] = None) -> "PreparedTuning":
        """Resolve the problem into its space, session and cache fingerprint.

        The one place a key is computed, so the key the tuning service
        deduplicates on is byte-identical to the key the cache stores under.
        Building the space is cheap (the session's analysis stage: band
        analysis and loop extents — no pipeline compile happens here); the
        same :class:`CompilationSession` later feeds the evaluator, so one
        request runs affine analysis exactly once however many candidates it
        evaluates.
        """
        options = self.options or MappingOptions()
        strategy = resolve_strategy(self.strategy, seed=self.seed)
        backend = resolve_backend(self.backend)
        if self.grid is not None and not getattr(backend, "supports_distributed", False):
            raise ValueError(
                f"backend {backend.uri()!r} cannot price distributed (PE-grid) "
                "mappings; tune distributed kernels under the model: backend"
            )
        session = CompilationSession(
            self.program, spec=self.spec, options=options, param_values=self.param_values
        )
        if trace.active_trace() is not None:
            # Attach before the space construction below triggers the analysis
            # pass, so a traced request shows analysis as its first pass span.
            session.manager.add_hook(trace.trace_pass_hook)
        if EVENTS.enabled("debug"):
            # debug-level log narration of every compiler stage (stage.complete)
            session.manager.add_hook(events_pass_hook)
        if artifact_cache is not None:
            # must precede the space construction below: it triggers the analysis
            # pass, and adoption after the fact would install nothing.  The cache
            # never enters the request fingerprint — where an artifact came from
            # cannot change what the request computes.
            artifact_cache.adopt(session)
        space_kwargs = dict(
            spec=self.spec,
            param_values=self.param_values,
            base_options=options,
            space_options=self.space_options or SpaceOptions(),
            session=session,
        )
        if self.grid is not None:
            # Distributed request: the space enumerates SUMMA mappings onto the
            # grid, and its describe() embeds the GridSpec — which is how the
            # grid target enters the fingerprint below.
            space: ConfigurationSpace = DistributedSpace(self.program, self.grid, **space_kwargs)
        else:
            space = ConfigurationSpace(self.program, **space_kwargs)
        if artifact_cache is not None:
            # the space construction just froze (or adopted) the analysis
            # artifact — publish it so the *next* request with this identity
            # runs analysis zero times (warm tuning-cache hits included)
            artifact_cache.publish(session)
        check_signature: Dict[str, Any] = {"enabled": self.check_correctness}
        if self.check_correctness:
            # The spot-check program and input seed change every `correct` verdict.
            check_signature["seed"] = self.seed
            check_signature["program"] = program_to_c(self.check_program or self.program)
        backend_signature = dict(backend.signature())
        if not backend.deterministic:
            backend_signature["seed"] = self.seed
        key = fingerprint(
            self.program,
            self.spec,
            self.param_values,
            options,
            strategy.signature(),
            space.describe(),
            check_signature,
            backend_signature,
        )
        return PreparedTuning(self, options, strategy, backend, space, session, key)


class PreparedTuning(NamedTuple):
    """A :class:`TuningProblem` resolved by :meth:`TuningProblem.prepare`."""

    problem: TuningProblem
    options: MappingOptions
    strategy: SearchStrategy
    backend: EvaluationBackend
    space: ConfigurationSpace
    session: CompilationSession
    #: the request's cache fingerprint
    key: str


def tuning_fingerprint(program: Program, **problem_fields: Any) -> str:
    """The cache fingerprint :func:`autotune` would use for this request.

    ``problem_fields`` are the other :class:`TuningProblem` fields.  Lets
    callers (notably :mod:`repro.service`) deduplicate identical in-flight
    requests and probe the cache without starting a tuning run.
    """
    return TuningProblem(program, **problem_fields).prepare().key


def _model_measured_pairs(
    results: Sequence[EvaluationResult],
) -> List[Any]:
    """(model_ms, measured_ms) pairs the hybrid backend stamped while
    re-measuring survivors (``measurement.metadata["model_time_ms"]``)."""
    pairs = []
    for result in results:
        measurement = result.measurement
        if measurement is not None and "model_time_ms" in measurement.metadata:
            pairs.append((measurement.metadata["model_time_ms"], result.time_ms))
    return pairs


def autotune(
    program: Program,
    spec: GPUSpec = GEFORCE_8800_GTX,
    param_values: Optional[Mapping[str, int]] = None,
    options: Optional[MappingOptions] = None,
    strategy: Union[str, SearchStrategy] = "pruned",
    max_workers: int = 1,
    executor: str = "thread",
    cache: Union[TuningCache, str, Path, None] = None,
    seed: int = 0,
    space_options: Optional[SpaceOptions] = None,
    check_correctness: bool = False,
    check_program: Optional[Program] = None,
    backend: Union[str, EvaluationBackend, None] = None,
    history: Union[HistoryStore, str, Path, None] = None,
    artifact_cache: Union[ArtifactCache, bool, None] = None,
    grid: Optional[GridSpec] = None,
) -> TuningReport:
    """Empirically tune the mapping of ``program`` on ``spec``.

    Parameters
    ----------
    strategy:
        ``"exhaustive"``, ``"pruned"`` (default), ``"hillclimb"``, or a
        :class:`SearchStrategy` instance.
    max_workers:
        Evaluate candidates on a pool of this size; the report is identical
        for any worker count.
    executor:
        ``"thread"`` (default) or ``"process"`` — worker processes escape the
        GIL for cold tuning runs (falling back to threads with a warning when
        the program is not picklable).
    cache:
        A :class:`TuningCache`, or a store spec it accepts (a ``.json``
        path, ``dir:DIR`` or ``log:FILE``, each naming where the append log
        lives); a warm entry is returned without a single pipeline
        compile.
    seed:
        Drives every randomised search path (and the correctness spot-check
        and measured-backend inputs), making runs reproducible.
    check_correctness / check_program:
        Also verify each configuration through the reference interpreter
        (against ``check_program`` when the tuned problem is too large to
        interpret).
    backend:
        How candidates get a cost: a URI string (``"model:"`` — the default
        analytical pricing — ``"measure-py:"``, ``"measure-c:cc=gcc"``,
        ``"hybrid:model>measure-py?top=8"``) or an
        :class:`~repro.autotune.backends.EvaluationBackend` instance.  The
        backend identity is part of the cache fingerprint, so model-priced
        and measured reports never answer for each other.  Raises
        :class:`~repro.autotune.backends.BackendUnavailable` before any
        tuning work when the host cannot run the backend.
    history:
        A :class:`~repro.telemetry.history.HistoryStore` (or a JSONL path
        one accepts); every completed request — warm hits included —
        appends one :class:`~repro.telemetry.history.HistoryRecord` there.
        The record is also attached to the returned report as
        ``report.history_record`` (even when no store is given), which is
        how the tuning service ships it back from worker processes.
    artifact_cache:
        Opt-in cross-request sharing of config-invariant artifacts: ``True``
        selects the process-wide :data:`~repro.compiler.
        GLOBAL_ARTIFACT_CACHE`, or pass an :class:`~repro.compiler.
        ArtifactCache` instance.  A second request for the same (program,
        binding, spec) then runs affine analysis **zero** times.  Never part
        of the request fingerprint.
    grid:
        A :class:`~repro.machine.GridSpec` makes this a *distributed* tuning
        request: the space becomes a
        :class:`~repro.autotune.distspace.DistributedSpace` of SUMMA
        mappings onto the PE grid, candidates are priced on
        :mod:`repro.distmodel` (``model:`` backend only; provenance
        ``model-dist``), and the grid enters the cache fingerprint via the
        space description — the same kernel tuned against two grids never
        shares a cache entry or a history regression group.
    """
    return tune(
        TuningProblem(
            program=program,
            spec=spec,
            param_values=param_values,
            options=options,
            strategy=strategy,
            seed=seed,
            space_options=space_options,
            check_correctness=check_correctness,
            check_program=check_program,
            backend=backend,
            grid=grid,
        ),
        max_workers=max_workers,
        executor=executor,
        cache=cache,
        history=history,
        artifact_cache=artifact_cache,
    )


def tune(
    problem: TuningProblem,
    max_workers: int = 1,
    executor: str = "thread",
    cache: Union[TuningCache, str, Path, None] = None,
    history: Union[HistoryStore, str, Path, None] = None,
    artifact_cache: Union[ArtifactCache, bool, None] = None,
) -> TuningReport:
    """Tune one :class:`TuningProblem` with the given resources.

    What :func:`autotune` (its keyword adapter, which documents every
    parameter) and the service worker both run.  None of the five resource
    keywords can change the report, so none enters the fingerprint.
    """
    if max_workers <= 0:
        raise ValueError("max_workers must be positive")
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    if cache is not None and not isinstance(cache, TuningCache):
        cache = TuningCache(cache)
    if artifact_cache is True:
        artifact_cache = GLOBAL_ARTIFACT_CACHE
    elif artifact_cache is False:
        artifact_cache = None
    history = open_history(history)
    program, spec, seed, grid = problem.program, problem.spec, problem.seed, problem.grid
    started = time.perf_counter()
    # fallback=True: candidate spans opened on evaluator pool threads adopt
    # this span as their parent (see repro.telemetry.trace).
    with trace.span(
        "request", kind="request", kernel=program.name, fallback=True
    ) as request_span:
        # inside the span, so analysis is the first pass span of a trace
        _, options, strategy, backend, space, compile_session, key = problem.prepare(
            artifact_cache
        )
        request_span.annotate(
            strategy=strategy.name, backend=backend.uri(), fingerprint=key[:16]
        )
        collector = trace.active_trace()
        trace_id = collector.trace_id if collector is not None else None
        if trace_id is not None:
            request_span.annotate(trace_id=trace_id)
        if cache is not None:
            stored = cache.get(key)
            if stored is not None:
                request_span.annotate(source="cache")
                TUNING_REQUESTS_TOTAL.inc(source="cache")
                REQUEST_SECONDS.observe(time.perf_counter() - started)
                report = TuningReport.from_dict(stored, from_cache=True)
                record = HistoryRecord.from_report(
                    stored,
                    key,
                    grid=grid,
                    cache_hit=True,
                    wall_s=time.perf_counter() - started,
                    trace_id=trace_id,
                )
                report.history_record = record
                if history is not None:
                    history.append(record)
                return report

        if max_workers > 1 and backend.measures_wall_clock:
            # K concurrent timed runs contend for the same cores and inflate
            # each other's perf_counter windows — the times the search trusts
            # would be run-order noise.  A backend that serializes its timed
            # section under TIMED_SECTION_LOCK advertises measurement_workers
            # > 1: replay/exec/warmup then overlap on threads (the lock is
            # per-process, so a process pool would not serialize anything)
            # while recorded numbers stay contention-free.  (A hybrid with a
            # model primary keeps its parallel search; its measured re-rank
            # delegates to the leaf.  After the cache check: a warm hit
            # evaluates nothing to serialize.)
            backend_workers = getattr(backend, "measurement_workers", 1)
            if backend_workers > 1:
                max_workers = min(max_workers, backend_workers)
                executor = "thread"
            else:
                warnings.warn(
                    f"backend {backend.uri()!r} times real executions; serializing "
                    f"evaluation (max_workers {max_workers} -> 1) so concurrent "
                    "candidates cannot skew each other's measurements",
                    RuntimeWarning,
                    stacklevel=2,
                )
                max_workers = 1
        if backend.measures_wall_clock:
            MEASURE_PARALLELISM.set(max_workers)

        evaluator = ConfigurationEvaluator(
            program,
            spec=spec,
            param_values=problem.param_values,
            base_options=options,
            check_correctness=problem.check_correctness,
            check_program=problem.check_program,
            seed=seed,
            session=compile_session,
            backend=backend,
            grid=grid,
        )
        with make_batch_evaluator(
            evaluator, max_workers=max_workers, executor=executor
        ) as evaluate_many:
            with trace.span(
                "search", kind="search", strategy=strategy.name, fallback=True
            ):
                results = strategy.run(space, evaluate_many)
        if not results:
            raise ValueError("search strategy produced no evaluations")

        seed_config = space.seed_configuration()
        # The backend's post-search pass: the hybrid backend re-measures the
        # top-K survivors (and the baseline) here; winner selection is the
        # backend's too, so a model-priced survivor can never outrank a
        # measured one on incomparable milliseconds.
        with trace.span("finalize", kind="finalize", backend=backend.uri()):
            EVENTS.emit(
                "request.finalize",
                level="debug",
                kernel=program.name,
                backend=backend.uri(),
                survivors=len(results),
            )
            results = evaluator.finalize(results, ensure=(seed_config,))
        baseline = next(
            (r for r in results if r.configuration == seed_config), results[0]
        )
        report = TuningReport(
            kernel_name=program.name,
            fingerprint=key,
            strategy=strategy.name,
            spec_name=spec.name,
            best=evaluator.select_best(results),
            baseline=baseline,
            results=results,
            seed=seed,
            backend=backend.uri(),
        )
        stored = report.to_dict()  # what the cache keeps is what history reads
        if cache is not None:
            cache.put(key, stored)
            EVENTS.emit(
                "cache.put", level="debug", kernel=program.name, fingerprint=key[:16]
            )
        request_span.annotate(
            source="tuned", evaluations=len(results), best_ms=report.best.time_ms
        )
        TUNING_REQUESTS_TOTAL.inc(source="tuned")
        wall_s = time.perf_counter() - started
        REQUEST_SECONDS.observe(wall_s)
        pairs = _model_measured_pairs(results)
        rho = (
            spearman_rho([p[0] for p in pairs], [p[1] for p in pairs])
            if len(pairs) >= 2
            else None
        )
        record = HistoryRecord.from_report(
            stored,
            key,
            grid=grid,
            evaluations=len(results),
            stage_seconds={
                row["stage"]: row["total_ms"] / 1e3
                for row in compile_session.stage_report()
            },
            rho=rho,
            wall_s=wall_s,
            trace_id=trace_id,
        )
        report.history_record = record
        if history is not None:
            history.append(record)
        return report


def autotune_batch(
    jobs: Sequence[Union[TuningJob, Program]],
    spec: GPUSpec = GEFORCE_8800_GTX,
    **kwargs: Any,
) -> List[TuningReport]:
    """Tune many (kernel, problem-size) pairs in one call.

    Jobs may be bare programs or :class:`TuningJob` instances; every keyword
    of :func:`autotune` applies to each job, so one shared cache serves the
    whole batch.
    """
    cache = kwargs.get("cache")
    if cache is not None and not isinstance(cache, TuningCache):
        # open the store once for the whole batch, not once per job
        kwargs["cache"] = TuningCache(cache)
    if kwargs.get("history") is not None:
        kwargs["history"] = open_history(kwargs["history"])
    reports: List[TuningReport] = []
    for job in jobs:
        if isinstance(job, Program):
            job = TuningJob(program=job)
        report = autotune(
            job.program, spec=spec, param_values=job.param_values, **kwargs
        )
        if job.label:
            report.kernel_name = job.label
        reports.append(report)
    return reports
