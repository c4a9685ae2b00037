"""Costing (and optionally verifying) one mapping configuration.

An evaluation replays a :class:`~repro.autotune.space.Configuration` through
a shared :class:`repro.compiler.CompilationSession` and asks a pluggable
:class:`~repro.autotune.backends.EvaluationBackend` what it costs — the
analytical GPU model by default (``model:``, the stand-in for a run on the
paper's GeForce 8800 GTX), or a *measured* backend that actually executes
the mapped program (``measure-py:`` / ``measure-c:`` / ``hybrid:...`` — see
:mod:`repro.autotune.backends`).  Because the session freezes the
config-invariant affine-analysis artifacts, a tuning request analyses the
program **once** and every candidate replays only the tiling/scratchpad/
mapping stages.  Configurations the machine cannot execute (e.g. a block's
buffers exceed the scratchpad) come back infeasible rather than raising, so
search strategies can treat the evaluator as total.

Every :class:`EvaluationResult` carries its :class:`~repro.autotune.backends.
Measurement` — ``measurement.kind`` records whether the time was modelled or
measured, and travels into reports and the persistent cache.

With ``check_correctness`` enabled, :meth:`ConfigurationEvaluator.select`
spot-checks the winner before crowning it.  A backend that ran it decides:
``measure-py:`` (alone or as a hybrid's secondary) runs the winner's lowering
once on seeded inputs at the tuned size against the unmapped program's.  For
the others the mapped check program is interpreted against the original on
small seeded inputs — the oracle the repo's transformation tests use.  A
wrong winner is marked ``correct=False`` and selection starts over, so only
candidates the backend would crown are checked; the rest keep ``correct=None``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler import CompilationSession
from repro.core.options import MappingOptions
from repro.ir.program import Program
from repro.machine.spec import GEFORCE_8800_GTX, GPUSpec, GridSpec
from repro.runtime.interpreter import run_program
from repro.telemetry import trace
from repro.telemetry.metrics import METRICS
from repro.autotune.backends import EvaluationBackend, Measurement, resolve_backend, seeded_inputs
from repro.autotune.space import Configuration

SPOT_CHECKS_TOTAL = METRICS.counter(
    "repro_spot_checks_total",
    "spot-checks of would-be winners by verdict",
    labels=("verdict",),
)


@dataclass
class EvaluationResult:
    """Outcome of costing one configuration."""

    configuration: Configuration
    time_ms: float
    cycles: float
    feasible: bool
    error: Optional[str] = None
    shared_bytes_per_block: int = 0
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: ``None`` when no spot-check ran, otherwise the verdict — only a
    #: result the backend picked as winner is ever spot-checked
    correct: Optional[bool] = None
    #: how ``time_ms`` was obtained (kind, per-run samples, ...)
    measurement: Optional[Measurement] = None

    @property
    def measurement_kind(self) -> str:
        """Provenance of the time: ``model`` unless a backend measured it."""
        return self.measurement.kind if self.measurement is not None else "model"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "configuration": self.configuration.to_dict(),
            "time_ms": self.time_ms,
            "cycles": self.cycles,
            "feasible": self.feasible,
            "error": self.error,
            "shared_bytes_per_block": self.shared_bytes_per_block,
            "breakdown": dict(self.breakdown),
            "correct": self.correct,
            "measurement": self.measurement.to_dict() if self.measurement else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EvaluationResult":
        measurement = payload.get("measurement")
        return cls(
            configuration=Configuration.from_dict(payload["configuration"]),
            time_ms=payload["time_ms"],
            cycles=payload["cycles"],
            feasible=payload["feasible"],
            error=payload.get("error"),
            shared_bytes_per_block=payload.get("shared_bytes_per_block", 0),
            breakdown=dict(payload.get("breakdown", {})),
            correct=payload.get("correct"),
            measurement=Measurement.from_dict(measurement) if measurement else None,
        )


def result_from_measurement(
    config: Configuration, measurement: Measurement
) -> EvaluationResult:
    """Wrap a backend measurement into an :class:`EvaluationResult`."""
    metadata = measurement.metadata
    return EvaluationResult(
        configuration=config,
        time_ms=measurement.time_ms,
        cycles=metadata.get("cycles", float("inf")),
        feasible=measurement.feasible,
        error=measurement.error,
        shared_bytes_per_block=metadata.get("shared_bytes_per_block", 0),
        breakdown=dict(metadata.get("breakdown", {})),
        measurement=measurement,
    )


class ConfigurationEvaluator:
    """Costs configurations of one (program, machine, params) instance.

    A thin orchestrator: the shared compilation session and the winner's
    correctness spot-check live here; *how* a candidate gets a cost is the
    pluggable ``backend``'s business (a URI string, an
    :class:`~repro.autotune.backends.EvaluationBackend` instance, or ``None``
    for the analytical model).
    """

    def __init__(
        self,
        program: Program,
        spec: GPUSpec = GEFORCE_8800_GTX,
        param_values: Optional[Mapping[str, int]] = None,
        base_options: Optional[MappingOptions] = None,
        check_correctness: bool = False,
        check_program: Optional[Program] = None,
        seed: int = 0,
        session: Optional[CompilationSession] = None,
        backend: Union[str, EvaluationBackend, None] = None,
        grid: Optional[GridSpec] = None,
    ) -> None:
        """``check_program``: a small-size twin of ``program`` to verify
        functionally (defaults to ``program`` itself — only sensible when the
        problem is small enough for the interpreter).

        ``session``: an existing :class:`CompilationSession` whose frozen
        analysis artifacts the evaluations should reuse (one is created
        lazily otherwise).

        ``backend``: raises :class:`~repro.autotune.backends.
        BackendUnavailable` eagerly when the host cannot run it (e.g.
        ``measure-c:`` without a toolchain) — a doomed request must fail
        before any tuning work starts.

        ``grid``: the PE-grid target of a *distributed* tuning request —
        attached to the backend (which prices grid mappings on
        :mod:`repro.distmodel`) before it is prepared.
        """
        self.program = program
        self.spec = spec
        self.grid = grid
        self.param_values = dict(param_values or {})
        self.base_options = base_options or MappingOptions()
        self.check_correctness = check_correctness
        self.check_program = check_program or program
        self.seed = seed
        self.backend = resolve_backend(backend)
        if grid is not None:
            self.backend.set_grid(grid)
        self._session = session
        self._check_session: Optional[CompilationSession] = None
        #: (seeded inputs, reference outputs) of the spot-check, read-only arrays
        self._reference: Optional[tuple] = None
        self._lock = threading.Lock()
        self._prepared = False
        # fail fast on unavailable backends (and freeze per-request state)
        self._ensure_prepared()

    # The sessions and backend travel with the evaluator to process-pool
    # workers (they pickle minus their locks), frozen analysis artifacts
    # included — a worker replays candidates without ever re-running the
    # analysis stage.
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_lock"] = None
        state["_reference"] = None  # cheaper to re-interpret in the worker than to ship
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        # PassManager hooks are dropped on pickle by contract (see
        # PassManager.__getstate__); when this process is tracing, re-attach
        # the telemetry pass hook so worker-side pass spans are not lost.
        if trace.active_trace() is not None and self._session is not None:
            self._session.manager.add_hook(trace.trace_pass_hook)

    def _fresh_session(
        self, program: Program, with_params: bool = True
    ) -> CompilationSession:
        session = CompilationSession(
            program,
            spec=self.spec,
            options=self.base_options,
            param_values=self.param_values if with_params else None,
        )
        if trace.active_trace() is not None:
            session.manager.add_hook(trace.trace_pass_hook)
        return session

    @property
    def session(self) -> CompilationSession:
        """The shared compilation session (created lazily, thread-safe)."""
        with self._lock:
            if self._session is None:
                self._session = self._fresh_session(self.program)
            return self._session

    def _ensure_prepared(self) -> None:
        """Prepare the backend once (idempotent; re-runs after unpickling)."""
        if self._prepared and self.backend.prepared:
            return
        self.backend.prepare(self.session, self.spec, seed=self.seed)
        self._prepared = True

    def evaluate(self, config: Configuration) -> EvaluationResult:
        """Compile and cost one configuration (the verdict waits for :meth:`select`)."""
        self._ensure_prepared()
        with trace.span(
            "candidate",
            kind="candidate",
            blocks=config.num_blocks,
            threads=config.threads_per_block,
            scratchpad=config.use_scratchpad,
        ) as item:
            result = result_from_measurement(config, self.backend.measure(config))
            item.annotate(time_ms=result.time_ms, feasible=result.feasible)
        return result

    def finalize(self, results: List[EvaluationResult], ensure=()) -> List[EvaluationResult]:
        """The backend's post-search hook (hybrid re-ranking; default no-op)."""
        self._ensure_prepared()
        return self.backend.finalize(results, self, ensure=ensure)

    def select(
        self, results: List[EvaluationResult], ensure: Sequence[Configuration] = ()
    ) -> Tuple[List[EvaluationResult], EvaluationResult]:
        """Finalize the search's ``results`` and crown the backend's winner.

        Returns the finalized results and the winner among them.  With
        ``check_correctness`` the winner is spot-checked first; a wrong one
        is marked ``correct=False`` in ``results`` and selection starts over
        from :meth:`finalize`, so the hybrid backend promotes the next
        model-ranked candidate into its measured top-K (its measurement memo
        re-measures only that one).  Raises :class:`ValueError` when every
        feasible candidate is wrong.
        """
        while True:
            finalized = self.finalize(results, ensure=ensure)
            best = self.backend.select_best(finalized)
            if not self.check_correctness:
                return finalized, best
            best.correct = self.spot_check(best.configuration)
            SPOT_CHECKS_TOTAL.inc(verdict="pass" if best.correct else "fail")
            if best.correct:
                return finalized, best
            for result in results:
                if result.configuration == best.configuration:
                    result.correct = False

    def spot_check(self, config: Configuration) -> bool:
        """The backend's verdict on ``config`` or, when it has none, the interpreter's."""
        self._ensure_prepared()
        with trace.span("spot-check", kind="check") as item:
            verdict = self.backend.check(config)
            item.annotate(method="interpreted" if verdict is None else "run")
            return self._interpreted_check(config) if verdict is None else verdict

    def _interpreted_check(self, config: Configuration) -> bool:
        """Interpret the mapped small-size program against the reference.

        A mapped program that indexes out of bounds is wrong, not an error:
        the verdict is ``False`` and the ``spot-check`` span names the error.
        """
        program = self.check_program
        with self._lock:
            if self._check_session is None:
                # The spot-check always runs at the check program's default
                # parameters (it must stay small enough to interpret).
                self._check_session = self._fresh_session(program, with_params=False)
            if self._reference is None:
                # The reference program and its seeded inputs are the same for
                # every candidate: interpret it once and keep the arrays
                # read-only (run_program copies its inputs before writing).
                inputs = seeded_inputs(program, self.seed)
                outputs = run_program(program, inputs=inputs)
                expected = {name: outputs.data(name) for name in inputs}
                for array in (*inputs.values(), *expected.values()):
                    array.setflags(write=False)
                self._reference = (inputs, expected)
            session = self._check_session
            inputs, expected = self._reference
        mapped = session.replay(from_stage="tiling", config=config)
        try:
            transformed = run_program(mapped.program, inputs=inputs)
        except IndexError as error:  # an out-of-bounds access: a wrong mapping
            trace.annotate(error=f"{type(error).__name__}: {error}")
            return False
        return all(
            np.allclose(reference, transformed.data(name))
            for name, reference in expected.items()
        )


def best_result(results: List[EvaluationResult]) -> EvaluationResult:
    """The fastest feasible result, ties broken by configuration key.

    Results whose correctness spot-check *failed* (``correct is False``) are
    never eligible — a fast but wrong mapping must not win.  Unchecked results
    (``correct is None``) remain eligible.  The tie-break makes serial and
    parallel evaluation agree bit-for-bit on the winner regardless of
    completion order.
    """
    feasible = [r for r in results if r.feasible and r.correct is not False]
    if not feasible:
        raise ValueError("no feasible (and correct) configuration was evaluated")
    return min(feasible, key=lambda r: (r.time_ms, r.configuration.key()))
