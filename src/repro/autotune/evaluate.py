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

With ``check_correctness`` enabled the mapped program is additionally run
through the reference interpreter against the original program on small
seeded random inputs — the same oracle the repo's transformation tests use.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.compiler import CompilationSession
from repro.core.options import MappingOptions
from repro.ir.program import Program
from repro.machine.spec import GEFORCE_8800_GTX, GPUSpec, GridSpec
from repro.runtime.interpreter import run_program
from repro.telemetry import trace
from repro.autotune.backends import EvaluationBackend, Measurement, resolve_backend
from repro.autotune.space import Configuration


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
    #: ``None`` when no spot-check ran, otherwise the verdict
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

    A thin orchestrator: the shared compilation session and the correctness
    spot-check live here; *how* a candidate gets a cost is the pluggable
    ``backend``'s business (a URI string, an
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
        """Compile, cost, and optionally spot-check one configuration."""
        self._ensure_prepared()
        with trace.span(
            "candidate",
            kind="candidate",
            blocks=config.num_blocks,
            threads=config.threads_per_block,
            scratchpad=config.use_scratchpad,
        ) as item:
            result = result_from_measurement(config, self.backend.measure(config))
            if result.feasible and self.check_correctness:
                with trace.span("spot-check", kind="check"):
                    result.correct = self.spot_check(config)
            item.annotate(time_ms=result.time_ms, feasible=result.feasible)
        return result

    def finalize(self, results: List[EvaluationResult], ensure=()) -> List[EvaluationResult]:
        """The backend's post-search hook (hybrid re-ranking; default no-op)."""
        self._ensure_prepared()
        return self.backend.finalize(results, self, ensure=ensure)

    def select_best(self, results: List[EvaluationResult]) -> EvaluationResult:
        """The backend's winner among finalized results."""
        return self.backend.select_best(results)

    def spot_check(self, config: Configuration) -> bool:
        """Interpret the mapped small-size program against the reference."""
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
                inputs = self._random_inputs(program)
                outputs = run_program(program, inputs=inputs)
                expected = {name: outputs.data(name) for name in inputs}
                for array in (*inputs.values(), *expected.values()):
                    array.setflags(write=False)
                self._reference = (inputs, expected)
            session = self._check_session
            inputs, expected = self._reference
        mapped = session.replay(from_stage="tiling", config=config)
        transformed = run_program(mapped.program, inputs=inputs)
        return all(
            np.allclose(reference, transformed.data(name))
            for name, reference in expected.items()
        )

    def _random_inputs(self, program: Program) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        return {
            array.name: rng.random(tuple(array.shape))
            for array in program.arrays.values()
            if not array.is_local
        }


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
