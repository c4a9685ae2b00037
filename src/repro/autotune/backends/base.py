"""The evaluation-backend interface and its URI grammar.

"How does a candidate configuration get a cost?" is a pluggable decision: the
analytical GPU model (fast, the pruning device of the paper's Section 4.3),
actually *executing* the mapped program (the paper's empirical loop: counted
and priced on the model, or compiled to C and timed), or a hybrid of the
two.  Every answer implements :class:`EvaluationBackend`:

* :meth:`~EvaluationBackend.prepare` — called **once per tuning request**
  with the request's shared :class:`~repro.compiler.CompilationSession` and
  machine spec; the backend freezes whatever per-request state it needs
  (performance model, derived session with extra terminal passes, seeded
  inputs, toolchain paths).
* :meth:`~EvaluationBackend.measure` — called **once per candidate** with a
  :class:`~repro.autotune.space.Configuration`; returns a
  :class:`Measurement` (never raises for an infeasible mapping — feasibility
  is part of the result, so search strategies can treat evaluation as total).
* :meth:`~EvaluationBackend.check` — called on a spot-checked request's
  would-be winner; a backend that ran the winner decides its ``correct``
  from that run, the others answer ``None`` and the evaluator interprets.

Backends are selected by URI (see :func:`parse_backend_uri`)::

    model:                              the analytical model (default)
    measure-py:                         run the lower-py-vec artifact, count, price
    measure-c:cc=gcc,repeat=7           compile + time the emitted C harness
    hybrid:model>measure-py?top=8       model prunes, measurement re-ranks

Backends pickle (minus any transient prepared state) so the parallel search
can ship them to worker processes; re-:meth:`prepare` is cheap and lazy
there.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type

import numpy as np

from repro.compiler import CompilationSession
from repro.ir.program import Program
from repro.machine.spec import GPUSpec, GridSpec
from repro.telemetry import trace
from repro.telemetry.events import EVENTS
from repro.telemetry.metrics import METRICS

MEASUREMENTS_TOTAL = METRICS.counter(
    "repro_measurements_total",
    "candidate costings per measurement kind",
    labels=("kind",),
)

MEASURE_MEMO_TOTAL = METRICS.counter(
    "repro_measure_memo_total",
    "per-request measurement-memo lookups by outcome",
    labels=("outcome",),
)


def seeded_inputs(program: Program, seed: int) -> Dict[str, np.ndarray]:
    """Seeded random values for every global array of ``program`` (a spot-check's inputs)."""
    rng = np.random.default_rng(seed)
    return {
        array.name: rng.random(tuple(array.shape))
        for array in program.arrays.values()
        if not array.is_local
    }


class BackendUnavailable(RuntimeError):
    """The backend cannot run on this host (e.g. no C toolchain).

    Raised from :meth:`EvaluationBackend.prepare`, *before* any tuning work
    starts, so a request naming an impossible backend fails fast and clean
    instead of erroring per candidate.
    """


@dataclass
class Measurement:
    """One backend's verdict on one candidate configuration.

    ``kind`` records provenance — ``"model"`` for analytically priced times,
    ``"measured-py"`` for a counted run priced on the model, ``"measured-c"``
    for wall-clock measurements — and travels into the tuning report and the
    persistent cache, so a cached entry always says *how* its times were
    obtained.
    """

    time_ms: float
    kind: str
    feasible: bool = True
    error: Optional[str] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time_ms": self.time_ms,
            "kind": self.kind,
            "feasible": self.feasible,
            "error": self.error,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Measurement":
        return cls(
            time_ms=payload["time_ms"],
            kind=payload["kind"],
            feasible=payload.get("feasible", True),
            error=payload.get("error"),
            metadata=dict(payload.get("metadata", {})),
        )

    @classmethod
    def infeasible(cls, kind: str, error: str) -> "Measurement":
        return cls(time_ms=float("inf"), kind=kind, feasible=False, error=error)


class EvaluationBackend:
    """Interface every way-of-costing-a-candidate implements."""

    #: URI scheme this backend registers under
    scheme: str = "base"
    #: the :attr:`Measurement.kind` this backend produces
    kind: str = "model"
    #: whether two identical requests always measure identical times; false
    #: for wall-clock backends, whose fingerprints then include the input seed
    deterministic: bool = True
    #: whether :meth:`measure` times real executions — concurrent timed runs
    #: contend for the cores and skew each other, so candidate evaluation is
    #: serialized (with a warning) for such backends
    measures_wall_clock: bool = False
    #: whether this backend can price *distributed* configurations (those
    #: carrying grid extras); the executing backends cannot run a multi-PE
    #: mapping on the host, so such candidates become infeasible results
    supports_distributed: bool = False

    def __init__(self) -> None:
        self._session: Optional[CompilationSession] = None
        self._spec: Optional[GPUSpec] = None
        self._grid: Optional[GridSpec] = None
        self._seed: int = 0
        self._memo: Optional[Dict[Any, Measurement]] = None
        self._memo_lock = threading.Lock()

    def set_grid(self, grid: Optional[GridSpec]) -> None:
        """Attach the PE-grid target of a distributed tuning request.

        Called by the evaluator before :meth:`prepare`; the grid survives
        pickling to pool workers (it is a frozen dataclass).  Backends that
        do not support distributed pricing simply never read it.
        """
        self._grid = grid

    # -- lifecycle ---------------------------------------------------------------
    def prepare(self, session: CompilationSession, spec: GPUSpec, seed: int = 0) -> None:
        """Freeze per-request state.  Idempotent; called once per request.

        Raises :class:`BackendUnavailable` when the host cannot run this
        backend at all.
        """
        self._session = session
        self._spec = spec
        self._seed = seed
        # fresh memo per request: identical configs within one request (e.g.
        # the hybrid's finalize re-measuring a top-K member it already timed)
        # reuse the first measurement instead of paying another run
        self._memo = {}
        self._memo_lock = threading.Lock()

    @property
    def prepared(self) -> bool:
        return self._session is not None

    def _require_prepared(self) -> Tuple[CompilationSession, GPUSpec]:
        if self._session is None or self._spec is None:
            raise RuntimeError(
                f"backend {self.uri()!r} was not prepared; call prepare(session, spec) first"
            )
        return self._session, self._spec

    # -- measurement -------------------------------------------------------------
    #: leaf backends open a ``measure`` span and count into
    #: ``repro_measurements_total{kind=}`` per measurement; delegating
    #: backends (hybrid) set this False so one candidate is never counted
    #: twice — the leaf they forward to instruments itself.
    _instrument_measure: bool = True

    def measure(self, configuration: Any) -> Measurement:
        """Cost one candidate; infeasible mappings become infeasible results.

        The staged compiler signals "the machine cannot execute this mapping"
        (scratchpad overflow, degenerate geometry) with ``ValueError`` —
        converted here so :meth:`_measure` implementations stay simple and
        search strategies see a total function.

        Instrumented: each leaf measurement opens a ``measure`` span carrying
        provenance (kind, timing knobs, and — annotated by ``measure-c:`` —
        compile time) and bumps ``repro_measurements_total{kind=}``.

        Memoized: within one request (one :meth:`prepare`), a configuration
        already measured returns a copy of its first measurement —
        ``repro_measure_memo_total{outcome=hit}`` counts the runs saved.
        """
        if not self._instrument_measure:
            return self._checked_measure(configuration)
        memo_key = self._memo_key(configuration)
        if memo_key is not None:
            with self._memo_lock:
                cached = self._memo.get(memo_key)
            if cached is not None:
                MEASURE_MEMO_TOTAL.inc(outcome="hit")
                return dataclasses.replace(cached, metadata=dict(cached.metadata))
        with trace.span("measure", kind="measure", backend=self.scheme) as item:
            measurement = self._checked_measure(configuration)
            item.annotate(
                kind=measurement.kind,
                time_ms=measurement.time_ms,
                feasible=measurement.feasible,
                **self._timing_provenance(),
            )
        if memo_key is not None:
            MEASURE_MEMO_TOTAL.inc(outcome="miss")
            with self._memo_lock:
                self._memo[memo_key] = dataclasses.replace(
                    measurement, metadata=dict(measurement.metadata)
                )
        MEASUREMENTS_TOTAL.inc(kind=measurement.kind)
        if EVENTS.enabled("debug"):
            detail: Dict[str, Any] = {}
            if measurement.error:
                detail["error"] = measurement.error
            EVENTS.emit(
                "candidate.measure",
                level="debug",
                kind=measurement.kind,
                time_ms=round(measurement.time_ms, 4),
                feasible=measurement.feasible,
                **detail,
            )
        return measurement

    def _memo_key(self, configuration: Any) -> Optional[Any]:
        """A hashable identity for the memo, or ``None`` to bypass it."""
        if self._memo is None:
            return None
        key = getattr(configuration, "key", None)
        if callable(key):
            return key()
        return configuration if isinstance(configuration, (str, tuple)) else None

    def _checked_measure(self, configuration: Any) -> Measurement:
        try:
            if not self.supports_distributed and self._is_distributed(configuration):
                raise ValueError(
                    f"backend {self.uri()!r} cannot execute distributed (PE-grid) "
                    "mappings on this host; use the model: backend"
                )
            return self._measure(configuration)
        except ValueError as error:
            return Measurement.infeasible(self.kind, str(error))

    @staticmethod
    def _is_distributed(configuration: Any) -> bool:
        """Whether a candidate carries PE-grid family parameters."""
        extras = getattr(configuration, "extras", ()) or ()
        return any(key == "grid_p" for key, _value in extras)

    def _timing_provenance(self) -> Dict[str, Any]:
        """The warmup/repeat/trim knobs, when this backend has them."""
        return {
            name: getattr(self, name)
            for name in ("warmup", "repeat", "trim")
            if hasattr(self, name)
        }

    def _measure(self, configuration: Any) -> Measurement:
        raise NotImplementedError

    # -- batch hooks (the hybrid backend's seam) ----------------------------------
    def finalize(
        self, results: List[Any], evaluator: Any, ensure: Sequence[Any] = ()
    ) -> List[Any]:
        """Post-search hook over the full result list (default: identity).

        Called once by :func:`repro.autotune.autotune` after the search
        strategy finished; the hybrid backend re-measures the top candidates
        here (``ensure`` lists configurations — the baseline — that must be
        part of any re-measurement).  ``results`` are
        :class:`~repro.autotune.evaluate.EvaluationResult` items in
        evaluation order; the returned list replaces them.
        """
        return results

    def select_best(self, results: List[Any]) -> Any:
        """Pick the winner from finalized results (default: fastest feasible)."""
        from repro.autotune.evaluate import best_result

        return best_result(results)

    def check(self, configuration: Any) -> Optional[bool]:
        """Whether the would-be winner ``configuration`` computes what the
        program does, or ``None`` when this backend cannot tell — the
        evaluator then interprets its check program (the default)."""
        return None

    # -- identity ----------------------------------------------------------------
    def signature(self) -> Dict[str, Any]:
        """Stable description for cache fingerprinting.

        Anything that can change a measurement must appear here: model-priced
        and measured results must never collide under one cache key.
        """
        return {"scheme": self.scheme}

    def uri(self) -> str:
        """A URI string that :func:`parse_backend_uri` round-trips."""
        return f"{self.scheme}:"

    def describe(self) -> str:
        """One-line human description (the CLI's ``backends`` listing)."""
        return self.__doc__.splitlines()[0] if self.__doc__ else self.scheme

    def availability(self) -> Optional[str]:
        """``None`` when usable on this host, else the reason it is not."""
        return None

    # -- construction ------------------------------------------------------------
    @classmethod
    def from_options(cls, options: Mapping[str, str]) -> "EvaluationBackend":
        """Build from parsed URI options; unknown keys must raise ValueError."""
        if options:
            raise ValueError(
                f"backend {cls.scheme!r} accepts no options, got {sorted(options)}"
            )
        return cls()

    # -- pickling ----------------------------------------------------------------
    # Backends ride inside ConfigurationEvaluator to process-pool workers.
    # Subclasses stash unpicklable prepared state in attributes listed in
    # _TRANSIENT; it is nulled here and lazily rebuilt in the worker.
    _TRANSIENT: Tuple[str, ...] = ()

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        for name in self._TRANSIENT:
            if name in state:
                state[name] = None
        # locks don't pickle, and a worker's memo starts empty (its hits
        # would be copies of measurements the parent already has)
        state["_memo_lock"] = None
        state["_memo"] = {} if state.get("_memo") is not None else None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._memo_lock = threading.Lock()


# -- URI grammar ---------------------------------------------------------------------
#: registered backend factories, keyed by URI scheme
BACKEND_SCHEMES: Dict[str, Type[EvaluationBackend]] = {}


def register_backend(factory: Type[EvaluationBackend]) -> Type[EvaluationBackend]:
    """Register a backend class under its ``scheme`` (unique)."""
    if factory.scheme in BACKEND_SCHEMES:
        raise ValueError(f"backend scheme {factory.scheme!r} is already registered")
    BACKEND_SCHEMES[factory.scheme] = factory
    return factory


def available_backends() -> List[str]:
    """Sorted registered backend schemes."""
    return sorted(BACKEND_SCHEMES)


def split_options(rest: str) -> Dict[str, str]:
    """Parse ``key=value,key=value`` backend options (empty string → none)."""
    options: Dict[str, str] = {}
    if not rest:
        return options
    for item in rest.split(","):
        name, sep, value = item.partition("=")
        if not sep or not name.strip():
            raise ValueError(
                f"backend option must look like key=value, got {item!r}"
            )
        options[name.strip()] = value.strip()
    return options


def parse_backend_uri(uri: str) -> EvaluationBackend:
    """Materialise a backend from its URI.

    Grammar::

        BACKEND   := SCHEME [":" REST]
        SCHEME    := "model" | "measure-py" | "measure-c" | "hybrid" | ...
        REST      := OPTIONS                    (simple schemes)
                   | PRIMARY ">" SECONDARY ["?" OPTIONS]   (hybrid)
        OPTIONS   := key "=" value ("," key "=" value)*

    Unknown schemes fail early with the registry listed, mirroring the
    compiler's pass-name and the store's URI-scheme errors.
    """
    if not isinstance(uri, str) or not uri.strip():
        raise ValueError(f"backend URI must be a non-empty string, got {uri!r}")
    scheme, _sep, rest = uri.strip().partition(":")
    try:
        factory = BACKEND_SCHEMES[scheme]
    except KeyError:
        raise ValueError(
            f"unknown evaluation backend {scheme!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None
    return factory.from_uri_rest(rest) if hasattr(factory, "from_uri_rest") else (
        factory.from_options(split_options(rest))
    )


def resolve_backend(backend: Any) -> EvaluationBackend:
    """Accept a backend instance, URI string, or ``None`` (→ the model)."""
    if backend is None:
        return BACKEND_SCHEMES["model"]()
    if isinstance(backend, EvaluationBackend):
        return backend
    if isinstance(backend, str):
        return parse_backend_uri(backend)
    raise TypeError(
        f"backend must be a URI string or EvaluationBackend, got {type(backend).__name__}"
    )
