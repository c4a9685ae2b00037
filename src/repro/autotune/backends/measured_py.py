"""The measured-Python backend: execute the ``lower-py`` artifact and time it.

The paper's tuning loop *runs* every shortlisted mapping and keeps the
fastest measured one.  This backend reproduces that method: each candidate
replays through a derived session whose pass list ends in a lowering
terminal pass (so the executable-Python source is a real, fingerprinted,
``counting_stage_runs``-visible stage artifact), the source is compiled with
``exec``, and the kernel is run on seeded inputs with ``warmup`` unrecorded
executions followed by ``repeat`` timed ones.  The reported time is the
outlier-trimmed median of the timed runs — wall-clock measurement on a
multi-tenant host is noisy, and a trimmed median is robust against the odd
scheduler hiccup without hiding systematic cost.

Two fast-path knobs (URI options):

* ``vectorize=auto|on|off`` (default ``auto``) picks the ``lower-py-vec``
  terminal pass — eligible innermost loops lowered to numpy expressions, the
  same results several times faster — falling back to scalar ``lower-py``
  only on ``off``.  ``vectorize`` fingerprints: scalar and vectorised wall
  times are different distributions and must never share a cache entry.  For
  the same reason the fingerprint carries the code generator's
  :data:`~repro.codegen.emit_py.LOWERING_REVISION` (not a URI option).
* ``workers=N`` (default 1) advertises that ``N`` candidates may be measured
  concurrently: warmup runs overlap freely across threads while every
  *timed* section serializes under :data:`~repro.autotune.backends.base.
  TIMED_SECTION_LOCK`, so replay + exec + warmup (the bulk of a candidate's
  cost) parallelise without timed runs contending for the cores.  ``workers``
  does **not** fingerprint — serialized timed sections keep the measured
  numbers the same.

Measured milliseconds are Python-interpreter wall time, **not** modelled GPU
time: comparable against other measured results, meaningless against
``model:`` numbers.  That is why the measurement ``kind`` travels with every
result and why the request fingerprint includes the backend identity.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.codegen.emit_py import LOWERING_REVISION
from repro.compiler import CompilationSession
from repro.machine.spec import GPUSpec

from repro.autotune.backends.base import (
    TIMED_SECTION_LOCK,
    EvaluationBackend,
    Measurement,
    parse_timing_options,
    register_backend,
    validate_timing_knobs,
)

#: accepted values of the ``vectorize=`` URI option
VECTORIZE_CHOICES = ("auto", "on", "off")


def trimmed_median(samples: List[float], trim: float) -> float:
    """Median after dropping ``trim`` (fraction) from each end of the sorted samples."""
    if not samples:
        raise ValueError("cannot take the median of zero samples")
    ordered = sorted(samples)
    drop = int(len(ordered) * trim)
    kept = ordered[drop : len(ordered) - drop] or ordered
    return statistics.median(kept)


@register_backend
class MeasuredPythonBackend(EvaluationBackend):
    """Execute the emitted Python of each mapping on seeded inputs, timed."""

    scheme = "measure-py"
    kind = "measured-py"

    #: measured wall time depends on the input seed, so it fingerprints
    deterministic = False
    measures_wall_clock = True

    def __init__(
        self,
        warmup: int = 1,
        repeat: int = 5,
        trim: float = 0.2,
        workers: int = 1,
        vectorize: str = "auto",
    ) -> None:
        super().__init__()
        validate_timing_knobs(warmup, repeat, trim)
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if vectorize not in VECTORIZE_CHOICES:
            raise ValueError(
                f"vectorize must be one of {', '.join(VECTORIZE_CHOICES)}, "
                f"got {vectorize!r}"
            )
        self.warmup = warmup
        self.repeat = repeat
        self.trim = trim
        self.workers = workers
        self.vectorize = vectorize
        self._lowering_session: Optional[CompilationSession] = None

    @classmethod
    def from_options(cls, options: Mapping[str, str]) -> "MeasuredPythonBackend":
        timing = parse_timing_options(
            cls.scheme, options, extra=("workers", "vectorize")
        )
        try:
            workers = int(options.get("workers", 1))
        except ValueError as error:
            raise ValueError(f"backend {cls.scheme!r}: {error}") from None
        return cls(
            workers=workers, vectorize=options.get("vectorize", "auto"), **timing
        )

    @property
    def _stage(self) -> str:
        """The lowering terminal pass this request measures."""
        return "lower-py" if self.vectorize == "off" else "lower-py-vec"

    @property
    def measurement_workers(self) -> int:
        return self.workers

    # -- lifecycle ---------------------------------------------------------------
    def prepare(self, session: CompilationSession, spec: GPUSpec, seed: int = 0) -> None:
        super().prepare(session, spec, seed=seed)
        # A derived session appends the lowering terminal pass while adopting
        # the shared session's frozen artifacts — affine analysis still runs
        # once per request, however many candidates get measured.
        if self._stage in session.stage_names:
            self._lowering_session = session
        else:
            self._lowering_session = session.with_passes(
                (*session.stage_names, self._stage)
            )

    # -- measurement -------------------------------------------------------------
    def _seeded_arrays(self, program) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(self._seed)
        arrays: Dict[str, np.ndarray] = {}
        for array in program.arrays.values():
            shape = tuple(int(extent) for extent in array.shape)
            if array.is_local:
                arrays[array.name] = np.zeros(shape)
            else:
                arrays[array.name] = rng.random(shape)
        return arrays

    def _measure(self, configuration: Any) -> Measurement:
        self._require_prepared()
        session = self._lowering_session
        if session is None:
            raise RuntimeError("backend was not prepared")
        stage = self._stage
        # Only the replay sits in measure()'s ValueError→infeasible net: a
        # ValueError *here* is the compiler refusing the mapping.  Failures
        # past this point are codegen/runtime infrastructure bugs and must
        # surface loudly, never masquerade as an "infeasible" candidate.
        artifacts = session.replay_artifacts(config=configuration, upto=stage)
        source = artifacts[stage].value
        mapped = artifacts["mapping"].value

        try:
            namespace: Dict[str, Any] = {}
            exec(compile(source, f"<{stage}:{mapped.program.name}>", "exec"), namespace)
            kernel = namespace["kernel"]
            pristine = self._seeded_arrays(mapped.program)
            params = dict(mapped.param_binding)

            # warmups overlap freely across measurement threads; only the
            # timed loop serializes, so concurrent candidates never distort
            # each other's recorded numbers
            for _ in range(self.warmup):
                arrays = {name: value.copy() for name, value in pristine.items()}
                kernel(arrays, params)
            times_ms: List[float] = []
            with TIMED_SECTION_LOCK:
                for _ in range(self.repeat):
                    arrays = {name: value.copy() for name, value in pristine.items()}
                    started = time.perf_counter()
                    kernel(arrays, params)
                    times_ms.append(1e3 * (time.perf_counter() - started))
        except ValueError as error:
            raise RuntimeError(
                f"emitted Python kernel for {mapped.program.name!r} failed at "
                f"runtime: {error}"
            ) from error
        time_ms = trimmed_median(times_ms, self.trim)

        spec = self._spec
        metadata: Dict[str, Any] = {
            "cycles": time_ms * 1e3 * spec.cycles_per_us if spec else 0.0,
            "shared_bytes_per_block": mapped.geometry.shared_memory_per_block_bytes,
            "warmup": self.warmup,
            "repeat": self.repeat,
            "trim": self.trim,
            "times_ms": times_ms,
            "source_lines": len(source.splitlines()),
            "lowering": stage,
        }
        return Measurement(time_ms=time_ms, kind=self.kind, metadata=metadata)

    # -- identity ----------------------------------------------------------------
    def signature(self) -> Dict[str, Any]:
        # workers is absent by design: timed sections serialize, so the
        # numbers do not depend on it.  vectorize is present: scalar and
        # vectorised artifacts time differently — and so do artifacts of
        # different lowering revisions, which is not the user's choice and
        # therefore here but not in uri().
        return {
            "scheme": self.scheme,
            "warmup": self.warmup,
            "repeat": self.repeat,
            "trim": self.trim,
            "vectorize": self.vectorize,
            "lowering": LOWERING_REVISION,
        }

    def uri(self) -> str:
        options = [f"warmup={self.warmup}", f"repeat={self.repeat}", f"trim={self.trim}"]
        if self.vectorize != "auto":
            options.append(f"vectorize={self.vectorize}")
        if self.workers != 1:
            options.append(f"workers={self.workers}")
        return f"{self.scheme}:{','.join(options)}"

    def describe(self) -> str:
        return (
            f"execute the {self._stage} stage artifact on seeded inputs "
            f"(warmup={self.warmup}, repeat={self.repeat}, trimmed median)"
        )
