"""Compilation tallies, kept in the process-wide metrics registry.

The compiler counts its work in exactly one place —
:data:`repro.telemetry.metrics.METRICS` — so what a test asserts, what a
worker's completion payload reports and what the tuning server's
``/metrics`` endpoint exposes are the same numbers:

* ``repro_compiles_total`` counts *end-to-end* compilations (one per
  :class:`~repro.compiler.passes.MappingPass` execution).  The autotuner's
  persistent cache promises that a warm request performs zero compiles;
  :func:`counting_compiles` is how tests, benchmarks and the tuning service
  verify that promise.
* ``repro_stage_runs_total{stage=...}`` / ``repro_pass_seconds{stage=...}``
  count and time *per-stage* pass executions.  Session replay promises that
  config-invariant stages (affine analysis) run once per request rather
  than once per candidate; :func:`counting_stage_runs` is how that promise
  is verified.

Registry counters only ever grow, so both helpers report the *delta* over a
``with`` block.  The registry is process-global: work done by other threads
of this process during the block is included.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict

from repro.telemetry.metrics import METRICS

COMPILES_TOTAL = METRICS.counter(
    "repro_compiles_total", "end-to-end pipeline compilations"
)
STAGE_RUNS_TOTAL = METRICS.counter(
    "repro_stage_runs_total", "compiler pass executions", labels=("stage",)
)
PASS_SECONDS = METRICS.histogram(
    "repro_pass_seconds", "per-pass wall time in seconds", labels=("stage",)
)


def record_pass_execution(stage: str, elapsed_s: float) -> None:
    """One executed pass: count it and observe its wall time.

    The single instrumentation point :meth:`PassManager.run` calls, so the
    per-stage counts and the ``repro_pass_seconds`` histogram can never
    drift apart.
    """
    STAGE_RUNS_TOTAL.inc(stage=stage)
    PASS_SECONDS.observe(elapsed_s, stage=stage)


@dataclass
class CompileCount:
    """Result slot of :func:`counting_compiles`."""

    count: int = 0


@contextlib.contextmanager
def counting_compiles():
    """Count the pipeline compiles performed inside the ``with`` block.

    Yields a :class:`CompileCount` whose ``count`` is final once the block
    exits.  Compiles on *other* threads of this process during the block are
    included — callers wanting an exact per-task figure (the tuning service's
    per-job accounting, the CLI) should not run compiles concurrently in the
    same process, or should treat the figure as an upper bound.
    """
    start = COMPILES_TOTAL.value()
    box = CompileCount()
    try:
        yield box
    finally:
        box.count = int(COMPILES_TOTAL.value() - start)


@dataclass
class StageRunCount:
    """Result slot of :func:`counting_stage_runs`."""

    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@contextlib.contextmanager
def counting_stage_runs():
    """Count per-stage pass executions inside the ``with`` block.

    Yields a :class:`StageRunCount` whose ``counts`` maps stage name to the
    number of executions once the block exits.  Like
    :func:`counting_compiles`, the delta is process-global: stages run by
    other threads during the block are included.
    """
    start = STAGE_RUNS_TOTAL.samples()
    box = StageRunCount()
    try:
        yield box
    finally:
        for key, runs in STAGE_RUNS_TOTAL.samples().items():
            delta = int(runs - start.get(key, 0.0))
            if delta:
                box.counts[key[0]] = delta
