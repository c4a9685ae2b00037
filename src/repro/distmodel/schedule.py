"""Overlap-aware phase schedules for distributed mappings.

A distributed execution is priced as an ordered sequence of
:class:`Phase` objects, each carrying its compute cycles, its total
communication cycles, and — the part a naive sum gets wrong — the
*exposed* communication cycles: the portion of communication the schedule
could not hide under compute.  A phase's elapsed time is
``compute + exposed_comm``; for a serial (blocking) phase the exposed
communication is all of it, while a pipelined phase exposes only the fill
of the first panel plus whatever the steady state leaves uncovered
(``max(0, comm_step − compute_step)`` per step).

:class:`PhaseSchedule` aggregates phases into totals, reports the fraction
of *overlappable* communication the schedule actually hid (the quantity
the bench acceptance gates on), and publishes per-phase wall times into
the ``repro_dist_phase_seconds{phase}`` histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro.machine.spec import GridSpec
from repro.telemetry import METRICS, trace

DIST_PHASE_SECONDS = METRICS.histogram(
    "repro_dist_phase_seconds",
    "modelled wall time of each distributed-schedule phase",
    labels=("phase",),
)


@dataclass(frozen=True)
class Phase:
    """One phase of a distributed schedule, in fabric cycles."""

    name: str
    compute_cycles: float = 0.0
    comm_cycles: float = 0.0
    #: communication cycles not hidden under this phase's compute
    exposed_comm_cycles: float = 0.0
    #: whether this phase's schedule was allowed to overlap comm and compute
    overlapped: bool = False
    #: number of identical pipeline steps folded into this phase
    steps: int = 1
    meta: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def serial(
        cls,
        name: str,
        compute_cycles: float = 0.0,
        comm_cycles: float = 0.0,
        **meta: Any,
    ) -> "Phase":
        """A blocking phase: every communication cycle is exposed."""
        return cls(
            name=name,
            compute_cycles=compute_cycles,
            comm_cycles=comm_cycles,
            exposed_comm_cycles=comm_cycles,
            overlapped=False,
            meta=meta,
        )

    @property
    def elapsed_cycles(self) -> float:
        return self.compute_cycles + self.exposed_comm_cycles

    @property
    def hidden_comm_cycles(self) -> float:
        return max(0.0, self.comm_cycles - self.exposed_comm_cycles)


@dataclass(frozen=True)
class PhaseSchedule:
    """An ordered sequence of phases priced as one distributed execution."""

    phases: Tuple[Phase, ...]

    @property
    def total_cycles(self) -> float:
        return sum(p.elapsed_cycles for p in self.phases)

    @property
    def comm_cycles(self) -> float:
        return sum(p.comm_cycles for p in self.phases)

    @property
    def exposed_comm_cycles(self) -> float:
        return sum(p.exposed_comm_cycles for p in self.phases)

    @property
    def hidden_comm_cycles(self) -> float:
        return sum(p.hidden_comm_cycles for p in self.phases)

    @property
    def overlappable_comm_cycles(self) -> float:
        """Communication in phases whose schedule permits overlap."""
        return sum(p.comm_cycles for p in self.phases if p.overlapped)

    @property
    def hidden_fraction(self) -> float:
        """Fraction of *overlappable* communication hidden under compute.

        This is the acceptance quantity: a pipelined compute phase that
        hides its panel broadcasts scores close to 1.0, a blocking schedule
        (no overlapped phases) scores 0.0.
        """
        overlappable = self.overlappable_comm_cycles
        if overlappable <= 0.0:
            return 0.0
        return self.hidden_comm_cycles / overlappable

    def time_ms(self, grid: GridSpec) -> float:
        return self.total_cycles / grid.cycles_per_us / 1000.0

    def phase_seconds(self, grid: GridSpec) -> Dict[str, float]:
        return {
            p.name: p.elapsed_cycles / grid.cycles_per_us / 1e6 for p in self.phases
        }

    def record(self, grid: GridSpec) -> None:
        """Publish each phase's modelled wall time and annotate the span."""
        seconds = self.phase_seconds(grid)
        for name, value in seconds.items():
            DIST_PHASE_SECONDS.observe(value, phase=name)
        trace.annotate(dist_phases=seconds)
