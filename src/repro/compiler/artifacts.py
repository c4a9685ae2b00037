"""Immutable, fingerprintable per-stage compilation results.

Every pass of the staged compiler produces a :class:`StageArtifact`: the
stage's value (one of the payload classes below, or the final
:class:`MappedKernel`) tagged with a content fingerprint.  Fingerprints are
pure functions of the session inputs (program text, parameter binding,
machine spec) and the option fields the stage reads, so

* two sessions compiling the same program agree on every fingerprint,
* replaying a configuration can *prove* which upstream artifacts stay valid
  (a stage whose fingerprint is unchanged under the new options need not
  re-run), and
* ``inspect-stages`` can show cache identity without hashing payloads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.ir.program import Program
from repro.machine.gpu import BlockWorkload
from repro.scratchpad.manager import ScratchpadPlan
from repro.tiling.bands import BandAnalysis
from repro.tiling.cost_model import TileBoxGeometry
from repro.tiling.mapping import LaunchGeometry
from repro.tiling.multilevel import TiledProgram, TilingLevelSpec, tile_program
from repro.tiling.tile_search import TileSearchResult


@dataclass(frozen=True)
class StageArtifact:
    """One stage's frozen result: ``value`` tagged with identity metadata."""

    stage: str
    fingerprint: str
    value: Any

    @property
    def short_fingerprint(self) -> str:
        return self.fingerprint[:12]


@dataclass(frozen=True)
class AnalysisArtifact:
    """Config-invariant affine analysis of one (program, binding) pair.

    Everything here depends only on the program and its bound parameters —
    never on :class:`~repro.core.options.MappingOptions` — which is what makes
    it safe to reuse across every configuration a tuning request evaluates.
    """

    program: Program
    binding: Mapping[str, int]
    analysis: BandAnalysis
    extents: Mapping[str, int]
    lowers: Mapping[str, int]
    space_loops: Tuple[str, ...]

    @cached_property
    def tile_box_geometry(self) -> TileBoxGeometry:
        """The symbolic half of the §4.3 cost model, derived on first use: as
        config-invariant as the fields above, so the seed compile's tile search
        and every launch geometry's model share it; a warm hit never asks."""
        return TileBoxGeometry(self.program, self.analysis.loop_order, self.binding)

    # the derived geometry stays behind: a pool worker replays explicit tile sizes
    def __getstate__(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class TilingArtifact:
    """The multi-level tiling decision and its materialised loop structure.

    The scratchpad stage splices copy code into ``tiled.program`` *in place*,
    so a tiled program can only feed one downstream consumer.
    :meth:`take_tiled` hands out the pristine program exactly once and
    re-materialises (cheap, deterministic — no polyhedral analysis) for every
    later consumer, which is what makes ``replay(from_stage="scratchpad")``
    sound.
    """

    program: Program
    levels: List[TilingLevelSpec]
    block_level: int
    outer_tiles: Dict[str, int]
    mem_tiles: Dict[str, int]
    thread_tiles: Dict[str, int]
    search: Optional[TileSearchResult] = None
    _tiled: Optional[TiledProgram] = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def take_tiled(self) -> TiledProgram:
        """The tiled program, safe to mutate — pristine once, then rebuilt."""
        with self._lock:
            if self._tiled is not None:
                tiled, self._tiled = self._tiled, None
                return tiled
        return tile_program(self.program, self.levels, block_level=self.block_level)

    # Pickles as part of a session shipped to process-pool workers; the lock
    # is process-local state.
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_lock"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


@dataclass(frozen=True)
class ScratchpadArtifact:
    """The scratchpad data-movement plan applied to one tiled program."""

    tiled: TiledProgram
    plan: Optional[ScratchpadPlan]

    @property
    def program(self) -> Program:
        return self.tiled.program


@dataclass
class MappedKernel:
    """Everything the compiler produces for one kernel configuration."""

    original: Program
    analysis: BandAnalysis
    tiled: Optional[TiledProgram]
    plan: Optional[ScratchpadPlan]
    #: final executable program (tiled structure, remapped accesses, copy code)
    program: Program
    geometry: LaunchGeometry
    workload: BlockWorkload
    global_sync_rounds: int
    tile_sizes: Dict[str, int]
    outer_tile_sizes: Dict[str, int]
    tile_search: Optional[TileSearchResult] = None
    param_binding: Dict[str, int] = field(default_factory=dict)

    @property
    def uses_scratchpad(self) -> bool:
        return self.plan is not None and bool(self.plan.buffers)
