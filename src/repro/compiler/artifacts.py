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

from repro.ir.ast import BlockNode, StatementNode, SyncNode
from repro.ir.program import Program
from repro.machine.gpu import BlockWorkload
from repro.polyhedral.parametric import shared_resolutions
from repro.scratchpad.manager import ScratchpadPlan
from repro.scratchpad.remap import build_remap_table, remap_statement
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
        config-invariant as the fields above, so the seed's tile search and
        every launch geometry's model share it; a warm hit never asks."""
        return TileBoxGeometry(self.program, self.analysis.loop_order, self.binding)

    # the derived geometry stays behind: a pool worker replays explicit tile sizes
    def __getstate__(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _ProcessLocalLock:
    """Pickles (as part of a session shipped to process-pool workers) without
    its ``_lock``, which is process-local state, and gets a fresh one on load."""

    def __getstate__(self) -> Dict[str, Any]:
        return {**self.__dict__, "_lock": None}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


@dataclass
class TilingArtifact(_ProcessLocalLock):
    """The multi-level tiling decision and its materialised loop structure.

    The scratchpad artifact splices copy code into ``tiled.program`` *in
    place*, so a tiled program can only feed one downstream consumer.
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


@dataclass
class ScratchpadArtifact(_ProcessLocalLock):
    """The scratchpad plan for one tiled program — all the mapping stage prices.

    The first read of :attr:`program` (lowering, interpreter, ``emit``) scans
    the copy loops and splices them into ``tiled.program`` in place: once,
    under the owning session's exact-bound memo ``resolutions``.
    """

    tiled: TiledProgram
    plan: Optional[ScratchpadPlan]
    resolutions: Dict[tuple, object] = field(default_factory=dict, repr=False)
    _spliced: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def program(self) -> Program:
        with self._lock:
            if not self._spliced and self.plan is not None and self.plan.buffers:
                with shared_resolutions(self.resolutions):
                    _splice(self.tiled, self.plan)
            self._spliced = True
        return self.tiled.program


def _splice(tiled: TiledProgram, plan: ScratchpadPlan) -> None:
    """Redirect the tile body to the plan's buffers and wrap the block in copy code."""
    # scanned before the program is touched: a scan that raises leaves it as it was
    copy_in = BlockNode([node for entry in plan.buffers for node in entry.movement.copy_in.body])
    copy_out = BlockNode([node for entry in plan.buffers for node in entry.movement.copy_out.body])
    program = tiled.program
    table = build_remap_table(plan.specs())
    remapped = {s.name: remap_statement(s, table) for s in program.statements.values()}
    for node in program.body.walk():
        if isinstance(node, StatementNode) and node.statement.name in remapped:
            node.statement = remapped[node.statement.name]
    program.statements.update(remapped)
    for statement in copy_in.statements() + copy_out.statements():
        program.add_statement(statement)

    body = list(tiled.block_body.body)
    if copy_in.body:
        body = copy_in.body + [SyncNode(scope="threads")] + body
    if copy_out.body:
        body += [SyncNode(scope="threads")] + copy_out.body
    tiled.block_body.body = body
    for spec in plan.specs():
        program.add_array(spec.local)
        program.symbol_definitions.update(spec.offset_definitions)
    program.name = f"{program.name}_spm"
    program.validate()


@dataclass
class MappedKernel:
    """Everything the compiler produces for one kernel configuration."""

    original: Program
    analysis: BandAnalysis
    tiled: Optional[TiledProgram]
    plan: Optional[ScratchpadPlan]
    staged: ScratchpadArtifact
    geometry: LaunchGeometry
    workload: BlockWorkload
    global_sync_rounds: int
    tile_sizes: Dict[str, int]
    outer_tile_sizes: Dict[str, int]
    tile_search: Optional[TileSearchResult] = None
    param_binding: Dict[str, int] = field(default_factory=dict)

    @property
    def program(self) -> Program:
        """The final executable program: tiled structure, remapped accesses and
        copy code, scanned and spliced on first access."""
        return self.staged.program

    @property
    def uses_scratchpad(self) -> bool:
        return self.plan is not None and bool(self.plan.buffers)
