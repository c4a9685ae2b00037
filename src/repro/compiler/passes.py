"""The compiler's stages as first-class, registered passes.

The paper's toolchain is explicitly staged, and the pass list mirrors it:

1. ``analysis`` — parallelism detection (bands, space/time loops) and loop
   extents — Section 4.1.  Config-invariant: depends only on the program and
   its bound parameters.
2. ``tiling`` — outer-level tiling across thread blocks, memory-constrained
   intra-tile tiling (tile sizes either given or found by the Section-4.3
   search), and inner-level tiling across threads — Figs. 2–3.
3. ``scratchpad`` — scratchpad data management for the tile body — Section 3
   — with copy code placed at the block boundary and synchronisation points
   inserted.
4. ``mapping`` — launch geometry and the per-block workload descriptor for
   the analytical machine models (the stand-in for running CUDA on the
   8800 GTX).
5. ``emit`` *(optional terminal pass, not in the default list)* — renders the
   mapped program as C-like text via :func:`repro.codegen.emit_c`.
6. ``lower-py`` *(optional terminal pass)* — lowers the mapped program to
   executable Python source via :func:`repro.codegen.emit_py.
   emit_python_source`; the ``measure-py:`` evaluation backend executes and
   times this artifact instead of pricing the model.

Each :class:`Pass` declares which upstream stages it consumes (``inputs``)
and which :class:`~repro.core.options.MappingOptions` fields it reads
(``option_fields``); the latter is what lets
:class:`~repro.compiler.session.CompilationSession` prove that a replayed
configuration leaves an upstream artifact valid.  New passes register through
:func:`register_pass` and are resolved by name, with typos rejected early by
:func:`resolve_pass_names`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.core.options import MappingOptions
from repro.ir.ast import StatementNode, SyncNode
from repro.ir.printer import program_to_c
from repro.ir.program import Program
from repro.ir.statements import Statement
from repro.machine.gpu import BlockWorkload
from repro.machine.memory import MemoryModel
from repro.machine.spec import GPUSpec
from repro.polyhedral.parametric import parametric_bounds
from repro.scratchpad.manager import ScratchpadManager, ScratchpadOptions, ScratchpadPlan
from repro.scratchpad.remap import build_remap_table, remap_statement
from repro.tiling.bands import analyze_bands
from repro.tiling.cost_model import DataMovementCostModel
from repro.tiling.mapping import LaunchGeometry, blocks_for_extent
from repro.tiling.multilevel import TiledProgram, TilingLevelSpec, tile_program
from repro.tiling.placement import placement_depths
from repro.tiling.tile_search import TileSearchProblem, TileSearchResult, search_tile_sizes

from repro.compiler.artifacts import (
    AnalysisArtifact,
    MappedKernel,
    ScratchpadArtifact,
    StageArtifact,
    TilingArtifact,
)
from repro.compiler.instrument import COMPILES_TOTAL


# -- shared helpers (used by the passes and by repro.autotune.space) -------------------
def loop_extents(
    program: Program, binding: Mapping[str, int]
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Concrete extent and lower bound of every loop of the (deepest) nest.

    Shared by the compiler and the autotuner's configuration space so both
    derive launch geometry from identical extents.
    """
    extents: Dict[str, int] = {}
    lowers: Dict[str, int] = {}
    for statement in program.statement_list:
        for loop in statement.domain.dims:
            if loop in extents:
                continue
            bound = parametric_bounds(statement.domain, loop)
            low = bound.lower.evaluate_int(binding)
            high = bound.upper.evaluate_int(binding)
            extents[loop] = max(high - low + 1, 1)
            lowers[loop] = low
    return extents, lowers


def split_across(
    total: int, loops: Sequence[str], weights: Mapping[str, int]
) -> Dict[str, int]:
    """Split a process count across loops, proportionally to their extents."""
    counts = {loop: 1 for loop in loops}
    remaining = total
    if len(loops) == 1:
        counts[loops[0]] = total
        return counts
    # Repeatedly double the count of the loop with the largest per-count extent.
    while remaining > 1:
        best = max(loops, key=lambda l: weights[l] / counts[l])
        if counts[best] * 2 > total:
            break
        counts[best] *= 2
        product = 1
        for loop in loops:
            product *= counts[loop]
        if product >= total:
            break
        remaining = total // product
    return counts


def _access_counts(statement: Statement) -> Tuple[float, float]:
    """(global, shared) accesses per dynamic instance of a statement."""
    global_count = 0.0
    shared_count = 0.0
    loads = statement.read_loads() + [statement.write_load()]
    for load in loads:
        if load.array.is_local:
            shared_count += 1
        else:
            global_count += 1
    return global_count, shared_count


# -- pass context -------------------------------------------------------------------
@dataclass
class PassContext:
    """Everything a pass may read: session inputs plus upstream artifacts."""

    program: Program
    spec: GPUSpec
    options: MappingOptions
    param_values: Optional[Mapping[str, int]]
    memory: MemoryModel
    #: session-identity hash (program text + binding + machine spec)
    base_fingerprint: str
    artifacts: Dict[str, StageArtifact] = field(default_factory=dict)

    def value(self, stage: str) -> Any:
        """The upstream artifact value a pass declared in its ``inputs``."""
        try:
            return self.artifacts[stage].value
        except KeyError:
            raise RuntimeError(
                f"pass requires the {stage!r} artifact but it has not been run"
            ) from None


def base_fingerprint(
    program: Program, spec: GPUSpec, param_values: Optional[Mapping[str, int]]
) -> str:
    """Session identity: hashes the rendered program, binding and machine."""
    import dataclasses as _dataclasses

    binding = program.bound_params(param_values)
    payload = {
        "program": program_to_c(program),
        "params": {k: binding[k] for k in sorted(binding)},
        "spec": _dataclasses.asdict(spec),
    }
    rendered = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


# -- pass interface -----------------------------------------------------------------
class Pass:
    """One stage of the compiler: a named, fingerprintable unit of work."""

    #: stage name (unique within a pass list)
    name: str = "base"
    #: upstream stages whose artifacts :meth:`run` consumes
    inputs: Tuple[str, ...] = ()
    #: :class:`MappingOptions` fields this pass reads — the fingerprint
    #: ingredient that decides whether a cached artifact survives a replay
    option_fields: Tuple[str, ...] = ()

    @property
    def config_dependent(self) -> bool:
        """Whether any mapping option can change this pass's output."""
        return bool(self.option_fields)

    def fingerprint(self, ctx: PassContext, upstream: Sequence[str]) -> str:
        """Artifact identity under ``ctx.options`` — computable without running."""
        options = ctx.options.to_dict()
        payload = {
            "stage": self.name,
            "base": ctx.base_fingerprint,
            "options": {name: options[name] for name in self.option_fields},
            "upstream": list(upstream),
        }
        rendered = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(rendered.encode("utf-8")).hexdigest()

    def run(self, ctx: PassContext) -> Any:
        raise NotImplementedError


class AnalysisPass(Pass):
    """Affine analysis: bands, space/time loops, loop extents (Section 4.1).

    Config-invariant (``option_fields`` is empty): its artifact survives
    every replay, which is what lets a tuning request analyse once and
    evaluate hundreds of configurations.
    """

    name = "analysis"

    def run(self, ctx: PassContext) -> AnalysisArtifact:
        binding = ctx.program.bound_params(ctx.param_values)
        analysis = analyze_bands(ctx.program)
        extents, lowers = loop_extents(ctx.program, binding)
        space_loops = tuple(analysis.space_loops) or (analysis.loop_order[0],)
        return AnalysisArtifact(
            program=ctx.program,
            binding=binding,
            analysis=analysis,
            extents=extents,
            lowers=lowers,
            space_loops=space_loops,
        )


class TilingPass(Pass):
    """Multi-level tiling: block/memory/thread levels (Section 4, Figs. 2–3)."""

    name = "tiling"
    inputs = ("analysis",)
    option_fields = (
        "num_blocks",
        "threads_per_block",
        "tile_sizes",
        "delta",
        "target",
        "hoisting",
    )

    def run(self, ctx: PassContext) -> TilingArtifact:
        art: AnalysisArtifact = ctx.value("analysis")
        options = ctx.options
        extents = art.extents
        space_loops = list(art.space_loops)

        block_counts = split_across(options.num_blocks, space_loops, extents)
        outer_tiles = {
            loop: max(1, math.ceil(extents[loop] / block_counts[loop]))
            for loop in space_loops
        }

        search_result: Optional[TileSearchResult] = None
        if options.tile_sizes is not None:
            mem_tiles = {
                loop: min(int(size), extents[loop])
                for loop, size in options.tile_sizes.items()
                if loop in extents
            }
        else:
            mem_tiles, search_result = self._search_tiles(ctx, art, outer_tiles)
        for loop in art.analysis.loop_order:
            mem_tiles.setdefault(loop, min(outer_tiles.get(loop, extents[loop]), extents[loop]))

        thread_counts = split_across(options.threads_per_block, space_loops, mem_tiles)
        thread_tiles = {
            loop: max(1, math.ceil(mem_tiles[loop] / thread_counts[loop]))
            for loop in space_loops
        }

        levels = [
            TilingLevelSpec(sizes=dict(outer_tiles), parallel="blocks", suffix="T"),
            TilingLevelSpec(sizes=dict(mem_tiles), parallel=None, suffix="p"),
            TilingLevelSpec(sizes=dict(thread_tiles), parallel="threads", suffix="t"),
        ]
        tiled = tile_program(ctx.program, levels, block_level=1)
        return TilingArtifact(
            program=ctx.program,
            levels=levels,
            block_level=1,
            outer_tiles=outer_tiles,
            mem_tiles=mem_tiles,
            thread_tiles=thread_tiles,
            search=search_result,
            _tiled=tiled,
        )

    @staticmethod
    def _search_tiles(
        ctx: PassContext,
        art: AnalysisArtifact,
        outer_tiles: Mapping[str, int],
    ) -> Tuple[Dict[str, int], TileSearchResult]:
        """Run the Section-4.3 search for the memory-level tile sizes."""
        options = ctx.options
        extents = {
            loop: outer_tiles.get(loop, art.extents[loop])
            for loop in art.analysis.loop_order
        }
        model = DataMovementCostModel(
            program=ctx.program,
            tile_loops=list(art.analysis.loop_order),
            loop_extents=extents,
            threads=options.threads_per_block,
            sync_cost=ctx.spec.block_sync_cycles,
            transfer_cost=ctx.spec.dma_cycles_per_element,
            problem_params=dict(art.binding),
            delta=options.delta,
            stage_all=options.target == "cell",
            hoisting=options.hoisting,
            geometry=art.tile_box_geometry,
        )
        blocks_per_mp = 1
        if art.analysis.needs_global_synchronization:
            blocks_per_mp = max(
                1, math.ceil(options.num_blocks / ctx.spec.multiprocessors)
            )
        memory_limit = ctx.memory.memory_limit_per_block(blocks_per_mp)
        problem = TileSearchProblem(
            cost_model=model,
            memory_limit_bytes=float(memory_limit),
            min_parallelism=options.threads_per_block,
        )
        result = search_tile_sizes(problem)
        return dict(result.tile_sizes), result


class ScratchpadPass(Pass):
    """Scratchpad data management spliced into the tile body (Section 3)."""

    name = "scratchpad"
    inputs = ("analysis", "tiling")
    option_fields = ("use_scratchpad", "delta", "target", "liveness")

    def run(self, ctx: PassContext) -> ScratchpadArtifact:
        art: AnalysisArtifact = ctx.value("analysis")
        tiling: TilingArtifact = ctx.value("tiling")
        tiled = tiling.take_tiled()
        plan: Optional[ScratchpadPlan] = None
        if ctx.options.use_scratchpad:
            plan = self._apply(ctx, art, tiled)
        return ScratchpadArtifact(tiled=tiled, plan=plan)

    @staticmethod
    def _apply(
        ctx: PassContext, art: AnalysisArtifact, tiled: TiledProgram
    ) -> ScratchpadPlan:
        """Plan buffers for the tile body and splice copy code into the block."""
        options = ctx.options
        representative = dict(art.binding)
        for level in tiled.levels:
            for original, (iterator, _size) in level.iterators.items():
                representative[iterator] = art.lowers.get(original, 0)
        manager = ScratchpadManager(
            ScratchpadOptions(
                delta=options.delta,
                target=options.target,
                context=tiled.context,
                param_binding=representative,
                liveness=options.liveness,
            )
        )
        program = tiled.program
        plan = manager.plan(program)
        if not plan.buffers:
            return plan

        table = build_remap_table(plan.specs())
        remapped: Dict[str, Statement] = {}
        for statement in list(program.statements.values()):
            remapped[statement.name] = remap_statement(statement, table)
        for node in program.body.walk():
            if isinstance(node, StatementNode) and node.statement.name in remapped:
                node.statement = remapped[node.statement.name]
        program.statements.update(remapped)

        new_block: List = []
        for entry in plan.buffers:
            if entry.movement.has_copy_in():
                new_block.extend(entry.movement.copy_in.body)
                for statement in entry.movement.copy_in_statements:
                    program.add_statement(statement)
        if new_block:
            new_block.append(SyncNode(scope="threads"))
        new_block.extend(tiled.block_body.body)
        copy_out_nodes: List = []
        for entry in plan.buffers:
            if entry.movement.has_copy_out():
                copy_out_nodes.extend(entry.movement.copy_out.body)
                for statement in entry.movement.copy_out_statements:
                    program.add_statement(statement)
        if copy_out_nodes:
            new_block.append(SyncNode(scope="threads"))
            new_block.extend(copy_out_nodes)
        tiled.block_body.body = new_block

        for spec in plan.specs():
            program.add_array(spec.local)
            program.symbol_definitions.update(spec.offset_definitions)
        program.name = f"{program.name}_spm"
        program.validate()
        return plan


class MappingPass(Pass):
    """Launch geometry + per-block workload extraction for the machine models.

    Producing a :class:`MappedKernel` is what "one compile" means, so the
    registry's ``repro_compiles_total`` is bumped here — every path that
    runs this pass (session compile, replay, artifact access) counts exactly
    once, and cached results count zero.
    """

    name = "mapping"
    inputs = ("analysis", "tiling", "scratchpad")
    option_fields = ("num_blocks", "threads_per_block", "hoisting", "use_scratchpad")

    def run(self, ctx: PassContext) -> MappedKernel:
        COMPILES_TOTAL.inc()
        art: AnalysisArtifact = ctx.value("analysis")
        tiling: TilingArtifact = ctx.value("tiling")
        staged: ScratchpadArtifact = ctx.value("scratchpad")
        options = ctx.options
        plan = staged.plan

        geometry = LaunchGeometry(
            num_blocks=options.num_blocks,
            threads_per_block=options.threads_per_block,
            shared_memory_per_block_bytes=plan.total_footprint_bytes() if plan else 0,
        )
        workload, rounds = self._build_workload(ctx, art, tiling, plan)
        return MappedKernel(
            original=ctx.program,
            analysis=art.analysis,
            tiled=staged.tiled,
            plan=plan,
            program=staged.program,
            geometry=geometry,
            workload=workload,
            global_sync_rounds=rounds,
            tile_sizes=dict(tiling.mem_tiles),
            outer_tile_sizes=dict(tiling.outer_tiles),
            tile_search=tiling.search,
            param_binding=dict(art.binding),
        )

    @staticmethod
    def _build_workload(
        ctx: PassContext,
        art: AnalysisArtifact,
        tiling: TilingArtifact,
        plan: Optional[ScratchpadPlan],
    ) -> Tuple[BlockWorkload, int]:
        options = ctx.options
        program = ctx.program
        analysis = art.analysis
        extents, lowers = art.extents, art.lowers
        outer_tiles, mem_tiles = tiling.outer_tiles, tiling.mem_tiles

        total_instances = 0.0
        weighted_global = 0.0
        weighted_shared = 0.0
        table = build_remap_table(plan.specs()) if plan else {}
        for statement in program.statement_list:
            instances = 1.0
            for loop in statement.domain.dims:
                instances *= extents[loop]
            total_instances += instances
            target = remap_statement(statement, table) if table else statement
            global_accesses, shared_accesses = _access_counts(target)
            weighted_global += instances * global_accesses
            weighted_shared += instances * shared_accesses
        if total_instances == 0:
            raise ValueError("program has no statement instances")
        global_per_instance = weighted_global / total_instances
        shared_per_instance = weighted_shared / total_instances
        instances_per_block = total_instances / options.num_blocks

        element_size = next(iter(program.arrays.values())).element_size
        copy_in = copy_out = occurrences_total = 0.0
        if plan is not None and plan.buffers:
            representative = dict(art.binding)
            representative.update(
                {f"{loop}T": lowers[loop] for loop in outer_tiles}
            )
            for loop in analysis.loop_order:
                representative.setdefault(f"{loop}p", lowers[loop])
                representative.setdefault(f"{loop}t", lowers[loop])
            block_loops = [
                (f"{loop}p", loop) for loop in analysis.loop_order if loop in mem_tiles
            ]
            depths = placement_depths(
                plan.specs(), block_loops, enable_hoisting=options.hoisting
            )
            for entry in plan.buffers:
                spec_loops = block_loops[: depths[entry.spec.local.name]]
                occurrences = 1.0
                for _tile_iter, original in spec_loops:
                    extent = outer_tiles.get(original, extents[original])
                    occurrences *= math.ceil(extent / mem_tiles[original])
                volume_in = entry.movement.volume_in(representative)
                volume_out = entry.movement.volume_out(representative)
                copy_in += occurrences * volume_in
                copy_out += occurrences * volume_out
                occurrences_total += occurrences * (
                    int(volume_in > 0) + int(volume_out > 0)
                )
            element_size = plan.buffers[0].spec.original.element_size

        workload = BlockWorkload(
            compute_instances=instances_per_block,
            global_accesses_per_instance=global_per_instance,
            shared_accesses_per_instance=shared_per_instance,
            copy_in_elements=copy_in,
            copy_out_elements=copy_out,
            copy_occurrences=occurrences_total,
            element_size=element_size,
        )

        rounds = 1
        if analysis.needs_global_synchronization and analysis.space_loops:
            first_space = analysis.loop_order.index(analysis.space_loops[0])
            for loop in analysis.loop_order[:first_space]:
                if loop in analysis.time_loops:
                    rounds *= blocks_for_extent(extents[loop], mem_tiles[loop])
        return workload, rounds


class EmitCPass(Pass):
    """Optional terminal pass: render the mapped program as C-like text."""

    name = "emit"
    inputs = ("mapping",)
    option_fields = ("num_blocks", "threads_per_block", "use_scratchpad")

    def run(self, ctx: PassContext) -> str:
        from repro.codegen import emit_c

        mapped: MappedKernel = ctx.value("mapping")
        geometry = mapped.geometry
        header = (
            f"kernel {mapped.program.name}\n"
            f"blocks={geometry.num_blocks} threads={geometry.threads_per_block} "
            f"shared={geometry.shared_memory_per_block_bytes}B "
            f"sync_rounds={mapped.global_sync_rounds}"
        )
        return emit_c(mapped.program, header=header)


class LowerPyPass(Pass):
    """Optional terminal pass: lower the mapped program to executable Python.

    The artifact value is plain Python source defining
    ``kernel(arrays, params)`` (see :func:`repro.codegen.emit_py.
    emit_python_source`), which the ``measure-py:`` evaluation backend
    compiles with ``exec`` and *times* on seeded inputs — evaluation by
    executing the emitted artifact, the paper's empirical loop, instead of
    pricing the analytical model.
    """

    name = "lower-py"
    inputs = ("mapping",)
    option_fields = ("num_blocks", "threads_per_block", "use_scratchpad")

    def run(self, ctx: PassContext) -> str:
        from repro.codegen import emit_python_source

        mapped: MappedKernel = ctx.value("mapping")
        return emit_python_source(mapped.program)


class LowerPyVecPass(LowerPyPass):
    """``lower-py`` with eligible innermost loops rewritten to numpy.

    Same artifact contract as :class:`LowerPyPass` (Python source defining
    ``kernel(arrays, params)``), produced by :func:`repro.codegen.
    emit_py_vec.emit_python_source_vectorized` — behaviourally identical but
    several times faster to execute, which is what makes rank-ordering many
    candidates with ``measure-py:`` affordable.  Falls back to the scalar
    source when numpy is absent at lowering time.
    """

    name = "lower-py-vec"

    def run(self, ctx: PassContext) -> str:
        from repro.codegen import emit_python_source_vectorized

        mapped: MappedKernel = ctx.value("mapping")
        return emit_python_source_vectorized(mapped.program)


# -- registry -----------------------------------------------------------------------
#: registered pass factories, keyed by stage name
PASS_REGISTRY: Dict[str, Type[Pass]] = {}

#: stage order of the standard compiler ("emit" and "lower-py" are opt-in)
DEFAULT_PASSES: Tuple[str, ...] = ("analysis", "tiling", "scratchpad", "mapping")

#: terminal passes that may follow "mapping" (opt-in, one artifact each)
TERMINAL_PASSES: Tuple[str, ...] = ("emit", "lower-py", "lower-py-vec")


def register_pass(factory: Type[Pass]) -> Type[Pass]:
    """Register a pass class under its ``name`` (unique)."""
    if factory.name in PASS_REGISTRY:
        raise ValueError(f"pass {factory.name!r} is already registered")
    PASS_REGISTRY[factory.name] = factory
    return factory


for _factory in (
    AnalysisPass,
    TilingPass,
    ScratchpadPass,
    MappingPass,
    EmitCPass,
    LowerPyPass,
    LowerPyVecPass,
):
    register_pass(_factory)


def resolve_pass_names(passes: Sequence[Any]) -> List[Pass]:
    """Materialise a pass list from names and/or instances.

    Unknown names fail *early* with the full registry listed — a typo in a
    stage name must never surface as an obscure error deep inside a pass.
    """
    resolved: List[Pass] = []
    for entry in passes:
        if isinstance(entry, Pass):
            resolved.append(entry)
        elif isinstance(entry, str):
            try:
                resolved.append(PASS_REGISTRY[entry]())
            except KeyError:
                raise ValueError(
                    f"unknown pass {entry!r}; registered passes: "
                    f"{', '.join(sorted(PASS_REGISTRY))}"
                ) from None
        else:
            raise TypeError(
                f"passes must be names or Pass instances, got {type(entry).__name__}"
            )
    seen: Dict[str, int] = {}
    for item in resolved:
        if item.name in seen:
            raise ValueError(f"duplicate pass name {item.name!r} in pass list")
        seen[item.name] = 1
    return resolved
