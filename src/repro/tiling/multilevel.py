"""The multi-level tiling transformation (paper Section 4.1, Figs. 2–3).

Given a program whose body is a perfect loop nest, :func:`tile_program`
introduces one new level of tiling loops per :class:`TilingLevelSpec`:

* an **outer** level distributing space-loop tiles across outer-level parallel
  units (GPU thread blocks),
* an optional **memory** level splitting each outer tile into sub-tiles whose
  data footprint fits the scratchpad (added "when the tile in an outer-level
  process is large enough such that it requires more local memory than the
  available amount"),
* an **inner** level distributing the iterations of an atomic unit across the
  inner-level parallel units (threads).

The transformation keeps the original iterators as point loops, rewrites
statement iteration domains to include the tile constraints (so that the
scratchpad framework sees tile-local data spaces parameterised by the tile
origins), and reports the *block boundary* — the loop body around which
copy-in / copy-out code must be placed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.ast import BlockNode, LoopNode, Node, StatementNode
from repro.ir.program import Program
from repro.ir.statements import Statement
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.parametric import QuasiAffineBound
from repro.polyhedral.polyhedron import Polyhedron


@dataclass(frozen=True)
class TilingLevelSpec:
    """One level of tiling.

    Attributes
    ----------
    sizes:
        Mapping from original loop iterator to the tile size at this level.
        Loops absent from the mapping are not tiled at this level.
    parallel:
        ``"blocks"`` / ``"threads"`` / ``None`` — parallelism level the new
        tile loops are mapped to.
    suffix:
        Suffix appended to the original iterator name to form the tile
        iterator name (``i`` → ``iT`` for the outer level, ``i_p`` for the
        memory level, ``it`` for the thread level, following Fig. 3).
    """

    sizes: Dict[str, int]
    parallel: Optional[str] = None
    suffix: str = "T"

    def __post_init__(self) -> None:
        for loop, size in self.sizes.items():
            if size <= 0:
                raise ValueError(f"tile size for loop {loop!r} must be positive, got {size}")


@dataclass
class LevelInfo:
    """Metadata about one instantiated tiling level."""

    spec: TilingLevelSpec
    #: original loop name -> (tile iterator name, tile size)
    iterators: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: loop nodes created for this level, outermost first
    loops: List[LoopNode] = field(default_factory=list)


@dataclass
class TiledProgram:
    """Result of :func:`tile_program`."""

    program: Program
    levels: List[LevelInfo]
    point_loops: List[LoopNode]
    #: Block node holding everything inside the scratchpad block boundary
    #: (the body of the innermost loop of ``block_level``).
    block_body: BlockNode
    #: Index into ``levels`` after which the computational block begins.
    block_level: int
    #: Parameter context: ranges of the tile iterators of levels up to
    #: ``block_level`` — the block parameters Algorithm 2's bounds are over
    #: (used for hull resolution by the scratchpad framework).
    context: Polyhedron
    original: Program

    def tile_iterator(self, level: int, loop: str) -> str:
        return self.levels[level].iterators[loop][0]

    def block_loops(self) -> List[LoopNode]:
        """Tile loops enclosing the block boundary, outermost first."""
        result: List[LoopNode] = []
        for level in self.levels[: self.block_level + 1]:
            result.extend(level.loops)
        return result

    def inner_loops(self) -> List[LoopNode]:
        """Loops inside the block boundary (deeper tile levels + point loops)."""
        result: List[LoopNode] = []
        for level in self.levels[self.block_level + 1 :]:
            result.extend(level.loops)
        result.extend(self.point_loops)
        return result


def _extract_perfect_nest(program: Program) -> Tuple[List[LoopNode], BlockNode]:
    """The program body must be a perfect nest: loops containing only one child
    loop each, with statements only at the innermost level."""
    loops: List[LoopNode] = []
    node: Node = program.body
    while True:
        if isinstance(node, BlockNode):
            loop_children = [child for child in node.body if isinstance(child, LoopNode)]
            stmt_children = [child for child in node.body if isinstance(child, StatementNode)]
            if loop_children and stmt_children:
                raise ValueError(
                    "tile_program requires a perfect loop nest; found statements and "
                    "loops at the same level"
                )
            if len(loop_children) == 1 and not stmt_children:
                node = loop_children[0]
                continue
            if not loop_children:
                return loops, node
            raise ValueError(
                "tile_program requires a perfect loop nest; found multiple loops at "
                "the same level"
            )
        if isinstance(node, LoopNode):
            loops.append(node)
            node = node.body
            continue
        raise ValueError(f"unexpected node {type(node).__name__} in a perfect nest")


def tile_program(
    program: Program,
    levels: Sequence[TilingLevelSpec],
    block_level: Optional[int] = None,
) -> TiledProgram:
    """Apply multi-level tiling to a perfect-nest program.

    ``block_level`` indicates after which tiling level the atomic
    computational block begins (default: the last level that is not
    thread-parallel) — copy code generated by the scratchpad framework is
    placed just inside the loops of that level.
    """
    if not levels:
        raise ValueError("at least one tiling level is required")
    nest_loops, innermost = _extract_perfect_nest(program)
    loop_order = [loop.iterator for loop in nest_loops]
    original_bounds = {
        loop.iterator: (loop.lower, loop.upper) for loop in nest_loops
    }
    for spec in levels:
        unknown = [name for name in spec.sizes if name not in loop_order]
        if unknown:
            raise ValueError(f"tiling level references unknown loops {unknown}")

    if block_level is None:
        block_level = _default_block_level(levels)

    transformed = Program(
        name=f"{program.name}_tiled",
        params=tuple(program.params),
        default_params=dict(program.default_params),
        symbol_definitions=dict(program.symbol_definitions),
    )
    for array in program.arrays.values():
        transformed.add_array(array)

    level_infos: List[LevelInfo] = [LevelInfo(spec=spec) for spec in levels]
    context_dims: List[str] = []
    context_constraints: List[Constraint] = []

    # Track, per original loop, the chain of (origin iterator, size, level)
    # created so far; used for the next level's bounds, the point loops and
    # the statement-domain rewriting.
    chains: Dict[str, List[Tuple[str, int, int]]] = {name: [] for name in loop_order}

    def _current_lower(name: str) -> AffineExpr:
        if chains[name]:
            origin, _, _ = chains[name][-1]
            return AffineExpr.var(origin)
        lower = original_bounds[name][0]
        return lower if isinstance(lower, AffineExpr) else AffineExpr.const(lower)

    def _upper_candidates(name: str) -> List[AffineExpr]:
        upper = original_bounds[name][1]
        candidates = [upper if isinstance(upper, AffineExpr) else AffineExpr.const(upper)]
        for origin, size, _ in chains[name]:
            candidates.append(AffineExpr.var(origin) + (size - 1))
        return candidates

    # -- create tile loops level by level -----------------------------------------
    all_tile_loops: List[LoopNode] = []
    block_body: Optional[BlockNode] = None
    for index, spec in enumerate(levels):
        info = level_infos[index]
        for name in loop_order:
            if name not in spec.sizes:
                continue
            size = spec.sizes[name]
            tile_iter = f"{name}{spec.suffix}"
            lower = _current_lower(name)
            upper_candidates = _upper_candidates(name)
            upper = (
                upper_candidates[0]
                if len(upper_candidates) == 1
                else QuasiAffineBound("min", tuple(upper_candidates))
            )
            loop = LoopNode(
                iterator=tile_iter,
                lower=lower,
                upper=upper,
                step=size,
                parallel=spec.parallel,
            )
            info.iterators[name] = (tile_iter, size)
            info.loops.append(loop)
            all_tile_loops.append(loop)

            # Context: block-level tile origin ranges within the original loop
            # bounds and within the parent tile.  A deeper origin lies in its
            # parent's tile, so leaving it out loses no constraint on the others.
            if index <= block_level:
                context_dims.append(tile_iter)
                context_constraints.append(
                    Constraint.greater_equal(AffineExpr.var(tile_iter), lower)
                )
                for candidate in upper_candidates:
                    context_constraints.append(
                        Constraint.less_equal(AffineExpr.var(tile_iter), candidate)
                    )
            chains[name].append((tile_iter, size, index))
        if index == block_level:
            block_body = BlockNode()

    # -- point loops -----------------------------------------------------------------
    point_loops: List[LoopNode] = []
    for name in loop_order:
        lower = _current_lower(name)
        candidates = _upper_candidates(name)
        upper = (
            candidates[0]
            if len(candidates) == 1
            else QuasiAffineBound("min", tuple(candidates))
        )
        point_loops.append(LoopNode(iterator=name, lower=lower, upper=upper))

    # -- rewrite statement domains ------------------------------------------------------
    # Only the tile constraints of levels up to the block boundary enter the
    # statement domains: the scratchpad framework must see the data touched by
    # the whole computational block (one memory-level tile), not by a single
    # thread's share of it.
    block_tile_params = tuple(
        iterator
        for level_index, info in enumerate(level_infos)
        if level_index <= block_level
        for iterator, _size in info.iterators.values()
    )
    new_statements: Dict[str, Statement] = {}
    for statement in program.statement_list:
        constraints = list(statement.domain.constraints)
        for name in statement.domain.dims:
            for origin, size, level_index in chains.get(name, ()):
                if level_index > block_level:
                    continue
                var = AffineExpr.var(name)
                origin_var = AffineExpr.var(origin)
                constraints.append(Constraint.greater_equal(var, origin_var))
                constraints.append(Constraint.less_equal(var, origin_var + (size - 1)))
        params = tuple(dict.fromkeys(tuple(statement.domain.params) + block_tile_params))
        domain = Polyhedron(statement.domain.dims, constraints, params)
        new_statements[statement.name] = statement.with_domain(domain)

    # -- assemble the loop structure --------------------------------------------------------
    innermost_block = BlockNode(
        [StatementNode(new_statements[node.statement.name], kind=node.kind)
         for node in innermost.body if isinstance(node, StatementNode)]
    )
    body: Node = innermost_block
    # Nest point loops (innermost last).
    for loop in reversed(point_loops):
        loop.body = body if isinstance(body, BlockNode) else BlockNode([body])
        body = loop
    # Nest tile loops from the innermost level outwards, inserting the block
    # boundary marker at the requested level.
    ordered_tile_loops: List[Tuple[int, LoopNode]] = []
    for index, info in enumerate(level_infos):
        for loop in info.loops:
            ordered_tile_loops.append((index, loop))
    for level_index, loop in reversed(ordered_tile_loops):
        loop.body = body if isinstance(body, BlockNode) else BlockNode([body])
        body = loop
        # The block boundary is the body of the innermost loop of block_level.
        if level_index == block_level and loop is level_infos[block_level].loops[-1]:
            assert block_body is not None
            block_body.body = [l for l in [body]]  # placeholder; replaced below

    # Identify the block body precisely: the body of the innermost loop of the
    # block level (or the whole program body when block_level covers no loops).
    if level_infos[block_level].loops:
        block_body = level_infos[block_level].loops[-1].body
    else:
        block_body = body if isinstance(body, BlockNode) else BlockNode([body])

    transformed.body = body if isinstance(body, BlockNode) else BlockNode([body])
    for statement in new_statements.values():
        transformed.add_statement(statement)

    context = Polyhedron(tuple(context_dims), context_constraints, tuple(program.params))
    tiled = TiledProgram(
        program=transformed,
        levels=level_infos,
        point_loops=point_loops,
        block_body=block_body,
        block_level=block_level,
        context=context,
        original=program,
    )
    transformed.validate()
    return tiled


def _default_block_level(levels: Sequence[TilingLevelSpec]) -> int:
    """Default block boundary: the last level that is not thread-parallel."""
    candidate = 0
    for index, spec in enumerate(levels):
        if spec.parallel != "threads":
            candidate = index
    return candidate
