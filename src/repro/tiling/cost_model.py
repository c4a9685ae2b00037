"""Data-movement cost model — paper Section 4.3.

The cost of the data movement performed by one outer-level parallel process is

    C = Σ_k  N_k · ( P·S  +  V_k·L / P )

where, for each staged buffer ``k``:

* ``N_k`` — number of copy occurrences: the product of the trip counts of the
  intra-tile tiling loops that enclose the copy code (hoisting out of
  redundant loops reduces this, Section 4.2),
* ``V_k`` — volume (elements) moved per occurrence,
* ``P``  — number of inner-level processes (threads) doing the copy,
* ``S``  — synchronisation cost per process per copy occurrence,
* ``L``  — transfer cost per element.

The model is evaluated on the *actual* buffers the scratchpad framework would
allocate for a tile: :class:`TileBoxGeometry` builds symbolic tile-shaped
iteration domains (tile origins and tile sizes as parameters) and the
per-buffer hulls once per program and binding, each launch geometry's model
decides which of those buffers it stages, and each evaluation simply
substitutes concrete tile sizes — so the same machinery that generates code
also prices it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.ir.program import Program
from repro.ir.statements import Statement
from repro.polyhedral.affine import AffineExpr, scaled_binding
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.hull import RectangularHull, rectangular_hull
from repro.polyhedral.polyhedron import Polyhedron
from repro.scratchpad.data_space import ReferenceDataSpace, compute_reference_data_spaces
from repro.scratchpad.partition import partition_overlapping
from repro.scratchpad.reuse import DEFAULT_DELTA, evaluate_reuse

ORIGIN_SUFFIX = "__org"
SIZE_SUFFIX = "__sz"
#: tile vectors whose buffer details one model keeps (a search revisits recent ones)
_DETAILS_MEMO_LIMIT = 32


@dataclass
class MovementDescriptor:
    """Pre-computed geometry of one prospective local buffer."""

    array_name: str
    buffer_name: str
    element_size: int
    hull: RectangularHull
    read_hull: Optional[RectangularHull]
    write_hull: Optional[RectangularHull]
    #: original loop iterators the buffer's accesses actually depend on
    dependent_loops: Set[str] = field(default_factory=set)


class TileBoxGeometry:
    """The half of the model no launch geometry changes.

    Symbolic tile-shaped iteration domains (tile origins and sizes as
    parameters), the data spaces accessed from them, their partitions and —
    built when a model first stages a partition — its hulls.  It depends on the
    program, its tile loops and its bound parameters only, so a tuning request
    derives it once (the analysis artifact keeps it) for every launch
    geometry's model; nothing in it is mutated once built.
    """

    def __init__(
        self, program: Program, tile_loops: Sequence[str], problem_params: Mapping[str, int]
    ) -> None:
        self.program = program
        self.tile_loops = list(tile_loops)
        self.problem_params = dict(problem_params)
        self.representative_origins: Dict[str, int] = {}
        self.context = self._context()
        data_spaces = compute_reference_data_spaces(
            [self._tile_domain_statement(s) for s in program.statement_list]
        )
        #: ``(array name, index among the array's partitions, partition)``, in buffer order
        self.partitions: List[Tuple[str, int, List[ReferenceDataSpace]]] = [
            (array_name, index, partition)
            for array_name in sorted(data_spaces)
            for index, partition in enumerate(partition_overlapping(data_spaces[array_name]))
        ]
        self._descriptors: Dict[int, MovementDescriptor] = {}

    def descriptor(self, position: int) -> MovementDescriptor:
        """The buffer ``partitions[position]`` would get (hulls built on first demand)."""
        descriptor = self._descriptors.get(position)
        if descriptor is None:
            array_name, index, partition = self.partitions[position]
            hull = rectangular_hull([s.data_space for s in partition], self.context)
            reads = [at for at, space in enumerate(partition) if not space.is_write]
            writes = [at for at, space in enumerate(partition) if space.is_write]
            dependent: Set[str] = set()
            for space in partition:
                for expr in space.function.outputs:
                    dependent.update(loop for loop in self.tile_loops if expr.depends_on((loop,)))
            descriptor = self._descriptors[position] = MovementDescriptor(
                array_name=array_name,
                buffer_name=f"l_{array_name}_{index}",
                element_size=partition[0].array.element_size,
                hull=hull,
                read_hull=hull.restricted_to(reads) if reads else None,
                write_hull=hull.restricted_to(writes) if writes else None,
                dependent_loops=dependent,
            )
        return descriptor

    def _tile_domain_statement(self, statement: Statement) -> Statement:
        """Intersect the statement domain with a symbolic tile box."""
        constraints = list(statement.domain.constraints)
        extra_params: List[str] = []
        for loop in self.tile_loops:
            if loop not in statement.domain.dims:
                continue
            origin = f"{loop}{ORIGIN_SUFFIX}"
            size = f"{loop}{SIZE_SUFFIX}"
            extra_params.extend((origin, size))
            var = AffineExpr.var(loop)
            origin_var = AffineExpr.var(origin)
            size_var = AffineExpr.var(size)
            constraints.append(Constraint.greater_equal(var, origin_var))
            constraints.append(Constraint.less_equal(var, origin_var + size_var - 1))
        params = tuple(dict.fromkeys(tuple(statement.domain.params) + tuple(extra_params)))
        domain = Polyhedron(statement.domain.dims, constraints, params)
        return statement.with_domain(domain)

    def _context(self) -> Polyhedron:
        """Parameter context: origin within loop bounds, sizes at least 1."""
        dims: List[str] = []
        constraints: List[Constraint] = []
        for loop in self.tile_loops:
            origin = f"{loop}{ORIGIN_SUFFIX}"
            size = f"{loop}{SIZE_SUFFIX}"
            dims.extend((origin, size))
            lower, upper = self._original_bounds(loop)
            self.representative_origins[origin] = lower
            constraints.append(Constraint.greater_equal(AffineExpr.var(origin), lower))
            constraints.append(Constraint.less_equal(AffineExpr.var(origin), upper))
            constraints.append(Constraint.greater_equal(AffineExpr.var(size), 1))
        return Polyhedron(dims, constraints, tuple(self.program.params))

    def _original_bounds(self, loop: str) -> Tuple[int, int]:
        """Concrete bounds of an original loop (for representative origins)."""
        from repro.polyhedral.parametric import parametric_bounds

        for statement in self.program.statement_list:
            if loop in statement.domain.dims:
                bound = parametric_bounds(statement.domain, loop)
                binding = dict(self.problem_params)
                low = bound.lower.evaluate_int(binding)
                high = bound.upper.evaluate_int(binding)
                return low, high
        raise ValueError(f"loop {loop!r} does not appear in any statement domain")


class DataMovementCostModel:
    """Evaluates the Section-4.3 cost model for candidate tile sizes."""

    def __init__(
        self,
        program: Program,
        tile_loops: Sequence[str],
        loop_extents: Mapping[str, int],
        threads: int,
        sync_cost: float,
        transfer_cost: float,
        problem_params: Optional[Mapping[str, int]] = None,
        delta: float = DEFAULT_DELTA,
        stage_all: bool = False,
        hoisting: bool = True,
        geometry: Optional[TileBoxGeometry] = None,
    ) -> None:
        """Build the model.

        Parameters
        ----------
        program:
            The (untiled) program block; its statements define the accesses.
        tile_loops:
            Original loop iterators that the intra-tile (memory-level) tiling
            splits; tile sizes are searched for exactly these loops.
        loop_extents:
            Iteration extent of each tile loop within one outer-level tile
            (the ``N_i`` of the paper's formula).
        threads:
            ``P`` — the number of inner-level processes.
        sync_cost / transfer_cost:
            ``S`` and ``L`` of the cost model (machine-dependent).
        problem_params:
            Values for the program's symbolic parameters.
        stage_all:
            Treat every partition as staged (Cell-like target).
        hoisting:
            Account for Section-4.2 hoisting when counting copy occurrences.
        geometry:
            The :class:`TileBoxGeometry` of exactly this program, tile loops and
            parameters when the caller holds one already; else derived here.
        """
        if threads <= 0:
            raise ValueError("threads (P) must be positive")
        self.program = program
        self.tile_loops = list(tile_loops)
        self.loop_extents = {k: int(v) for k, v in loop_extents.items()}
        for loop in self.tile_loops:
            if loop not in self.loop_extents:
                raise ValueError(f"missing extent for tile loop {loop!r}")
        self.threads = threads
        self.sync_cost = float(sync_cost)
        self.transfer_cost = float(transfer_cost)
        self.problem_params = dict(problem_params or program.default_params)
        self.delta = delta
        self.stage_all = stage_all
        self.hoisting = hoisting
        if geometry is None:
            geometry = TileBoxGeometry(program, self.tile_loops, self.problem_params)
        self._representative_origins = geometry.representative_origins
        self._details_memo: Dict[Tuple[float, ...], List[Dict[str, float]]] = {}
        # what this launch geometry changes: the extents the reuse test sees,
        # hence which partitions are staged
        reuse_binding = dict(self.problem_params)
        reuse_binding.update(self._representative_origins)
        for loop in self.tile_loops:
            reuse_binding.setdefault(f"{loop}{SIZE_SUFFIX}", self.loop_extents[loop])
        self.descriptors: List[MovementDescriptor] = [
            geometry.descriptor(position)
            for position, (_, _, partition) in enumerate(geometry.partitions)
            if self.stage_all or evaluate_reuse(partition, self.delta, reuse_binding).beneficial
        ]

    # -- evaluation ------------------------------------------------------------------
    def _binding(self, tile_sizes: Mapping[str, float]) -> Tuple[Dict[str, int], int]:
        """``(ints, scale)``: every name the hull bounds mention, as ``ints[name] / scale``.

        Built once per evaluated tile vector: the search calls the objective
        thousands of times and each call prices every bound expression of
        every buffer at this one point, so the (rational) tile sizes are put
        over a common denominator here and the pricing runs on ints.
        """
        binding: Dict[str, Union[int, Fraction]] = {
            name: _to_fraction(value) for name, value in self.problem_params.items()
        }
        for name, value in self._representative_origins.items():
            binding[name] = _to_fraction(value)
        for loop in self.tile_loops:
            binding[f"{loop}{SIZE_SUFFIX}"] = _to_fraction(float(tile_sizes[loop]))
        return scaled_binding(binding)

    @staticmethod
    def _hull_volume(
        hull: Optional[RectangularHull], values: Mapping[str, int], scale: int, boxes: dict
    ) -> float:
        """Volume of the hull's box at one point; *boxes* keeps each member's
        extreme values, which a buffer's hull and its read/write hulls share."""
        if hull is None:
            return 0.0

        def value(expr: AffineExpr) -> float:
            # int / int is correctly rounded: the float the exact rational rounds to
            numerator, denominator = expr.evaluate_ratio(values, scale)
            return numerator / denominator

        volume = 1.0
        for dim in hull.dims:
            lows: List[float] = []
            highs: List[float] = []
            for bounds in hull.member_bounds:
                bound = bounds[dim]
                if id(bound) not in boxes:
                    lower, upper = bound.lower.exprs, bound.upper.exprs
                    boxes[id(bound)] = max(map(value, lower)), min(map(value, upper))
                low, high = boxes[id(bound)]
                if high >= low:
                    lows.append(low)
                    highs.append(high)
            if not lows:
                return 0.0
            volume *= max(max(highs) - min(lows) + 1.0, 0.0)
        return volume

    def _details(self, tile_sizes: Mapping[str, float]) -> List[Dict[str, float]]:
        """:meth:`buffer_details`, computed once per tile vector (read-only result).

        SLSQP asks for the objective and the memory constraint at the same
        points (the iterate and each finite-difference probe), and the integer
        rounding prices every candidate twice; both read this one evaluation.
        """
        key = tuple(float(tile_sizes[loop]) for loop in self.tile_loops)
        details = self._details_memo.get(key)
        if details is None:
            if len(self._details_memo) >= _DETAILS_MEMO_LIMIT:
                self._details_memo.clear()
            values, scale = self._binding(tile_sizes)
            details, boxes = [], {}
            for descriptor in self.descriptors:
                footprint = self._hull_volume(descriptor.hull, values, scale, boxes)
                details.append(
                    {
                        "buffer": descriptor.buffer_name,
                        "array": descriptor.array_name,
                        "footprint_elements": footprint,
                        "footprint_bytes": footprint * descriptor.element_size,
                        "volume_in": self._hull_volume(descriptor.read_hull, values, scale, boxes),
                        "volume_out": self._hull_volume(descriptor.write_hull, values, scale, boxes),
                        "occurrences": self._occurrences(descriptor, tile_sizes),
                    }
                )
            self._details_memo[key] = details
        return details

    def buffer_details(self, tile_sizes: Mapping[str, float]) -> List[Dict[str, float]]:
        """Per-buffer footprint, volumes and occurrence count for given tile sizes."""
        return [dict(entry) for entry in self._details(tile_sizes)]

    def _occurrences(self, descriptor: MovementDescriptor, tile_sizes: Mapping[str, float]) -> float:
        loops = self.tile_loops
        if self.hoisting:
            loops = [l for l in loops if l in descriptor.dependent_loops]
        count = 1.0
        for loop in loops:
            size = max(float(tile_sizes[loop]), 1.0)
            count *= math.ceil(self.loop_extents[loop] / size)
        return count

    def footprint_bytes(self, tile_sizes: Mapping[str, float]) -> float:
        """Scratchpad bytes needed by one tile (the ``Σ M_i <= M_up`` constraint)."""
        return sum(entry["footprint_bytes"] for entry in self._details(tile_sizes))

    def movement_cost(self, tile_sizes: Mapping[str, float]) -> float:
        """The paper's objective ``Σ_k N_k (P·S + V_k·L/P)`` for copy-in and copy-out."""
        total = 0.0
        for entry in self._details(tile_sizes):
            per_occurrence = 0.0
            if entry["volume_in"] > 0:
                per_occurrence += (
                    self.threads * self.sync_cost
                    + entry["volume_in"] * self.transfer_cost / self.threads
                )
            if entry["volume_out"] > 0:
                per_occurrence += (
                    self.threads * self.sync_cost
                    + entry["volume_out"] * self.transfer_cost / self.threads
                )
            total += entry["occurrences"] * per_occurrence
        return total

    def work_per_tile(self, tile_sizes: Mapping[str, float]) -> float:
        """Product of tile sizes (the ``t_1·...·t_m >= P`` occupancy constraint)."""
        product = 1.0
        for loop in self.tile_loops:
            product *= float(tile_sizes[loop])
        return product


@lru_cache(maxsize=1024)  # a finite-difference probe moves one coordinate: the others repeat
def _to_fraction(value) -> Union[int, Fraction]:
    """*value* as the exact number the pricing uses (an int stays an int)."""
    if isinstance(value, (int, Fraction)):
        return value
    if value.is_integer():
        return int(value)
    return Fraction(value).limit_denominator(10**6)
