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
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.ir.program import Program
from repro.ir.statements import Statement
from repro.polyhedral.affine import AffineExpr
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
#: hull boxes one model keeps, by hull and the tile sizes it depends on
_BOXES_MEMO_LIMIT = 4096


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
        self._fixed = {**self.problem_params, **self._representative_origins}
        self._size_names = [f"{loop}{SIZE_SUFFIX}" for loop in self.tile_loops]
        #: hull -> positions of the tile sizes its bounds mention; its boxes by those sizes
        self._hull_sizes: Dict[RectangularHull, List[int]] = {}
        self._boxes: dict = {}
        self._affines: Dict[AffineExpr, Tuple[float, List[float], np.ndarray]] = {}
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
    def _box(
        self, hull: Optional[RectangularHull], value: Callable, sizes: Sequence, boxes: dict
    ) -> Optional[List[Tuple[float, AffineExpr, AffineExpr]]]:
        """``(extent, lower bound, upper bound)`` per dimension of the hull's box
        at tile *sizes*, ``None`` when there is none: *value* prices a bound
        expression there, *boxes* keeps each hull's result by the sizes it uses."""
        if hull is None:
            return None
        if hull not in self._hull_sizes:
            exprs = [e for bounds in hull.member_bounds for bound in bounds.values()
                     for e in (*bound.lower.exprs, *bound.upper.exprs)]
            self._hull_sizes[hull] = [i for i, name in enumerate(self._size_names)
                                      if any(e.depends_on((name,)) for e in exprs)]
        key = (hull, *[sizes[i] for i in self._hull_sizes[hull]])
        if key not in boxes:
            boxes[key] = extents = []
            for dim in hull.dims:
                low = high = None
                for bounds in hull.member_bounds:
                    member_low = max(((value(e), e) for e in bounds[dim].lower.exprs), key=_first)
                    member_high = min(((value(e), e) for e in bounds[dim].upper.exprs), key=_first)
                    if member_high[0] >= member_low[0]:
                        if low is None or member_low[0] < low[0]:
                            low = member_low
                        if high is None or member_high[0] > high[0]:
                            high = member_high
                extent = high[0] - low[0] + 1.0 if low is not None else 0.0
                if extent <= 0.0:
                    boxes[key] = None
                    break
                extents.append((extent, low[1], high[1]))
        return boxes[key]

    def _details(self, tile_sizes: Mapping[str, float]) -> List[Dict[str, float]]:
        """:meth:`buffer_details`, computed once per tile vector (read-only result).

        The integer rounding prices every candidate twice (capacity, then
        cost); both read this one evaluation.  Every bound is priced exactly,
        as ``int / int``, which rounds the exact value correctly.
        """
        key = tuple(float(tile_sizes[loop]) for loop in self.tile_loops)
        details = self._details_memo.get(key)
        if details is None:
            if len(self._details_memo) >= _DETAILS_MEMO_LIMIT:
                self._details_memo.clear()
            if len(self._boxes) >= _BOXES_MEMO_LIMIT:
                self._boxes.clear()
            values = {**self._fixed, **dict(zip(self._size_names, map(_to_fraction, key)))}

            def value(expr: AffineExpr) -> float:
                # int / int is correctly rounded: the float the exact rational rounds to
                return operator.truediv(*expr.evaluate_ratio(values))

            def volume(hull: Optional[RectangularHull]) -> float:
                box = self._box(hull, value, key, self._boxes)
                return 0.0 if box is None else math.prod((e for e, _, _ in box), start=1.0)

            details = []
            for descriptor in self.descriptors:
                footprint = volume(descriptor.hull)
                details.append(
                    {
                        "buffer": descriptor.buffer_name,
                        "array": descriptor.array_name,
                        "footprint_elements": footprint,
                        "footprint_bytes": footprint * descriptor.element_size,
                        "volume_in": volume(descriptor.read_hull),
                        "volume_out": volume(descriptor.write_hull),
                        "occurrences": math.prod(
                            (math.ceil(extent / max(size, 1.0))
                             for extent, size in self._copied(descriptor, key)),
                            start=1.0,
                        ),
                    }
                )
            self._details_memo[key] = details
        return details

    def buffer_details(self, tile_sizes: Mapping[str, float]) -> List[Dict[str, float]]:
        """Per-buffer footprint, volumes and occurrence count for given tile sizes."""
        return [dict(entry) for entry in self._details(tile_sizes)]

    def _copied(self, descriptor: MovementDescriptor, sizes: Sequence[float]):
        """``(N_i, t_i)`` of the loops whose iterations repeat the buffer's copies."""
        return [
            (self.loop_extents[loop], size)
            for loop, size in zip(self.tile_loops, sizes)
            if not self.hoisting or loop in descriptor.dependent_loops
        ]

    def _affine(self, expr: AffineExpr) -> Tuple[float, List[float], np.ndarray]:
        """A bound as ``c + g·t`` in the tile sizes ``t``: ``(c, g, g as an array)``."""
        if expr not in self._affines:
            denominator, coefficients, constant = expr.int_form()
            coefficients = dict(coefficients)
            fixed = sum(c * self._fixed[n] for n, c in coefficients.items() if n in self._fixed)
            slope = [coefficients.get(name, 0) / denominator for name in self._size_names]
            self._affines[expr] = ((constant + fixed) / denominator, slope, np.array(slope))
        return self._affines[expr]

    def _copy_cost(self, volume: float) -> float:
        """``P·S + V·L/P`` for one copy of *volume* elements (none when empty)."""
        if volume <= 0:
            return 0.0
        return self.threads * self.sync_cost + volume * self.transfer_cost / self.threads

    def footprint_bytes(self, tile_sizes: Mapping[str, float]) -> float:
        """Scratchpad bytes needed by one tile (the ``Σ M_i <= M_up`` constraint)."""
        return sum(entry["footprint_bytes"] for entry in self._details(tile_sizes))

    def movement_cost(self, tile_sizes: Mapping[str, float]) -> float:
        """The paper's objective ``Σ_k N_k (P·S + V_k·L/P)`` for copy-in and copy-out."""
        return sum(
            entry["occurrences"]
            * (self._copy_cost(entry["volume_in"]) + self._copy_cost(entry["volume_out"]))
            for entry in self._details(tile_sizes)
        )

    def relaxation(self, sizes: Sequence[float]) -> Tuple[float, np.ndarray, float, np.ndarray]:
        """``(cost, ∇cost, footprint bytes, ∇footprint)`` at real tile sizes (in
        ``tile_loops`` order): the smooth problem the tile search solves.  The
        boxes are :meth:`_details`' in floats; every bound is affine in the tile
        sizes, so an extent differentiates through the bound attaining its
        ``max`` / ``min``.  A copy count ``⌈N_i/t_i⌉``, a step function no
        gradient sees, is priced as ``N_i/t_i``.
        """
        sizes, boxes = [float(size) for size in sizes], {}

        def value(expr: AffineExpr) -> float:
            constant, slope, _ = self._affine(expr)
            return constant + sum(map(operator.mul, slope, sizes))

        def volume(hull: Optional[RectangularHull]) -> Tuple[float, np.ndarray]:
            box = self._box(hull, value, sizes, boxes)
            total, gradient = (0.0 if box is None else 1.0), np.zeros(len(sizes))
            for extent, low, high in box or ():
                slope = self._affine(high)[2] - self._affine(low)[2]
                gradient = gradient * extent + total * slope
                total *= extent
            return total, gradient

        cost, footprint = 0.0, 0.0
        cost_gradient, footprint_gradient = np.zeros(len(sizes)), np.zeros(len(sizes))
        for descriptor in self.descriptors:
            elements, gradient = volume(descriptor.hull)
            footprint += elements * descriptor.element_size
            footprint_gradient += gradient * descriptor.element_size
            copy, copy_gradient = 0.0, np.zeros(len(sizes))
            for elements, gradient in map(volume, (descriptor.read_hull, descriptor.write_hull)):
                copy += self._copy_cost(elements)
                copy_gradient += gradient * (self.transfer_cost / self.threads)
            copied = [(not self.hoisting or loop in descriptor.dependent_loops) / t
                      for loop, t in zip(self.tile_loops, sizes)]
            occurrences = math.prod(n / t for n, t in self._copied(descriptor, sizes))
            cost += occurrences * copy
            cost_gradient += occurrences * (copy_gradient - copy * np.array(copied))
        return cost, cost_gradient, footprint, footprint_gradient

    def work_per_tile(self, tile_sizes: Mapping[str, float]) -> float:
        """Product of tile sizes (the ``t_1·...·t_m >= P`` occupancy constraint)."""
        product = 1.0
        for loop in self.tile_loops:
            product *= float(tile_sizes[loop])
        return product


_first = operator.itemgetter(0)


def _to_fraction(value) -> Union[int, Fraction]:
    """*value* as the exact number the pricing uses (an int stays an int)."""
    if isinstance(value, (int, Fraction)):
        return value
    if value.is_integer():
        return int(value)
    return Fraction(value).limit_denominator(10**6)
