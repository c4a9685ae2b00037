"""Generation of data-movement (copy-in / copy-out) code — paper Section 3.1.3.

For a local buffer ``L`` created for a partition of data spaces of array
``A``:

* copy-in scans the union of the data spaces accessed by *read* references
  and executes ``L[y − g] = A[y]`` at every point ``y``;
* copy-out scans the union of the data spaces accessed by *write* references
  and executes ``A[y] = L[y − g]``.

The union scanner guarantees each element is loaded/stored exactly once even
when the per-reference data spaces overlap.  The upper bound on the moved
volume — used by the tile-size search — is the sum of the rectangular-hull
footprints of the maximal non-overlapping subsets of the scanned spaces,
exactly the estimate described in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.codegen.union_scan import scan_union
from repro.ir.ast import COPY_IN, COPY_OUT, BlockNode, StatementNode
from repro.ir.expressions import Load
from repro.ir.statements import Statement
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.polyhedron import Polyhedron
from repro.scratchpad.allocation import LocalBufferSpec
from repro.utils.components import connected_components


@dataclass
class DataMovementCode:
    """Copy code and volume estimates for one local buffer."""

    spec: LocalBufferSpec
    copy_in: BlockNode
    copy_out: BlockNode
    copy_in_statements: List[Statement]
    copy_out_statements: List[Statement]
    #: (direction, binding) -> volume: derived once, and again wherever a pickle lands
    _volumes: Dict[tuple, int] = field(default_factory=dict, repr=False, compare=False)

    def __getstate__(self) -> Dict[str, object]:
        return {**self.__dict__, "_volumes": {}}

    def has_copy_in(self) -> bool:
        return bool(self.copy_in.body)

    def has_copy_out(self) -> bool:
        return bool(self.copy_out.body)

    def volume_in(self, param_binding: Optional[Mapping[str, int]] = None) -> int:
        """Upper bound on elements moved into the buffer per block execution.

        Zero when no copy-in code was generated (e.g. suppressed by the
        liveness analysis of Section 3.1.4).
        """
        return self._volume(False, param_binding) if self.has_copy_in() else 0

    def volume_out(self, param_binding: Optional[Mapping[str, int]] = None) -> int:
        """Upper bound on elements moved out of the buffer per block execution.

        Zero when no copy-out code was generated.
        """
        return self._volume(True, param_binding) if self.has_copy_out() else 0

    def _volume(self, writes: bool, param_binding: Optional[Mapping[str, int]]) -> int:
        key = (writes, None if param_binding is None else tuple(sorted(param_binding.items())))
        if key not in self._volumes:
            self._volumes[key] = _volume_upper_bound(self.spec, writes, param_binding)
        return self._volumes[key]


def _volume_upper_bound(
    spec: LocalBufferSpec, writes: bool, param_binding: Optional[Mapping[str, int]]
) -> int:
    """Sum of hull footprints of the maximal non-overlapping subsets of the read (or written) spaces.

    Each subset's hull is cut from the allocation's hull — same members, same
    parameter context — so the per-member bounds Algorithm 2 derived for the
    buffer are not derived a second time for its copies.
    """
    positions = [index for index, space in enumerate(spec.partition) if space.is_write == writes]
    spaces = [spec.partition[index].data_space for index in positions]
    overlapping = (
        (i, j)
        for i in range(len(spaces))
        for j in range(i + 1, len(spaces))
        if spaces[i].intersects(spaces[j])
    )
    return sum(
        _static_footprint(
            spec.hull.restricted_to([positions[index] for index in component]), param_binding
        )
        for component in connected_components(len(spaces), overlapping)
    )


def _static_footprint(hull, param_binding: Optional[Mapping[str, int]]) -> int:
    """Footprint of a hull, preferring static extents, falling back to numeric."""
    total = 1
    for dim in hull.dims:
        bound = hull.resolved_lower_bound(dim)
        extent = hull.allocation_extent(dim, bound)
        if extent is None:
            if param_binding is None:
                raise ValueError(
                    f"cannot bound copy volume along {dim!r} without parameter values"
                )
            extents = hull.extents(param_binding)
            extent = extents[dim]
        total *= max(int(extent), 0)
    return total


def generate_data_movement(
    spec: LocalBufferSpec,
    generate_copy_in: bool = True,
    generate_copy_out: bool = True,
) -> DataMovementCode:
    """Generate copy-in / copy-out loop nests for one local buffer."""
    copy_in_statements: List[Statement] = []
    copy_out_statements: List[Statement] = []

    copy_in = BlockNode()
    if generate_copy_in and spec.read_spaces():
        copy_in = scan_union(
            spec.read_spaces(),
            lambda piece: _copy_node(spec, piece, into_local=True, statements=copy_in_statements),
        )
    copy_out = BlockNode()
    if generate_copy_out and spec.write_spaces():
        copy_out = scan_union(
            spec.write_spaces(),
            lambda piece: _copy_node(spec, piece, into_local=False, statements=copy_out_statements),
        )
    return DataMovementCode(
        spec=spec,
        copy_in=copy_in,
        copy_out=copy_out,
        copy_in_statements=copy_in_statements,
        copy_out_statements=copy_out_statements,
    )


def _copy_node(
    spec: LocalBufferSpec,
    piece: Polyhedron,
    into_local: bool,
    statements: List[Statement],
) -> StatementNode:
    """Build the loop-body statement ``L[y − g] = A[y]`` (or its reverse)."""
    dim_exprs = tuple(AffineExpr.var(dim) for dim in spec.dims)
    local_indices = tuple(
        expr - offset for expr, offset in zip(dim_exprs, spec.offsets)
    )
    local_load = Load(spec.local, local_indices)
    global_load = Load(spec.original, dim_exprs)
    direction = "in" if into_local else "out"
    name = f"copy_{direction}_{spec.local.name}_{len(statements)}"
    params = tuple(
        dict.fromkeys(tuple(piece.params) + tuple(spec.offset_definitions))
    )
    domain = Polyhedron(piece.dims, piece.constraints, params)
    if into_local:
        statement = Statement(name=name, domain=domain, lhs=local_load, rhs=global_load)
    else:
        statement = Statement(name=name, domain=domain, lhs=global_load, rhs=local_load)
    statements.append(statement)
    return StatementNode(statement, kind=COPY_IN if into_local else COPY_OUT)
