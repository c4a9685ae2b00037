"""Rectangular unions of data spaces.

Algorithm 2 of the paper encloses each partition of accessed data spaces in
its *convex union* and then only ever uses the per-dimension lower/upper
bounds of that hull to size the local buffer and to compute the remapping
offset ``g``.  :func:`rectangular_hull` builds the bounding box of the union
with parametric per-dimension bounds.  Because the buffer size and offsets
depend only on per-dimension bounds, the rectangular hull allocates exactly
the same buffer the paper's convex union would, while remaining well-defined
for parametric data spaces (tile-origin parameters).  When the lower bounds of
different member spaces are incomparable symbolically, the hull is
conservative (never smaller than the true union box), which preserves
correctness of the allocation and of the remapped accesses.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.polyhedral.parametric import ParametricBound, QuasiAffineBound, parametric_bounds
from repro.polyhedral.polyhedron import Polyhedron

Number = Union[int, Fraction]


class RectangularHull:
    """Bounding box of a union of polyhedra with parametric bounds.

    ``context`` — an optional polyhedron over the parameters (e.g. tile-origin
    ranges ``0 <= iT <= N-1``) — is used to resolve per-member ``max``/``min``
    bounds to single affine expressions, mirroring the "gist against context"
    simplification PIP and CLooG apply.
    """

    def __init__(
        self,
        members: Sequence[Polyhedron],
        context: Optional[Polyhedron] = None,
        _bounds: Optional[Sequence[Mapping[str, ParametricBound]]] = None,
    ) -> None:
        self._context = context
        if not members:
            raise ValueError("a hull needs at least one member polyhedron")
        dims = members[0].dims
        for poly in members:
            if poly.dims != dims:
                raise ValueError(
                    f"all member polyhedra must share dimensions; "
                    f"{poly.dims} differs from {dims}"
                )
        self._members = tuple(members)
        self._dims = dims
        self._params = tuple(
            dict.fromkeys(name for poly in members for name in poly.params)
        )
        self._member_bounds: Tuple[Mapping[str, ParametricBound], ...] = tuple(
            _bounds or (MappingProxyType(parametric_bounds(poly)) for poly in members)
        )

    def restricted_to(self, positions: Sequence[int]) -> "RectangularHull":
        """The hull of the members at *positions*, in the same context, with the
        parametric bounds this hull already derived for them (no elimination runs)."""
        return RectangularHull(
            [self._members[index] for index in positions],
            self._context,
            [self._member_bounds[index] for index in positions],
        )

    # mappingproxy does not pickle; hulls travel to pool workers inside sessions
    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_member_bounds"] = tuple(dict(bounds) for bounds in self._member_bounds)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._member_bounds = tuple(MappingProxyType(b) for b in state["_member_bounds"])

    # -- accessors --------------------------------------------------------------
    @property
    def dims(self) -> Tuple[str, ...]:
        return self._dims

    @property
    def params(self) -> Tuple[str, ...]:
        return self._params

    @property
    def members(self) -> Tuple[Polyhedron, ...]:
        return self._members

    # -- symbolic bounds ----------------------------------------------------------
    def lower_bound(self, dim: str) -> QuasiAffineBound:
        """Conservative lower bound of the union along *dim* (a ``min`` of affines)."""
        exprs = []
        for bounds in self._member_bounds:
            exprs.extend(bounds[dim].lower.exprs)
        return QuasiAffineBound("min", tuple(exprs))

    def upper_bound(self, dim: str) -> QuasiAffineBound:
        """Conservative upper bound of the union along *dim* (a ``max`` of affines)."""
        exprs = []
        for bounds in self._member_bounds:
            exprs.extend(bounds[dim].upper.exprs)
        return QuasiAffineBound("max", tuple(exprs))

    @property
    def member_bounds(self) -> Tuple[Mapping[str, ParametricBound], ...]:
        """Per-member parametric bounds (one read-only mapping per member polyhedron)."""
        return self._member_bounds

    def resolved_lower_bound(self, dim: str):
        """Lower bound of the union along *dim*, resolved as far as possible.

        Each member's own lower bound (a ``max``) is first resolved against
        the context; the union bound is then the ``min`` of the per-member
        bounds, itself resolved if possible.  The result is an
        :class:`AffineExpr` when fully resolved, otherwise a
        :class:`QuasiAffineBound` with ``min`` semantics.  When a member's own
        bound cannot be resolved its candidates are flattened into the
        ``min``, which is conservative (never larger than the true lower
        bound) and therefore safe for buffer allocation.
        """
        from repro.polyhedral.parametric import resolve_quasi_affine

        per_member = []
        for bounds in self._member_bounds:
            resolved = resolve_quasi_affine(bounds[dim].lower, self._context)
            if isinstance(resolved, QuasiAffineBound):
                per_member.extend(resolved.exprs)
            else:
                per_member.append(resolved)
        return resolve_quasi_affine(
            QuasiAffineBound("min", tuple(per_member)), self._context
        )

    def allocation_extent(self, dim: str, offset) -> Optional[int]:
        """Static buffer extent along *dim* for a chosen remap offset.

        Given the offset actually used to remap accesses (the result of
        :meth:`resolved_lower_bound`), returns a static upper bound on
        ``max(accessed index) - offset + 1``, i.e. the number of buffer
        elements needed along this dimension.  Using the *same* offset for
        allocation, remapping and copy code keeps the three consistent even
        when the offset is conservative.  Returns ``None`` when no static
        bound exists (callers must then supply parameter values).
        """
        from repro.polyhedral.parametric import _max_over_context

        if isinstance(offset, QuasiAffineBound):
            if offset.kind != "min":
                raise ValueError("a remap offset must have 'min' semantics")
            offset_candidates = list(offset.exprs)
        else:
            offset_candidates = [offset]

        worst: Optional[int] = None
        for bounds in self._member_bounds:
            member_value: Optional[int] = None
            for upper_expr in bounds[dim].upper.exprs:
                # offset = min(candidates)  =>  upper - offset = max_c (upper - c)
                candidate_value: Optional[int] = 0
                for candidate in offset_candidates:
                    difference = upper_expr - candidate
                    if difference.is_constant():
                        value = difference.floor_at({})
                    elif self._context is not None:
                        value = _max_over_context(difference, self._context)
                    else:
                        value = None
                    if value is None:
                        candidate_value = None
                        break
                    candidate_value = max(candidate_value, value)
                if candidate_value is None:
                    continue
                if member_value is None or candidate_value < member_value:
                    member_value = candidate_value
            if member_value is None:
                return None
            if worst is None or member_value > worst:
                worst = member_value
        if worst is None:
            return None
        return max(worst + 1, 0)

    # -- numeric evaluation ---------------------------------------------------------
    def evaluate_box(
        self, param_binding: Optional[Mapping[str, Number]] = None
    ) -> Dict[str, Tuple[int, int]]:
        """Exact integer bounding box of the union for bound parameter values.

        Evaluation is exact (per-member boxes are combined numerically) even
        when the symbolic bounds are conservative.
        """
        binding = dict(param_binding or {})
        box: Dict[str, Tuple[int, int]] = {}
        for dim in self._dims:
            lows: List[int] = []
            highs: List[int] = []
            for bounds in self._member_bounds:
                low, high = bounds[dim].evaluate(binding)
                if high >= low:
                    lows.append(low)
                    highs.append(high)
            if not lows:
                box[dim] = (0, -1)
            else:
                box[dim] = (min(lows), max(highs))
        return box

    def extents(self, param_binding: Optional[Mapping[str, Number]] = None) -> Dict[str, int]:
        """Per-dimension extents (``0`` for empty) for bound parameter values."""
        return {
            dim: max(0, high - low + 1)
            for dim, (low, high) in self.evaluate_box(param_binding).items()
        }

    def footprint(self, param_binding: Optional[Mapping[str, Number]] = None) -> int:
        """Number of buffer elements the hull allocates (product of extents)."""
        total = 1
        for extent in self.extents(param_binding).values():
            total *= extent
        return total

    def __repr__(self) -> str:
        bounds = ", ".join(
            f"{self.lower_bound(d)} <= {d} <= {self.upper_bound(d)}" for d in self._dims
        )
        return f"RectangularHull({bounds})"


def rectangular_hull(
    members: Sequence[Polyhedron], context: Optional[Polyhedron] = None
) -> RectangularHull:
    """Bounding-box hull of a union of polyhedra (see module docstring)."""
    return RectangularHull(members, context)

