"""Integer-point enumeration and counting for bounded polyhedra.

The paper needs point counting in two places: estimating the *volume* of data
spaces and of their pairwise overlaps (Algorithm 1's constant-reuse test), and
estimating copy volumes (Section 3.1.3).  PolyLib/Ehrhart machinery is
replaced by direct enumeration — the sets involved per computational block are
tile-sized, so enumeration is cheap — plus closed-form bounding-box products
for the symbolic case.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.polyhedral.polyhedron import Polyhedron

Number = Union[int, Fraction]


def enumerate_integer_points(
    polyhedron: Polyhedron,
    param_binding: Optional[Mapping[str, Number]] = None,
    dim_order: Optional[Sequence[str]] = None,
) -> Iterator[Dict[str, int]]:
    """Yield every integer point of a bounded, fully specialised polyhedron.

    Points are produced in lexicographic order of *dim_order* (default: the
    polyhedron's own dimension order).
    """
    poly = polyhedron.specialize(param_binding or {})
    if poly.params:
        raise ValueError(
            f"all parameters must be bound to enumerate points; unbound: {poly.params}"
        )
    order = list(dim_order) if dim_order is not None else list(poly.dims)
    if set(order) != set(poly.dims):
        raise ValueError("dim_order must be a permutation of the polyhedron dims")
    if any(c.is_trivially_false() for c in poly.constraints):
        return
    yield from _enumerate(poly, order, {})


def _enumerate(
    poly: Polyhedron, order: List[str], partial: Dict[str, int]
) -> Iterator[Dict[str, int]]:
    if not order:
        yield dict(partial)
        return
    name = order[0]
    span = poly.integer_range_at(name, partial)
    if span is None:
        return
    for value in range(span[0], span[1] + 1):
        partial[name] = value
        yield from _enumerate(poly, order[1:], partial)
    partial.pop(name, None)


def count_integer_points(
    polyhedron: Polyhedron, param_binding: Optional[Mapping[str, Number]] = None
) -> int:
    """Exact number of integer points of a bounded, specialised polyhedron."""
    return sum(1 for _ in enumerate_integer_points(polyhedron, param_binding))


def bounding_box_point_count(
    polyhedron: Polyhedron, param_binding: Optional[Mapping[str, Number]] = None
) -> int:
    """Product of per-dimension extents — an upper bound on the point count.

    This is the quantity the paper uses as the local-buffer size and as the
    upper bound on copy volume (Algorithm 2 / Section 3.1.3).
    """
    box = polyhedron.bounding_box(param_binding)
    count = 1
    for low, high in box.values():
        if high < low:
            return 0
        count *= high - low + 1
    return count


def union_point_count(
    polyhedra: Sequence[Polyhedron],
    param_binding: Optional[Mapping[str, Number]] = None,
) -> int:
    """Exact number of integer points in a union of polyhedra (each counted once)."""
    seen: set = set()
    for poly in polyhedra:
        for point in enumerate_integer_points(poly, param_binding):
            seen.add(tuple(sorted(point.items())))
    return len(seen)


def intersection_point_count(
    first: Polyhedron,
    second: Polyhedron,
    param_binding: Optional[Mapping[str, Number]] = None,
) -> int:
    """Exact number of integer points in the intersection of two polyhedra."""
    if first.dims != second.dims:
        raise ValueError("intersection volume requires identical dimension tuples")
    return count_integer_points(first.intersect(second), param_binding)
