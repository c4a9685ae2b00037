"""Scanning a single polyhedron into a loop nest.

``scan_polyhedron(P, order)`` produces nested :class:`~repro.ir.ast.LoopNode`
objects whose bounds are the parametric projections of ``P`` onto successive
prefixes of *order*: the loop for dimension ``d_k`` has bounds that may depend
on parameters and on the outer dimensions ``d_1 .. d_{k-1}`` — precisely the
loop nests CLooG generates for a single domain.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.ir.ast import BlockNode, LoopNode, Node
from repro.polyhedral.parametric import parametric_bounds, resolve_quasi_affine
from repro.polyhedral.polyhedron import Polyhedron


def scan_polyhedron(
    polyhedron: Polyhedron,
    body_factory: Callable[[], Node],
    dim_order: Optional[Sequence[str]] = None,
) -> Node:
    """Generate a loop nest scanning *polyhedron*, with *body_factory()* inside.

    ``body_factory`` is called once and its result placed in the innermost
    loop body.  Zero-dimensional polyhedra return the body directly.
    """
    order = list(dim_order) if dim_order is not None else list(polyhedron.dims)
    if set(order) != set(polyhedron.dims):
        raise ValueError(
            f"dim_order {order} must be a permutation of the polyhedron dims "
            f"{polyhedron.dims}"
        )
    body: Node = body_factory()
    # Build loops inside-out.
    for depth in range(len(order) - 1, -1, -1):
        dim = order[depth]
        bound = parametric_bounds(polyhedron, dim, outer=order[:depth])
        # a single candidate, or candidates apart by constants, is one expression
        lower, upper = resolve_quasi_affine(bound.lower), resolve_quasi_affine(bound.upper)
        inner = body if isinstance(body, BlockNode) else BlockNode([body])
        body = LoopNode(iterator=dim, lower=lower, upper=upper, body=inner)
    return body


def loop_nest_for(
    polyhedron: Polyhedron, dim_order: Optional[Sequence[str]] = None
) -> tuple:
    """Like :func:`scan_polyhedron` but returns ``(outermost, innermost_block)``.

    Useful when the caller wants to fill the innermost body after building the
    nest.
    """
    innermost = BlockNode()
    nest = scan_polyhedron(polyhedron, lambda: innermost, dim_order)
    return nest, innermost
