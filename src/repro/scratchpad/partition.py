"""Partitioning data spaces into maximal non-overlapping groups.

The paper maps this to finding connected components of an undirected graph
whose vertices are the per-reference data spaces and whose edges connect
overlapping data spaces (Section 3.1).  Each resulting partition receives its
own local-memory buffer.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.scratchpad.data_space import ReferenceDataSpace
from repro.utils.components import connected_components


def partition_overlapping(
    spaces: Sequence[ReferenceDataSpace],
) -> List[List[ReferenceDataSpace]]:
    """Maximal groups of mutually connected (overlapping) data spaces.

    Two data spaces are connected when their polyhedra intersect; with
    parametric data spaces (tile-origin parameters) intersection is decided
    rationally over all parameter values, which errs on the side of grouping —
    the same conservative choice PolyLib-based tools make.

    The result is a partition of the input: every space appears in exactly one
    group, groups are returned in order of their first member, and spaces in
    different groups never overlap.
    """
    spaces = list(spaces)
    if not spaces:
        return []
    overlapping = (
        (i, j)
        for i in range(len(spaces))
        for j in range(i + 1, len(spaces))
        if spaces[i].array.name == spaces[j].array.name
        and spaces[i].data_space.intersects(spaces[j].data_space)
    )
    return [
        [spaces[index] for index in component]
        for component in connected_components(len(spaces), overlapping)
    ]
