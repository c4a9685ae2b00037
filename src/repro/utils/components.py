"""Connected components of a small undirected graph (union-find)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple


def connected_components(count: int, edges: Iterable[Tuple[int, int]]) -> List[List[int]]:
    """Components of the graph on nodes ``0 .. count-1`` joined by *edges*.

    Every component is sorted and components are ordered by their first
    (smallest) member, so the result is a deterministic function of the edge
    *set* — callers index buffers and sum volumes in this order.
    """
    parent = list(range(count))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for a, b in edges:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            # the smaller root wins, so a component's root is its first member
            parent[max(root_a, root_b)] = min(root_a, root_b)
    components: Dict[int, List[int]] = {}
    for node in range(count):
        components.setdefault(find(node), []).append(node)
    return list(components.values())
