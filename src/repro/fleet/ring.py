"""Consistent hashing of tuning fingerprints onto a server fleet.

The ring places ``replicas`` virtual points per node on a 64-bit circle
(SHA-256 of ``"{node}#{i}"``); a fingerprint's *home* is the first virtual
point at or clockwise-after the fingerprint's own hash.  Two properties the
fleet depends on:

* **determinism** — every server derives the same ring from the same member
  list, with no coordination protocol: the home of a fingerprint is a pure
  function of (members, fingerprint), so the home server's in-flight dedup
  map is authoritative fleet-wide.
* **minimal disruption** — removing a node re-homes only the keys it owned;
  the rest of the keyspace keeps its assignment, so warm caches stay warm
  through membership changes.

Fingerprints are already SHA-256 hex strings, but the ring re-hashes them:
ring position must not correlate with whatever structure the fingerprint
scheme has.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["HashRing"]


def _point(token: str) -> int:
    """A stable 64-bit ring position for a token."""
    return int.from_bytes(
        hashlib.sha256(token.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """A consistent-hash ring over named nodes.

    ``nodes`` is any iterable of node ids (order-insensitive — the ring is a
    pure function of the *set*).  ``replicas`` virtual points per node trade
    ring size for balance; 128 keeps the max/mean node share within ~25% for
    small fleets.
    """

    def __init__(self, nodes: Iterable[str], replicas: int = 128) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be positive, got {replicas!r}")
        self.replicas = replicas
        self._nodes: List[str] = []
        self._points: List[Tuple[int, str]] = []
        self._positions: List[int] = []
        for node in nodes:
            self.add(node)
        if not self._nodes:
            raise ValueError("a HashRing needs at least one node")

    @property
    def nodes(self) -> List[str]:
        """The member node ids, sorted."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        if not isinstance(node, str) or not node:
            raise ValueError(f"node id must be a non-empty string, got {node!r}")
        if node in self._nodes:
            return
        bisect.insort(self._nodes, node)
        for i in range(self.replicas):
            point = (_point(f"{node}#{i}"), node)
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
        self._positions = [position for position, _node in self._points]

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise KeyError(node)
        if len(self._nodes) == 1:
            raise ValueError("cannot remove the last node of a ring")
        self._nodes.remove(node)
        self._points = [(p, n) for p, n in self._points if n != node]
        self._positions = [position for position, _node in self._points]

    def home(self, key: str) -> str:
        """The node owning ``key`` — first virtual point clockwise of its hash."""
        index = bisect.bisect(self._positions, _point(key)) % len(self._points)
        return self._points[index][1]

    def shares(self, sample: Sequence[str]) -> Dict[str, float]:
        """Fraction of ``sample`` keys homed on each node (balance probe)."""
        counts: Dict[str, int] = {node: 0 for node in self._nodes}
        for key in sample:
            counts[self.home(key)] += 1
        total = max(1, len(sample))
        return {node: count / total for node, count in counts.items()}
