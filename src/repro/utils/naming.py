"""Fresh-name generation for generated dimensions, buffers and loops."""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Set


class NameGenerator:
    """Produce names that do not collide with a set of reserved names.

    Used by the code generator and the scratchpad manager when introducing new
    loop iterators (``c0``, ``c1``, ...) and local buffers (``l_A_0``, ...).
    """

    def __init__(self, reserved: Optional[Iterable[str]] = None) -> None:
        self._reserved: Set[str] = set(reserved or ())

    def reserve(self, name: str) -> None:
        """Mark *name* as taken."""
        self._reserved.add(name)

    def fresh(self, prefix: str) -> str:
        """Return an unused name starting with *prefix* and reserve it."""
        if prefix not in self._reserved:
            self._reserved.add(prefix)
            return prefix
        for i in itertools.count():
            candidate = f"{prefix}{i}"
            if candidate not in self._reserved:
                self._reserved.add(candidate)
                return candidate
        raise RuntimeError("unreachable")

    def fresh_sequence(self, prefix: str, count: int) -> list:
        """Return *count* distinct fresh names sharing *prefix*."""
        return [self.fresh(f"{prefix}{i}") for i in range(count)]

    def __contains__(self, name: str) -> bool:
        return name in self._reserved


_GLOBAL_COUNTER: Iterator[int] = itertools.count()


def fresh_name(prefix: str = "tmp") -> str:
    """Module-level convenience: globally unique name with *prefix*."""
    return f"{prefix}_{next(_GLOBAL_COUNTER)}"
