"""Launch geometry and occupancy (paper Sections 4.1 and 5).

The number of thread blocks that may be resident concurrently on the device is
bounded by the scratchpad usage of each block: with ``M`` bytes of shared
memory per block and ``X`` bytes available per multiprocessor, at most
``X // M`` blocks fit on one multiprocessor (the paper's ``X / M`` bound, with
``2^18 / M`` for the 16-multiprocessor GeForce 8800 GTX).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class LaunchGeometry:
    """How a mapped program is launched on the two-level machine."""

    num_blocks: int
    threads_per_block: int
    shared_memory_per_block_bytes: int = 0

    def __post_init__(self) -> None:
        if self.num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        if self.threads_per_block <= 0:
            raise ValueError("threads_per_block must be positive")
        if self.shared_memory_per_block_bytes < 0:
            raise ValueError("shared memory per block cannot be negative")

    def concurrent_blocks(
        self,
        shared_memory_per_multiprocessor: int,
        multiprocessors: int,
        max_blocks_per_multiprocessor: int = 8,
    ) -> int:
        """Blocks resident at once, limited by scratchpad capacity."""
        per_mp = occupancy_limited_blocks(
            self.shared_memory_per_block_bytes,
            shared_memory_per_multiprocessor,
            max_blocks_per_multiprocessor,
        )
        return min(self.num_blocks, per_mp * multiprocessors)


def occupancy_limited_blocks(
    shared_memory_per_block_bytes: int,
    shared_memory_per_multiprocessor: int,
    max_blocks_per_multiprocessor: int = 8,
) -> int:
    """Concurrent blocks per multiprocessor allowed by shared-memory usage."""
    if shared_memory_per_block_bytes <= 0:
        return max_blocks_per_multiprocessor
    if shared_memory_per_block_bytes > shared_memory_per_multiprocessor:
        return 0
    fit = shared_memory_per_multiprocessor // shared_memory_per_block_bytes
    return int(min(max(fit, 0), max_blocks_per_multiprocessor))


def blocks_for_extent(extent: int, tile_size: int) -> int:
    """Number of tiles (thread blocks) covering an iteration extent."""
    if extent <= 0:
        raise ValueError("extent must be positive")
    if tile_size <= 0:
        raise ValueError("tile_size must be positive")
    return -(-extent // tile_size)
