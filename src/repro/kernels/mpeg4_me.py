"""MPEG-4 motion estimation (ME) kernel.

The paper's Fig. 2 shows the kernel's structure: two parallel (space) loops
``i, j`` over pixel positions and two small sequential loops ``k, l`` over the
search window (extent ``WS = 16`` in the experiments), accumulating a sum of
absolute differences (SAD) between the current frame and the reference frame.
The kernel needs no synchronisation across thread blocks.

``build_me_program`` produces the IR program (used for functional checks and
for exercising the full pipeline); :class:`MEWorkloadModel` produces the
workload descriptors for the paper's large problem sizes (256 K – 64 M pixels)
in closed form, using exactly the footprint/volume/occurrence formulas the
scratchpad framework derives for a sub-tile (the integration tests check the
two against each other).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.ir.builder import ProgramBuilder
from repro.ir.expressions import absolute
from repro.ir.program import Program
from repro.machine.cpu import CPUWorkload
from repro.machine.gpu import BlockWorkload
from repro.tiling.mapping import LaunchGeometry

#: Paper Fig. 4 problem sizes (pixels) → frame dimensions (height, width).
ME_PROBLEM_SIZES: Dict[str, Tuple[int, int]] = {
    "256k": (512, 512),
    "1M": (1024, 1024),
    "2M": (2048, 1024),
    "4M": (2048, 2048),
    "9M": (3072, 3072),
    "16M": (4096, 4096),
    "64M": (8192, 8192),
}

#: Search-window extent used throughout the paper's experiments.
DEFAULT_WINDOW = 16


def build_me_program(height: int, width: int, window: int = DEFAULT_WINDOW) -> Program:
    """The ME kernel as an IR program (Fig. 2 structure).

    ``Cur`` and ``Ref`` are padded by the window extent so that all accesses
    stay in bounds; ``SAD[i][j]`` accumulates the sum of absolute differences
    over the window.
    """
    if height <= 0 or width <= 0 or window <= 0:
        raise ValueError("height, width and window must be positive")
    builder = ProgramBuilder("mpeg4_me")
    cur = builder.array("Cur", (height + window, width + window))
    ref = builder.array("Ref", (height + window, width + window))
    sad = builder.array("SAD", (height, width))
    i, j, k, l = (builder.var(name) for name in ("i", "j", "k", "l"))
    with builder.loop("i", 0, height - 1):
        with builder.loop("j", 0, width - 1):
            with builder.loop("k", 0, window - 1):
                with builder.loop("l", 0, window - 1):
                    builder.assign(
                        sad[i, j],
                        absolute(cur[i + k, j + l] - ref[i + k, j + l]),
                        reduction="+",
                        name="sad_update",
                    )
    return builder.build()


@dataclass
class MEWorkloadModel:
    """Closed-form workload model for the ME kernel on the two-level machine.

    All quantities follow from the tiled structure of Fig. 3 and the
    scratchpad framework's allocation for a sub-tile of sizes
    ``(ti, tj, tk, tl)``:

    * staged regions per sub-tile: ``Cur``/``Ref`` footprints of
      ``(ti + tk − 1) × (tj + tl − 1)`` elements each and the ``SAD`` tile of
      ``ti × tj`` elements (copy-in because of the accumulation, copy-out as
      the result);
    * ``Cur``/``Ref`` copies repeat for every sub-tile; the ``SAD`` copy hoists
      out of the window loops (Section 4.2) because its access does not depend
      on ``k``/``l``.
    """

    height: int
    width: int
    window: int = DEFAULT_WINDOW
    num_blocks: int = 32
    threads_per_block: int = 256
    element_size: int = 4

    @property
    def pixels(self) -> int:
        return self.height * self.width

    @property
    def total_instances(self) -> float:
        return float(self.pixels) * self.window * self.window

    def outer_tile(self) -> Tuple[int, int]:
        """Per-block tile of the pixel domain (problem split evenly, Fig. 6 setup)."""
        blocks_i, blocks_j = _split_blocks(self.num_blocks, self.height, self.width)
        return math.ceil(self.height / blocks_i), math.ceil(self.width / blocks_j)

    # -- per-sub-tile geometry (the scratchpad framework's formulas) -----------------
    def subtile_footprint_bytes(self, tile: Tuple[int, int, int, int]) -> int:
        ti, tj, tk, tl = tile
        frame_region = (ti + tk - 1) * (tj + tl - 1)
        return (2 * frame_region + ti * tj) * self.element_size

    def block_workload(
        self, tile: Tuple[int, int, int, int], use_scratchpad: bool = True
    ) -> BlockWorkload:
        """Workload of one thread block for the given sub-tile sizes."""
        ti, tj, tk, tl = tile
        if min(tile) <= 0:
            raise ValueError("tile sizes must be positive")
        outer_i, outer_j = self.outer_tile()
        instances_per_block = self.total_instances / self.num_blocks
        if not use_scratchpad:
            return BlockWorkload(
                compute_instances=instances_per_block,
                global_accesses_per_instance=4.0,  # Cur, Ref, SAD read, SAD write
                shared_accesses_per_instance=0.0,
                element_size=self.element_size,
            )
        subtiles_ij = math.ceil(outer_i / ti) * math.ceil(outer_j / tj)
        subtiles_kl = math.ceil(self.window / tk) * math.ceil(self.window / tl)
        frame_region = (ti + tk - 1) * (tj + tl - 1)
        copy_in = subtiles_ij * (
            subtiles_kl * 2 * frame_region  # Cur and Ref, per (k, l) sub-tile
            + ti * tj                        # SAD, hoisted out of the window loops
        )
        copy_out = subtiles_ij * ti * tj
        occurrences = subtiles_ij * (subtiles_kl + 1) + subtiles_ij
        return BlockWorkload(
            compute_instances=instances_per_block,
            global_accesses_per_instance=0.0,
            shared_accesses_per_instance=4.0,
            copy_in_elements=float(copy_in),
            copy_out_elements=float(copy_out),
            copy_occurrences=float(occurrences),
            element_size=self.element_size,
        )

    def geometry(self, tile: Tuple[int, int, int, int], use_scratchpad: bool = True) -> LaunchGeometry:
        shared = self.subtile_footprint_bytes(tile) if use_scratchpad else 0
        return LaunchGeometry(
            num_blocks=self.num_blocks,
            threads_per_block=self.threads_per_block,
            shared_memory_per_block_bytes=shared,
        )

    def cpu_workload(self) -> CPUWorkload:
        # The sequential ME sweep reuses a sliding band of `window` rows of the
        # current and reference frames; that band is the working set that
        # determines the cache behaviour, not the whole frames.
        working_set = 2 * (self.width + self.window) * self.window
        return CPUWorkload(
            compute_instances=self.total_instances,
            accesses_per_instance=4.0,
            working_set_bytes=working_set * self.element_size,
        )


def _split_blocks(num_blocks: int, height: int, width: int) -> Tuple[int, int]:
    """Split a block count across the two pixel dimensions, favouring the larger."""
    best = (num_blocks, 1)
    best_score = float("inf")
    for blocks_i in range(1, num_blocks + 1):
        if num_blocks % blocks_i:
            continue
        blocks_j = num_blocks // blocks_i
        tile_i = math.ceil(height / blocks_i)
        tile_j = math.ceil(width / blocks_j)
        score = abs(tile_i - tile_j)
        if score < best_score:
            best_score = score
            best = (blocks_i, blocks_j)
    return best
