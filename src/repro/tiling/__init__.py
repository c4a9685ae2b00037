"""Computation mapping by multi-level tiling (paper Section 4).

* :mod:`repro.tiling.bands` — dependence-based identification of fully
  permutable bands, parallel (space) loops and sequential (time) loops; a
  reduced reimplementation of the parts of the Bondhugula et al. framework the
  paper consumes.
* :mod:`repro.tiling.hyperplanes` — legality-checked skewing (used to enable
  tiling / concurrent start for stencils).
* :mod:`repro.tiling.multilevel` — the multi-level tiling transformation that
  produces the Fig. 2 → Fig. 3 loop structure.
* :mod:`repro.tiling.placement` — hoisting of data-movement code out of
  redundant tiling loops (Section 4.2).
* :mod:`repro.tiling.cost_model` — the data-movement cost model
  ``C = N · (P·S + V·L/P)``.
* :mod:`repro.tiling.tile_search` — the constrained tile-size optimisation of
  Section 4.3 (SQP over relaxed real tile sizes, then rounding).
* :mod:`repro.tiling.mapping` — launch geometry: thread blocks, threads,
  occupancy limits imposed by scratchpad usage.
"""

from repro.tiling.bands import BandAnalysis, analyze_bands
from repro.tiling.hyperplanes import find_legal_skewing, apply_skewing
from repro.tiling.multilevel import TilingLevelSpec, TiledProgram, tile_program
from repro.tiling.placement import hoist_level_for_buffer, redundant_loops_for_buffer
from repro.tiling.cost_model import DataMovementCostModel, MovementDescriptor
from repro.tiling.tile_search import (
    TileSearchProblem,
    TileSearchResult,
    candidate_neighbourhood,
    search_tile_sizes,
    solve_relaxed,
)
from repro.tiling.mapping import LaunchGeometry, occupancy_limited_blocks

__all__ = [
    "BandAnalysis",
    "analyze_bands",
    "find_legal_skewing",
    "apply_skewing",
    "TilingLevelSpec",
    "TiledProgram",
    "tile_program",
    "hoist_level_for_buffer",
    "redundant_loops_for_buffer",
    "DataMovementCostModel",
    "MovementDescriptor",
    "TileSearchProblem",
    "TileSearchResult",
    "candidate_neighbourhood",
    "search_tile_sizes",
    "solve_relaxed",
    "LaunchGeometry",
    "occupancy_limited_blocks",
]
