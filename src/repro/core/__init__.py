"""Options of the end-to-end compilation pipeline.

The pipeline itself lives in :mod:`repro.compiler` as a staged pass pipeline
(affine analysis → multi-level tiling → scratchpad data management →
mapping/workload extraction); this package is the canonical home of its
knobs, :class:`MappingOptions`, which sits below the compiler so every layer
can import it without importing the passes.
"""

from repro.core.options import MappingOptions

__all__ = ["MappingOptions"]
