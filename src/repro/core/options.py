"""Options controlling the end-to-end mapping pipeline."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.scratchpad.reuse import DEFAULT_DELTA

_TARGETS = ("gpu", "cell")


@dataclass
class MappingOptions:
    """Knobs of the :mod:`repro.compiler` passes (one session's base options).

    Attributes
    ----------
    num_blocks:
        Total number of outer-level parallel processes (thread blocks).
    threads_per_block:
        Inner-level processes per block (``P`` in the cost model; the paper
        uses multiples of the warp size, 32).
    tile_sizes:
        Explicit memory-level tile sizes per original loop.  ``None`` runs the
        Section-4.3 tile-size search instead.
    use_scratchpad:
        Disable to obtain the "GPU without scratchpad" baseline of Figs. 4–5.
    delta:
        Algorithm-1 overlap threshold.
    target:
        ``"gpu"`` or ``"cell"`` staging policy.
    hoisting:
        Account for Section-4.2 hoisting of copy code out of redundant loops.
    liveness:
        Enable the Section-3.1.4 copy minimisation (extension).
    """

    num_blocks: int = 32
    threads_per_block: int = 256
    tile_sizes: Optional[Dict[str, int]] = None
    use_scratchpad: bool = True
    delta: float = DEFAULT_DELTA
    target: str = "gpu"
    hoisting: bool = True
    liveness: bool = False

    def __post_init__(self) -> None:
        if (
            not isinstance(self.num_blocks, int)
            or isinstance(self.num_blocks, bool)
            or self.num_blocks <= 0
        ):
            raise ValueError(f"num_blocks must be a positive integer, got {self.num_blocks!r}")
        if (
            not isinstance(self.threads_per_block, int)
            or isinstance(self.threads_per_block, bool)
            or self.threads_per_block <= 0
        ):
            raise ValueError(
                f"threads_per_block must be a positive integer, got {self.threads_per_block!r}"
            )
        if self.tile_sizes is not None:
            if not isinstance(self.tile_sizes, Mapping):
                raise ValueError(
                    f"tile_sizes must be a mapping of loop name to size, got {self.tile_sizes!r}"
                )
            for loop, size in self.tile_sizes.items():
                if not isinstance(loop, str) or not loop:
                    raise ValueError(f"tile_sizes keys must be loop names, got {loop!r}")
                if not isinstance(size, int) or isinstance(size, bool) or size <= 0:
                    raise ValueError(
                        f"tile size for loop {loop!r} must be a positive integer, got {size!r}"
                    )
            self.tile_sizes = dict(self.tile_sizes)
        if not 0 <= self.delta <= 1:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta!r}")
        if self.target not in _TARGETS:
            raise ValueError(f"target must be one of {_TARGETS}, got {self.target!r}")

    # -- conversion helpers (used by repro.autotune) -----------------------------------
    def with_overrides(self, **changes: Any) -> "MappingOptions":
        """A copy with the given fields replaced (and re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view, a stable fingerprint ingredient."""
        return {
            "num_blocks": self.num_blocks,
            "threads_per_block": self.threads_per_block,
            "tile_sizes": dict(sorted(self.tile_sizes.items())) if self.tile_sizes else None,
            "use_scratchpad": self.use_scratchpad,
            "delta": self.delta,
            "target": self.target,
            "hoisting": self.hoisting,
            "liveness": self.liveness,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MappingOptions":
        """Inverse of :meth:`to_dict` (unknown keys rejected by the constructor)."""
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown MappingOptions fields: {sorted(extra)}")
        return cls(**dict(payload))
