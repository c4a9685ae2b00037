"""Array declarations.

An :class:`Array` is a named, n-dimensional data space.  Shapes may be plain
integers or affine expressions in program parameters (e.g. ``N`` × ``N``);
local scratchpad buffers created by the framework are also Arrays, flagged
with ``memory="local"`` so the machine model can charge the right access
cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.polyhedral.affine import AffineExpr, ExprLike

GLOBAL_MEMORY = "global"
LOCAL_MEMORY = "local"


@dataclass(frozen=True)
class Array:
    """A named n-dimensional array.

    Attributes
    ----------
    name:
        Unique array name within a program.
    shape:
        One extent per dimension; each extent is an ``int`` or an
        :class:`AffineExpr` over program parameters.
    dtype:
        Element type label (informational; the interpreter uses float64 /
        int64 numpy arrays).
    memory:
        ``"global"`` for off-chip arrays, ``"local"`` for scratchpad buffers
        created by the data-management framework.
    element_size:
        Size of one element in bytes, used for footprint and bandwidth
        accounting (default 4, matching the single-precision kernels of the
        paper's evaluation).
    """

    name: str
    shape: Tuple[Union[int, AffineExpr], ...]
    dtype: str = "float32"
    memory: str = GLOBAL_MEMORY
    element_size: int = 4

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("array name must be non-empty")
        if self.memory not in (GLOBAL_MEMORY, LOCAL_MEMORY):
            raise ValueError(f"memory must be 'global' or 'local', got {self.memory!r}")
        normalised = []
        for extent in self.shape:
            if isinstance(extent, AffineExpr):
                normalised.append(extent)
            else:
                extent = int(extent)
                if extent <= 0:
                    raise ValueError(f"array {self.name}: extents must be positive")
                normalised.append(extent)
        object.__setattr__(self, "shape", tuple(normalised))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def is_local(self) -> bool:
        return self.memory == LOCAL_MEMORY

    def concrete_shape(self, param_binding: Optional[Mapping[str, int]] = None) -> Tuple[int, ...]:
        """Numeric shape given values for any symbolic extents."""
        binding = dict(param_binding or {})
        result = []
        for extent in self.shape:
            if isinstance(extent, AffineExpr):
                value = extent.evaluate(binding)
                if value.denominator != 1:
                    raise ValueError(
                        f"array {self.name}: extent {extent} evaluates to non-integer {value}"
                    )
                result.append(int(value))
            else:
                result.append(extent)
        if any(extent <= 0 for extent in result):
            raise ValueError(f"array {self.name}: non-positive concrete extent {result}")
        return tuple(result)

    def footprint_bytes(self, param_binding: Optional[Mapping[str, int]] = None) -> int:
        """Total size in bytes for concrete extents."""
        total = 1
        for extent in self.concrete_shape(param_binding):
            total *= extent
        return total * self.element_size

    def __getitem__(self, indices) -> "repro.ir.expressions.Load":  # noqa: F821
        """Index the array with affine expressions, producing a load expression.

        The returned :class:`~repro.ir.expressions.Load` carries raw index
        expressions; the :class:`~repro.ir.builder.ProgramBuilder` turns them
        into an :class:`~repro.polyhedral.affine.AffineFunction` once the
        surrounding loops are known.
        """
        from repro.ir.expressions import Load

        if not isinstance(indices, tuple):
            indices = (indices,)
        if len(indices) != self.ndim:
            raise ValueError(
                f"array {self.name} has {self.ndim} dimensions, got {len(indices)} indices"
            )
        exprs = tuple(AffineExpr.coerce(index) for index in indices)
        return Load(array=self, indices=exprs)

    def __str__(self) -> str:
        extents = "][".join(str(extent) for extent in self.shape)
        return f"{self.name}[{extents}]"
