"""Statements and array references.

A :class:`Statement` is an assignment ``lhs = rhs`` (or a reduction
``lhs op= rhs``) executed over an iteration domain.  Its array accesses are
the :class:`~repro.ir.expressions.Load` nodes of the left- and right-hand
sides; :class:`Reference` packages one access together with its affine access
function for the analysis layers (data spaces, dependences).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from repro.ir.arrays import Array
from repro.ir.expressions import Expr, Load
from repro.polyhedral.affine import AffineFunction
from repro.polyhedral.dependence import AccessDescriptor
from repro.polyhedral.polyhedron import Polyhedron

_REDUCTION_OPS = ("+", "*", "min", "max")


@dataclass(frozen=True)
class Reference:
    """An array access together with its affine access function."""

    array: Array
    function: AffineFunction
    is_write: bool = False

    @property
    def rank(self) -> int:
        """Rank of the iterator part of the access function (paper's rank(F))."""
        return self.function.rank()

    def __str__(self) -> str:
        kind = "write" if self.is_write else "read"
        return f"{kind} {self.array.name}{self.function}"


@dataclass(frozen=True)
class Statement:
    """An assignment statement over an affine iteration domain.

    Attributes
    ----------
    name:
        Unique statement name within the program.
    domain:
        Iteration domain; its dimension order is the surrounding loop order,
        outermost first.
    lhs:
        The written access.
    rhs:
        Right-hand-side expression tree.
    reduction:
        ``None`` for a plain assignment, or an operator (``"+"``, ``"*"``,
        ``"min"``, ``"max"``) meaning ``lhs = lhs  op  rhs``.
    textual_position:
        Position in the original program text, used to order loop-independent
        dependences.
    """

    name: str
    domain: Polyhedron
    lhs: Load
    rhs: Expr
    reduction: Optional[str] = None
    textual_position: int = 0

    def __post_init__(self) -> None:
        if self.reduction is not None and self.reduction not in _REDUCTION_OPS:
            raise ValueError(
                f"unsupported reduction {self.reduction!r}; supported: {_REDUCTION_OPS}"
            )

    # -- accesses -------------------------------------------------------------
    @property
    def iterators(self) -> Tuple[str, ...]:
        """Surrounding loop iterators, outermost first."""
        return self.domain.dims

    def read_loads(self) -> List[Load]:
        """All loads performed when executing one instance (reduction reads lhs)."""
        loads = list(self.rhs.loads())
        if self.reduction is not None:
            loads.append(self.lhs)
        return loads

    def write_load(self) -> Load:
        return self.lhs

    def _function_for(self, load: Load) -> AffineFunction:
        return AffineFunction(self.iterators, load.indices)

    def read_references(self) -> List[Reference]:
        return [
            Reference(load.array, self._function_for(load), is_write=False)
            for load in self.read_loads()
        ]

    def write_reference(self) -> Reference:
        return Reference(self.lhs.array, self._function_for(self.lhs), is_write=True)

    def arrays(self) -> List[Array]:
        """Distinct arrays accessed by this statement."""
        seen = {}
        for load in [self.lhs] + self.rhs.loads():
            seen[load.array.name] = load.array
        return list(seen.values())

    # -- transformation helpers -----------------------------------------------
    def map_loads(self, transform: Callable[[Load], Expr]) -> "Statement":
        """Rewrite every access (the scratchpad remap uses this).

        The transform applied to the left-hand side must return a
        :class:`Load`.
        """
        new_lhs = transform(self.lhs)
        if not isinstance(new_lhs, Load):
            raise TypeError("the left-hand side of a statement must remain a Load")
        new_rhs = self.rhs.map_loads(transform)
        return replace(self, lhs=new_lhs, rhs=new_rhs)

    def with_domain(self, domain: Polyhedron) -> "Statement":
        """Replace the iteration domain (e.g. after tiling introduces new bounds)."""
        return replace(self, domain=domain)

    # -- analysis adapters ----------------------------------------------------------
    def access_descriptors(self) -> List[AccessDescriptor]:
        """Accesses in the representation consumed by the dependence analyzer."""
        descriptors = [
            AccessDescriptor(
                statement=self.name,
                array=self.lhs.array.name,
                function=self._function_for(self.lhs),
                domain=self.domain,
                is_write=True,
                textual_position=self.textual_position,
            )
        ]
        for load in self.read_loads():
            descriptors.append(
                AccessDescriptor(
                    statement=self.name,
                    array=load.array.name,
                    function=self._function_for(load),
                    domain=self.domain,
                    is_write=False,
                    textual_position=self.textual_position,
                )
            )
        return descriptors

    def __str__(self) -> str:
        op = f"{self.reduction}=" if self.reduction else "="
        return f"{self.name}: {self.lhs} {op} {self.rhs}"
