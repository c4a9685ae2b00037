"""Data-dependence analysis in the polyhedral model.

A dependence exists between two statement instances when both lie in their
iteration domains, they access the same array element, at least one access is
a write, and the source instance executes before the target instance.  All of
these conditions are affine, so every dependence is captured by a *dependence
polyhedron* over the concatenated (renamed) source and target iteration
vectors — exactly the representation the paper relies on for tiling legality
(Section 4) and for the copy-in/copy-out minimisation of Section 3.1.4.

The analyzer is deliberately decoupled from the IR package: it consumes plain
:class:`AccessDescriptor` records so it can be exercised and tested on its
own.  :mod:`repro.ir` provides the adapter that produces these records from a
program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.polyhedral.affine import AffineExpr, AffineFunction
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.polyhedron import Polyhedron

Number = Union[int, Fraction]

SOURCE_PREFIX = "s$"
TARGET_PREFIX = "t$"

FLOW = "flow"      # write -> read  (true dependence)
ANTI = "anti"      # read  -> write
OUTPUT = "output"  # write -> write


@dataclass(frozen=True)
class AccessDescriptor:
    """One array access of one statement, as seen by the dependence analyzer.

    Attributes
    ----------
    statement:
        Name of the statement performing the access.
    array:
        Name of the accessed array.
    function:
        Affine access function from the statement's iteration space to the
        array's data space.
    domain:
        Iteration domain of the statement; its dims must match
        ``function.inputs`` order-wise for the shared (outer) loops.
    is_write:
        True for write accesses.
    textual_position:
        Position of the statement in the original program text, used to order
        loop-independent dependences.
    """

    statement: str
    array: str
    function: AffineFunction
    domain: Polyhedron
    is_write: bool
    textual_position: int = 0


@dataclass(frozen=True)
class Dependence:
    """A dependence edge between two accesses, carried at a given loop level.

    ``level`` is 1-based: level ``k`` means the dependence is carried by the
    ``k``-th common surrounding loop (source and target agree on the first
    ``k - 1`` common iterators and differ at the ``k``-th).  ``level == 0``
    denotes a loop-independent dependence (all common iterators equal, source
    textually precedes target).
    """

    kind: str
    source: AccessDescriptor
    target: AccessDescriptor
    level: int
    polyhedron: Polyhedron
    common_loops: Tuple[str, ...]

    @property
    def carrying_loop(self) -> Optional[str]:
        if self.level == 0:
            return None
        return self.common_loops[self.level - 1]

    def source_dim(self, name: str) -> str:
        return SOURCE_PREFIX + name

    def target_dim(self, name: str) -> str:
        return TARGET_PREFIX + name

    def allows_negative_component(self, loop: str) -> bool:
        """Can ``target[loop] - source[loop]`` be negative on this dependence?

        Used by the permutability test: a band of loops is fully permutable
        when no dependence carried within the band has a negative component
        along any loop of the band.
        """
        if loop not in self.common_loops:
            return False
        delta_negative = Constraint.less_equal(
            AffineExpr.var(self.target_dim(loop)) - AffineExpr.var(self.source_dim(loop)),
            -1,
        )
        return not self.polyhedron.add_constraints([delta_negative]).is_empty()

    def distance_vector(
        self, param_binding: Optional[Mapping[str, Number]] = None
    ) -> Optional[Tuple[Optional[int], ...]]:
        """Per-common-loop constant distances, ``None`` entries when not constant.

        Returns ``None`` if the (specialised) dependence polyhedron is empty.
        """
        poly = self.polyhedron.specialize(param_binding or {})
        if poly.is_empty():
            return None
        distances: List[Optional[int]] = []
        for loop in self.common_loops:
            delta = AffineExpr.var(self.target_dim(loop)) - AffineExpr.var(
                self.source_dim(loop)
            )
            value = _constant_value_of(poly, delta)
            distances.append(value)
        return tuple(distances)

    def __str__(self) -> str:
        carried = "loop-independent" if self.level == 0 else f"level {self.level}"
        return (
            f"{self.kind} dependence {self.source.statement} -> "
            f"{self.target.statement} on {self.source.array} ({carried})"
        )


def _constant_value_of(poly: Polyhedron, expr: AffineExpr) -> Optional[int]:
    """If *expr* takes a single integer value over *poly*, return it."""
    for candidate in range(-4, 5):
        higher = poly.add_constraints(
            [Constraint.greater_equal(expr, candidate + 1)]
        )
        lower = poly.add_constraints([Constraint.less_equal(expr, candidate - 1)])
        equal = poly.add_constraints([Constraint.equals(expr, candidate)])
        if not equal.is_empty() and higher.is_empty() and lower.is_empty():
            return candidate
    return None


class DependenceAnalyzer:
    """Computes all pairwise dependences among a set of array accesses."""

    def __init__(self, accesses: Sequence[AccessDescriptor]) -> None:
        self._accesses = list(accesses)

    # -- public API ---------------------------------------------------------------
    def dependences(
        self, kinds: Sequence[str] = (FLOW, ANTI, OUTPUT)
    ) -> List[Dependence]:
        """All dependences of the requested kinds, one per carried level."""
        result: List[Dependence] = []
        for source in self._accesses:
            for target in self._accesses:
                kind = self._classify(source, target)
                if kind is None or kind not in kinds:
                    continue
                result.extend(self._dependences_between(kind, source, target))
        return result

    def flow_dependences(self) -> List[Dependence]:
        """True (read-after-write) dependences only."""
        return self.dependences(kinds=(FLOW,))

    def loops_carrying_dependences(self) -> Dict[str, List[Dependence]]:
        """Map from loop iterator name to the dependences it carries."""
        carried: Dict[str, List[Dependence]] = {}
        for dep in self.dependences():
            loop = dep.carrying_loop
            if loop is not None:
                carried.setdefault(loop, []).append(dep)
        return carried

    def is_loop_parallel(self, loop: str) -> bool:
        """A loop is parallel when it carries no dependence."""
        return loop not in self.loops_carrying_dependences()

    # -- internals -------------------------------------------------------------------
    @staticmethod
    def _classify(source: AccessDescriptor, target: AccessDescriptor) -> Optional[str]:
        if source.array != target.array:
            return None
        if source.is_write and not target.is_write:
            return FLOW
        if not source.is_write and target.is_write:
            return ANTI
        if source.is_write and target.is_write:
            return OUTPUT
        return None

    def _dependences_between(
        self, kind: str, source: AccessDescriptor, target: AccessDescriptor
    ) -> List[Dependence]:
        common = _common_loops(source, target)
        base, params = self._conflict_polyhedron(source, target)
        if base is None:
            return []
        result: List[Dependence] = []
        # Carried at each possible common-loop level.
        for level in range(1, len(common) + 1):
            constraints = []
            for loop in common[: level - 1]:
                constraints.append(
                    Constraint.equals(
                        AffineExpr.var(TARGET_PREFIX + loop),
                        AffineExpr.var(SOURCE_PREFIX + loop),
                    )
                )
            carried_loop = common[level - 1]
            constraints.append(
                Constraint.greater_equal(
                    AffineExpr.var(TARGET_PREFIX + carried_loop)
                    - AffineExpr.var(SOURCE_PREFIX + carried_loop),
                    1,
                )
            )
            poly = base.add_constraints(constraints)
            if not poly.is_empty():
                result.append(
                    Dependence(kind, source, target, level, poly, tuple(common))
                )
        # Loop-independent dependence: equal on all common loops, textual order.
        if source.textual_position < target.textual_position or (
            source.textual_position == target.textual_position
            and source.statement != target.statement
        ):
            constraints = [
                Constraint.equals(
                    AffineExpr.var(TARGET_PREFIX + loop),
                    AffineExpr.var(SOURCE_PREFIX + loop),
                )
                for loop in common
            ]
            poly = base.add_constraints(constraints)
            if not poly.is_empty():
                result.append(Dependence(kind, source, target, 0, poly, tuple(common)))
        return result

    @staticmethod
    def _conflict_polyhedron(
        source: AccessDescriptor, target: AccessDescriptor
    ) -> Tuple[Optional[Polyhedron], Tuple[str, ...]]:
        """Both instances in their domains and touching the same array element."""
        if source.function.output_dim != target.function.output_dim:
            return None, ()
        src_domain = source.domain.rename_dims(
            {d: SOURCE_PREFIX + d for d in source.domain.dims}
        )
        tgt_domain = target.domain.rename_dims(
            {d: TARGET_PREFIX + d for d in target.domain.dims}
        )
        dims = tuple(src_domain.dims) + tuple(tgt_domain.dims)
        params = tuple(dict.fromkeys(src_domain.params + tgt_domain.params))
        constraints = list(src_domain.constraints) + list(tgt_domain.constraints)
        src_fn = source.function.rename_inputs(
            {d: SOURCE_PREFIX + d for d in source.function.inputs}
        )
        tgt_fn = target.function.rename_inputs(
            {d: TARGET_PREFIX + d for d in target.function.inputs}
        )
        for src_expr, tgt_expr in zip(src_fn.outputs, tgt_fn.outputs):
            constraints.append(Constraint.equals(src_expr, tgt_expr))
        poly = Polyhedron(dims, constraints, params)
        if poly.is_empty():
            return None, params
        return poly, params


def _common_loops(source: AccessDescriptor, target: AccessDescriptor) -> List[str]:
    """Shared outermost loop iterators, by name, in domain order."""
    common: List[str] = []
    for src_dim, tgt_dim in zip(source.domain.dims, target.domain.dims):
        if src_dim == tgt_dim:
            common.append(src_dim)
        else:
            break
    return common
