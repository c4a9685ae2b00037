"""Parametric per-dimension bounds — the PIP substitute.

The paper uses Feautrier's Parametric Integer Programming (PIP) solver for one
purpose only: obtaining the lower and upper bound of each dimension of a
convex data-space union *as an affine function of the block parameters*
(Algorithm 2, step 8).  Fourier–Motzkin elimination delivers exactly those
bounds: after projecting everything else away, the constraints on a dimension
read ``dim >= affine(params)`` and ``dim <= affine(params)``; when several
candidates remain the true bound is their max (lower) or min (upper), which we
represent with :class:`QuasiAffineBound`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.polyhedral import fourier_motzkin as fm
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.polyhedron import Polyhedron

Number = Union[int, Fraction]

#: the memo :func:`shared_resolutions` installed on this thread, if any
_SCOPE = threading.local()
#: entries one memo may hold; it is emptied when it gets there
RESOLUTIONS_LIMIT = 4096


@contextmanager
def shared_resolutions(memo: Dict[tuple, object]) -> Iterator[None]:
    """Answer each exact bound question once per *memo* inside the block (this thread).

    :func:`resolve_quasi_affine` and :func:`_max_over_context` are pure in
    their (immutable, hashable) arguments and cost Fourier–Motzkin runs; one
    tuning request asks the same Algorithm-2 question for every candidate
    sharing a tile shape.  The owner of *memo* — a compilation session —
    decides how long answers live; outside any block nothing is remembered.
    """
    previous = getattr(_SCOPE, "memo", None)
    _SCOPE.memo = memo
    try:
        yield
    finally:
        _SCOPE.memo = previous


def _resolved(compute, subject, context: Polyhedron):
    """``compute(subject, context)``, or its remembered answer.

    Racing threads may both compute; they compute the same answer.
    """
    memo = getattr(_SCOPE, "memo", None)
    if memo is None:
        return compute(subject, context)
    key = (subject, context)
    try:
        return memo[key]
    except KeyError:
        pass
    answer = compute(subject, context)
    if len(memo) >= RESOLUTIONS_LIMIT:
        memo.clear()
    memo[key] = answer
    return answer


@dataclass(frozen=True)
class QuasiAffineBound:
    """``min`` or ``max`` of a set of affine expressions.

    ``kind`` is ``"max"`` for lower bounds (the tightest lower bound of a set
    of candidates) and ``"min"`` for upper bounds, matching the expressions
    CLooG prints as ``max(...)`` / ``min(...)`` in loop bounds.
    """

    kind: str
    exprs: Tuple[AffineExpr, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("min", "max"):
            raise ValueError(f"kind must be 'min' or 'max', got {self.kind!r}")
        if not self.exprs:
            raise ValueError("a quasi-affine bound needs at least one expression")
        object.__setattr__(self, "exprs", tuple(dict.fromkeys(self.exprs)))

    @property
    def is_single(self) -> bool:
        return len(self.exprs) == 1

    def as_single_expr(self) -> AffineExpr:
        """Return the unique expression; raises when the bound is a true min/max."""
        if not self.is_single:
            raise ValueError(f"bound {self} is not a single affine expression")
        return self.exprs[0]

    def evaluate(self, binding: Mapping[str, Number]) -> Fraction:
        values = [expr.evaluate(binding) for expr in self.exprs]
        return min(values) if self.kind == "min" else max(values)

    def floor_at(self, binding: Mapping[str, Number]) -> int:
        """Exact floor of the bound (rounding is monotone, so it commutes with min/max)."""
        values = [expr.floor_at(binding) for expr in self.exprs]
        return min(values) if self.kind == "min" else max(values)

    def ceil_at(self, binding: Mapping[str, Number]) -> int:
        """Exact ceiling of the bound."""
        values = [expr.ceil_at(binding) for expr in self.exprs]
        return min(values) if self.kind == "min" else max(values)

    def evaluate_int(self, binding: Mapping[str, Number]) -> int:
        """Integer bound: lower (max) bounds round up, upper (min) bounds round down."""
        return self.ceil_at(binding) if self.kind == "max" else self.floor_at(binding)

    def substitute(self, binding: Mapping[str, Number]) -> "QuasiAffineBound":
        return QuasiAffineBound(
            self.kind, tuple(expr.substitute(binding) for expr in self.exprs)
        )

    def merged_with(self, other: "QuasiAffineBound") -> "QuasiAffineBound":
        if self.kind != other.kind:
            raise ValueError("cannot merge bounds of different kinds")
        return QuasiAffineBound(self.kind, self.exprs + other.exprs)

    def __str__(self) -> str:
        if self.is_single:
            return str(self.exprs[0])
        inner = ", ".join(str(expr) for expr in self.exprs)
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class ParametricBound:
    """Lower and upper bound of one dimension as functions of the parameters."""

    dim: str
    lower: QuasiAffineBound
    upper: QuasiAffineBound

    def __post_init__(self) -> None:
        if self.lower.kind != "max" or self.upper.kind != "min":
            raise ValueError("lower bound must be a max, upper bound a min")

    def extent_expr(self) -> AffineExpr:
        """``ub - lb + 1`` when both bounds are single affine expressions."""
        return self.upper.as_single_expr() - self.lower.as_single_expr() + 1

    def evaluate(self, binding: Mapping[str, Number]) -> Tuple[int, int]:
        return self.lower.evaluate_int(binding), self.upper.evaluate_int(binding)

    def extent(self, binding: Mapping[str, Number]) -> int:
        low, high = self.evaluate(binding)
        return max(0, high - low + 1)

    def __str__(self) -> str:
        return f"{self.lower} <= {self.dim} <= {self.upper}"


def parametric_bounds(
    polyhedron: Polyhedron, dim: Optional[str] = None
) -> Union[ParametricBound, Dict[str, ParametricBound]]:
    """Parametric bounds of one dimension (or of all dimensions) of a polyhedron.

    Bounds are expressed over the polyhedron's parameters only; all other set
    dimensions are projected away first.  Raises ``ValueError`` when a
    dimension is unbounded.
    """
    if dim is not None:
        return _bounds_for(polyhedron, dim)
    return {name: _bounds_for(polyhedron, name) for name in polyhedron.dims}


def resolve_quasi_affine(
    bound: QuasiAffineBound, context: Optional[Polyhedron] = None
) -> Union[AffineExpr, QuasiAffineBound]:
    """Try to collapse a min/max of affine expressions to a single expression.

    Two resolution strategies are applied in order:

    1. *constant difference* — when all candidates differ pairwise by
       constants the extreme one is known statically;
    2. *context domination* — when a context polyhedron over the free
       variables is given (e.g. ``iT >= 0`` for a tile-origin parameter), a
       candidate that dominates every other candidate over the whole context
       is the bound (this is the "gist" simplification PIP/CLooG perform
       against the parameter context).

    Returns a plain :class:`AffineExpr` on success and the original (deduped)
    bound otherwise.
    """
    if bound.is_single:
        return bound.exprs[0]
    # Strategy 1: constant differences.
    best = bound.exprs[0]
    resolved = True
    for expr in bound.exprs[1:]:
        difference = expr - best
        if not difference.is_constant():
            resolved = False
            break
        if bound.kind == "min" and difference._const < 0:
            best = expr
        elif bound.kind == "max" and difference._const > 0:
            best = expr
    if resolved:
        return best
    # Strategy 2: domination over the context.
    if context is None:
        return bound
    return _resolved(_dominant_candidate, bound, context)


def _dominant_candidate(
    bound: QuasiAffineBound, context: Polyhedron
) -> Union[AffineExpr, QuasiAffineBound]:
    """The candidate that dominates every other over *context*, else *bound*."""
    known = set(context.dims) | set(context.params)
    for candidate in bound.exprs:
        dominates = True
        for other in bound.exprs:
            if other is candidate:
                continue
            free = set(candidate.variables) | set(other.variables)
            if not free <= known:
                dominates = False
                break
            if bound.kind == "max":
                # candidate is the max unless it can be strictly below `other`.
                violation = Constraint.less_equal(candidate - other, -1)
            else:
                violation = Constraint.greater_equal(candidate - other, 1)
            if not fm.rows_infeasible(*_touched(context, violation)):
                dominates = False
                break
        if dominates:
            return candidate
    return bound


def _max_over_context(expr: AffineExpr, context: Polyhedron) -> Optional[int]:
    """Maximum value of an affine expression over a bounded context, if bounded."""
    return _resolved(_projected_maximum, expr, context)


def _projected_maximum(expr: AffineExpr, context: Polyhedron) -> Optional[int]:
    known = set(context.dims) | set(context.params)
    if not set(expr.variables) <= known:
        return None
    # Introduce a fresh dimension equal to the expression, project the
    # context's dims away and bound it.
    value_dim = "__value"
    names, rows = _touched(context, Constraint.equals(AffineExpr.var(value_dim), expr))
    rows = fm.eliminate_rows(names, rows, context.dims)
    lowers, uppers = fm.row_bounds(names, rows, value_dim, context.params)
    if not lowers or not uppers or not all(bound.is_constant() for bound, _ in uppers):
        return None
    return min(bound._const // coeff for bound, coeff in uppers)


def _touched(context: Polyhedron, extra: Constraint) -> Tuple[List[str], List[fm.Row]]:
    """*extra* with the components of *context* that share a name with it, as a
    reduced row system: a question about *extra* has the same answer over it as
    over all of *context* while every other component is feasible.  When one
    is not, all of *context* is taken."""
    extra_names, extra_rows = fm.rows_of([extra])
    wanted = set(extra_names)
    parts = context.components()
    touched = [(names, rows) for names, rows, _ in parts if not wanted.isdisjoint(names)]
    if len(touched) == len(parts) or any(
        infeasible for names, _, infeasible in parts if wanted.isdisjoint(names)
    ):
        touched = [(context._names, context._rows)]
    union = sorted(wanted.union(*(names for names, _ in touched)))
    combined = [row for names, rows in touched for row in fm.reindex_rows(names, rows, union)]
    combined += fm.reindex_rows(extra_names, extra_rows, union)
    return union, fm.reduce_rows(combined)


def _bounds_for(polyhedron: Polyhedron, dim: str) -> ParametricBound:
    if dim not in polyhedron.dims:
        raise ValueError(f"'{dim}' is not a dimension of {polyhedron!r}")
    lowers, uppers = fm.row_bounds(
        polyhedron._names, polyhedron._rows, dim, polyhedron.params
    )
    if not lowers:
        raise ValueError(f"dimension '{dim}' has no lower bound in {polyhedron!r}")
    if not uppers:
        raise ValueError(f"dimension '{dim}' has no upper bound in {polyhedron!r}")
    lower_exprs = tuple(expr / coeff for expr, coeff in lowers)
    upper_exprs = tuple(expr / coeff for expr, coeff in uppers)
    return ParametricBound(
        dim,
        QuasiAffineBound("max", lower_exprs),
        QuasiAffineBound("min", upper_exprs),
    )
