"""Fourier–Motzkin elimination over exact rational constraints.

This is the workhorse behind projection, emptiness testing, parametric bound
extraction and code generation.  Constraint systems in this project are small
(loop depths of at most 6–8 plus a few parameters), so the classical
double-description blowup is not a concern, but we still normalise and
deduplicate aggressively after each elimination step to keep intermediate
systems small.

Exact arithmetic: a :class:`Constraint` is already normalised to coprime
integers, so every public function converts its system once into *integer
rows* ``(is_equality, coefficients, constant)`` over the sorted variable
names, does all elimination work on Python ints (cross-multiplication instead
of division, ``math.gcd`` to re-normalise), and builds ``Constraint`` /
``AffineExpr`` objects — ``Fraction`` at the API boundary — only for the rows
it returns.  Rows are kept in the same normal form ``Constraint`` uses, and in
the same order the constraint-level rules would produce (equalities in
encounter order, then inequalities in first-insertion order of their
coefficient vector), because loop bounds, hulls and emitted code are read off
that order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint

#: ``(is_equality, coefficient per sorted variable name, constant)``
Row = Tuple[bool, Tuple[int, ...], int]


# -- the API boundary: constraints <-> rows ----------------------------------------
def _to_rows(constraints: Sequence[Constraint]) -> Tuple[List[str], List[Row]]:
    """The system as integer rows over its sorted variable names (lossless)."""
    names = sorted({name for c in constraints for name, _ in c.expr.terms()})
    column = {name: idx for idx, name in enumerate(names)}
    width = len(names)
    rows: List[Row] = []
    for constraint in constraints:
        coeffs = [0] * width
        for name, value in constraint.expr.terms():
            coeffs[column[name]] = value.numerator
        rows.append(
            (constraint.is_equality, tuple(coeffs), constraint.expr.constant.numerator)
        )
    return names, rows


def _to_constraints(names: Sequence[str], rows: Iterable[Row]) -> List[Constraint]:
    return [
        Constraint.from_normal_row(names, coeffs, constant, is_equality)
        for is_equality, coeffs, constant in rows
    ]


# -- the kernel: everything below works on ints only ----------------------------------
def _normal_row(is_equality: bool, coeffs: List[int], constant: int) -> Row:
    """Divide by the gcd; equalities get a positive first non-zero entry."""
    divisor = abs(constant)
    for value in coeffs:
        if value:
            divisor = gcd(divisor, value)
            if divisor == 1:
                break
    if divisor > 1:
        coeffs = [value // divisor for value in coeffs]
        constant //= divisor
    if is_equality:
        leading = next((value for value in coeffs if value), constant)
        if leading < 0:
            coeffs = [-value for value in coeffs]
            constant = -constant
    return is_equality, tuple(coeffs), constant


def _is_false(row: Row) -> bool:
    """A constant row that can never hold (``-1 >= 0`` or ``1 == 0``)."""
    is_equality, coeffs, constant = row
    if any(coeffs):
        return False
    return constant != 0 if is_equality else constant < 0


def _reduce(rows: Iterable[Row]) -> List[Row]:
    """The syntactic redundancy rules of :func:`remove_redundant` on rows."""
    equalities: List[Row] = []
    seen = set()
    tightest: Dict[Tuple[int, ...], int] = {}
    falsum = None
    for row in rows:
        is_equality, coeffs, constant = row
        if not any(coeffs):
            if _is_false(row):
                falsum = row
            continue
        if is_equality:
            if row not in seen:
                seen.add(row)
                equalities.append(row)
            continue
        existing = tightest.get(coeffs)
        if existing is None or constant < existing:
            tightest[coeffs] = constant
    if falsum is not None:
        return [falsum]
    equalities.extend((False, coeffs, constant) for coeffs, constant in tightest.items())
    return equalities


def _eliminate_column(rows: Sequence[Row], col: int) -> List[Row]:
    """Project the (reduced or raw) row system onto the columns other than *col*."""
    # Prefer substitution through an equality: it is exact and cheap.
    for position, (is_equality, pivot, pivot_constant) in enumerate(rows):
        if is_equality and pivot[col]:
            # pivot: a*x + r2 == 0.  A row c*x + r1 becomes |a|*r1 - sign(a)*c*r2,
            # the positive multiple of r1 - (c/a)*r2 with integer entries.
            scale = abs(pivot[col])
            sign = 1 if pivot[col] > 0 else -1
            substituted: List[Row] = []
            for other_position, row in enumerate(rows):
                if other_position == position:
                    continue
                factor = sign * row[1][col]
                if factor:
                    row = _normal_row(
                        row[0],
                        [scale * x - factor * y for x, y in zip(row[1], pivot)],
                        scale * row[2] - factor * pivot_constant,
                    )
                substituted.append(row)
            return _reduce(substituted)

    lower: List[Row] = []   # positive coefficient on the column
    upper: List[Row] = []   # negative coefficient on the column
    combined: List[Row] = []
    for row in rows:
        value = row[1][col]
        if value > 0:
            lower.append(row)
        elif value < 0:
            upper.append(row)
        else:
            combined.append(row)
    for _, low, low_constant in lower:
        a = low[col]
        for _, up, up_constant in upper:
            b = -up[col]
            # a*x + r1 >= 0  and  -b*x + r2 >= 0   =>   b*r1 + a*r2 >= 0
            combined.append(
                _normal_row(
                    False,
                    [b * x + a * y for x, y in zip(low, up)],
                    b * low_constant + a * up_constant,
                )
            )
    return _reduce(combined)


def _eliminate_rows(names: Sequence[str], rows: Iterable[Row], eliminate: Iterable[str]) -> List[Row]:
    """Eliminate the named columns cheapest-first (fewest lower×upper pairs)."""
    column = {name: idx for idx, name in enumerate(names)}
    # names that do not occur in the system cost nothing and change nothing
    remaining = [column[name] for name in dict.fromkeys(eliminate) if name in column]
    system = _reduce(rows)
    while remaining:
        cost = {}
        for col in remaining:
            lows = ups = 0
            for _, coeffs, _ in system:
                if coeffs[col] > 0:
                    lows += 1
                elif coeffs[col] < 0:
                    ups += 1
            cost[col] = lows * ups
        remaining.sort(key=cost.__getitem__)
        system = _eliminate_column(system, remaining.pop(0))
        # Early exit once the system is plainly infeasible.
        if len(system) == 1 and _is_false(system[0]):
            return system
    return system


def _first_appearance(constraints: Sequence[Constraint], skip: Iterable[str] = ()) -> List[str]:
    """Variables in order of first use (sorted within a constraint), minus *skip*."""
    seen = dict.fromkeys(skip)
    ordered: List[str] = []
    for constraint in constraints:
        for name in constraint.variables:
            if name not in seen:
                seen[name] = None
                ordered.append(name)
    return ordered


# -- public API ---------------------------------------------------------------------
def remove_redundant(constraints: Iterable[Constraint]) -> List[Constraint]:
    """Cheap syntactic redundancy removal.

    * drops constraints that are trivially true,
    * deduplicates normalised constraints,
    * among inequalities sharing the same coefficient vector keeps only the
      tightest one (smallest constant), and
    * keeps a single trivially false constraint if one exists (so emptiness
      remains detectable).
    """
    constraints = list(constraints)
    _, rows = _to_rows(constraints)
    # every surviving row is an input row, so hand back the caller's objects
    original: Dict[Row, Constraint] = {}
    for row, constraint in zip(rows, constraints):
        original.setdefault(row, constraint)
    return [original[row] for row in _reduce(rows)]


def eliminate_variable(constraints: Sequence[Constraint], name: str) -> List[Constraint]:
    """Project the constraint system onto the variables other than *name*."""
    names, rows = _to_rows(constraints)
    if name not in names:
        return _to_constraints(names, _reduce(rows))
    return _to_constraints(names, _eliminate_column(rows, names.index(name)))


def eliminate(constraints: Sequence[Constraint], names: Iterable[str]) -> List[Constraint]:
    """Eliminate every variable in *names* from the system.

    Variables are eliminated cheapest-first (fewest lower×upper combinations)
    which in practice keeps intermediate systems near-minimal.
    """
    order, rows = _to_rows(constraints)
    return _to_constraints(order, _eliminate_rows(order, rows, names))


def is_rationally_infeasible(constraints: Sequence[Constraint]) -> bool:
    """True if the system has no rational solution.

    All variables are eliminated; the system is infeasible exactly when a
    trivially false constant constraint remains.
    """
    order, rows = _to_rows(constraints)
    residual = _eliminate_rows(order, rows, _first_appearance(constraints))
    return any(_is_false(row) for row in residual)


def bounds_for_variable(
    constraints: Sequence[Constraint], name: str, keep: Iterable[str]
) -> Tuple[List[Tuple[AffineExpr, Fraction]], List[Tuple[AffineExpr, Fraction]]]:
    """Lower/upper bound expressions for *name* in terms of the *keep* variables.

    All variables other than *name* and those in *keep* are eliminated first.
    Each returned entry is a pair ``(expr, coeff)`` meaning
    ``name >= expr / coeff`` (lower bounds) or ``name <= expr / coeff`` (upper
    bounds) with ``coeff > 0``.
    """
    order, rows = _to_rows(constraints)
    drop = _first_appearance(constraints, skip=(*keep, name))
    lowers: List[Tuple[AffineExpr, Fraction]] = []
    uppers: List[Tuple[AffineExpr, Fraction]] = []
    if name not in order:
        return lowers, uppers
    col = order.index(name)
    for is_equality, coeffs, constant in _eliminate_rows(order, rows, drop):
        coeff = coeffs[col]
        if coeff == 0:
            continue
        # coeff*name + rest >= 0 reads name >= -rest/coeff when coeff > 0 and
        # name <= rest/(-coeff) otherwise: either way -sign(coeff)*rest / |coeff|
        scale = -1 if coeff > 0 else 1
        bound = AffineExpr.from_terms(
            {
                var: Fraction(scale * value)
                for idx, (var, value) in enumerate(zip(order, coeffs))
                if value and idx != col
            },
            Fraction(scale * constant),
        )
        entry = (bound, Fraction(abs(coeff)))
        # an equality is both inequalities, e >= 0 and -e >= 0: it bounds both sides
        if is_equality or coeff > 0:
            lowers.append(entry)
        if is_equality or coeff < 0:
            uppers.append(entry)
    return lowers, uppers
