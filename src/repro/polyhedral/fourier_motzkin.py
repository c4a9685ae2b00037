"""Fourier–Motzkin elimination over exact rational constraints.

This is the workhorse behind projection, emptiness testing, parametric bound
extraction and code generation.  Constraint systems in this project are small
(loop depths of at most 6–8 plus a few parameters), so the classical
double-description blowup is not a concern, but we still normalise and
deduplicate aggressively after each elimination step to keep intermediate
systems small.

Exact arithmetic on *integer rows*: a system is a sorted tuple of variable
names plus rows ``(is_equality, coefficients, constant)`` over them, each row
in the normal form a :class:`Constraint` already has (coprime integers, an
equality with a positive first non-zero coefficient).  That is what a
:class:`~repro.polyhedral.polyhedron.Polyhedron` stores, so the row-level
functions (:func:`reduce_rows`, :func:`eliminate_rows`, :func:`rows_infeasible`,
:func:`row_bounds`, …) take and return rows, nothing is converted on the way,
and all elimination work is on Python ints (cross-multiplication instead of
division, ``math.gcd`` to re-normalise).  The constraint-level public API
reads the rows off its constraints (:func:`rows_of`), asks the same question
and wraps the answer; ``Fraction`` appears only there.  Rows keep the order
the constraint-level rules would produce (equalities in encounter order, then
inequalities in first-insertion order of their coefficient vector), because
loop bounds, hulls and emitted code are read off that order.

Eliminating a column only combines rows that use it, so rows that share no
column — directly or through other rows — never meet.  :func:`rows_infeasible`
therefore decides emptiness one such component (:func:`row_components`) at a
time and stops at the first infeasible one; :func:`eliminate_rows` and the
projections built on it keep eliminating the whole system, because their row
order is read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint

#: ``(is_equality, coefficient per sorted variable name, constant)``
Row = Tuple[bool, Tuple[int, ...], int]
#: ``(lowers, uppers)`` of a variable: pairs ``(expr, coeff)`` for ``expr / coeff``, ``coeff > 0``
IntBounds = Tuple[List[Tuple[AffineExpr, int]], List[Tuple[AffineExpr, int]]]


# -- the API boundary: constraints <-> rows ----------------------------------------
def rows_of(constraints: Sequence[Constraint]) -> Tuple[List[str], List[Row]]:
    """The system as integer rows over its sorted variable names (lossless)."""
    names = sorted({name for c in constraints for name in c.expr._coeffs})
    column = {name: idx for idx, name in enumerate(names)}
    width = len(names)
    rows: List[Row] = []
    for constraint in constraints:
        coeffs = [0] * width
        for name, value in constraint.expr._coeffs.items():
            coeffs[column[name]] = value
        rows.append((constraint.is_equality, tuple(coeffs), constraint.expr._const))
    return names, rows


def constraints_of(names: Sequence[str], rows: Iterable[Row]) -> List[Constraint]:
    return [
        Constraint.from_normal_row(names, coeffs, constant, is_equality)
        for is_equality, coeffs, constant in rows
    ]


def reindex_rows(names: Sequence[str], rows: Iterable[Row], onto: Sequence[str]) -> List[Row]:
    """*rows* over *names*, re-indexed over *onto*: the same sorted names plus
    new ones (zero columns) or minus ones no row uses — normal form either way."""
    if len(names) == len(onto):
        return list(rows)
    source = {name: idx for idx, name in enumerate(names)}
    picks = [source.get(name) for name in onto]
    return [
        (is_equality, tuple(0 if idx is None else coeffs[idx] for idx in picks), constant)
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


def is_false_row(row: Row) -> bool:
    """A constant row that can never hold (``-1 >= 0`` or ``1 == 0``)."""
    is_equality, coeffs, constant = row
    if any(coeffs):
        return False
    return constant != 0 if is_equality else constant < 0


def reduce_rows(rows: Iterable[Row]) -> List[Row]:
    """The syntactic redundancy rules of :func:`remove_redundant` on rows."""
    equalities: List[Row] = []
    seen = set()
    tightest: Dict[Tuple[int, ...], int] = {}
    falsum = None
    for row in rows:
        is_equality, coeffs, constant = row
        if not any(coeffs):
            if is_false_row(row):
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
            return reduce_rows(substituted)

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
    return reduce_rows(combined)


def eliminate_rows(names: Sequence[str], rows: Sequence[Row], eliminate: Iterable[str]) -> List[Row]:
    """Eliminate the named columns of a reduced system, cheapest (fewest lower×upper pairs) first."""
    column = {name: idx for idx, name in enumerate(names)}
    # names that do not occur in the system cost nothing and change nothing
    remaining = [column[name] for name in dict.fromkeys(eliminate) if name in column]
    system = list(rows)
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
        if len(system) == 1 and is_false_row(system[0]):
            return system
    return system


def bind_rows(
    names: Sequence[str], rows: Iterable[Row], values: Mapping[str, int], scale: int = 1
) -> List[Row]:
    """Every row with each variable ``x`` of *values* replaced by ``values[x] / scale``."""
    bound = [(idx, values[name]) for idx, name in enumerate(names) if name in values]
    if not bound:
        return list(rows)
    result: List[Row] = []
    for is_equality, coeffs, constant in rows:
        entries = [value * scale for value in coeffs] if scale != 1 else list(coeffs)
        constant *= scale
        for idx, value in bound:
            constant += coeffs[idx] * value
            entries[idx] = 0
        result.append(_normal_row(is_equality, entries, constant))
    return result


def _first_appearance(
    names: Sequence[str], rows: Iterable[Row], skip: Iterable[str] = ()
) -> List[str]:
    """Variables in order of first use (sorted within a row), minus *skip*."""
    seen = set(skip)
    ordered: List[str] = []
    for _, coeffs, _ in rows:
        for name, value in zip(names, coeffs):
            if value and name not in seen:
                seen.add(name)
                ordered.append(name)
    return ordered


def row_components(rows: Sequence[Row]) -> List[List[Row]]:
    """*rows* split into components — maximal groups connected through shared
    columns — each in input order, ordered by its first row; constant rows
    come last, each a component of its own."""
    # per column, the rows using it as an int with one byte per row (the first
    # row most significant): two columns share a row iff their masks AND
    merged: List[int] = []  # the row masks of the components, pairwise disjoint
    for column in zip(*[coeffs for _, coeffs, _ in rows]):
        mask = int.from_bytes(bytes(map(bool, column)), "big")
        if mask:
            apart = [other for other in merged if not other & mask]
            # disjoint masks: their sum is their union
            merged = [*apart, mask | (sum(merged) - sum(apart))]
    # a larger mask has an earlier first row; what no mask covers is constant
    width = len(rows)
    parts = [list(compress(rows, m.to_bytes(width, "big"))) for m in sorted(merged, reverse=True)]
    covered = sum(merged).to_bytes(width, "big")
    if 0 in covered:
        parts.extend([row] for row, used in zip(rows, covered) if not used)
    return parts


def rows_infeasible(names: Sequence[str], rows: Sequence[Row]) -> bool:
    """True if the reduced system has no rational solution: with every variable
    eliminated, exactly when a trivially false constant row remains.  Elimination
    never combines rows that share no column, so each component is eliminated
    on its own and the first infeasible one answers."""
    for part in row_components(rows):
        residual = eliminate_rows(names, part, _first_appearance(names, part))
        if any(is_false_row(row) for row in residual):
            return True
    return False


def _read_bounds(names: Sequence[str], rows: Iterable[Row], col: int) -> IntBounds:
    """The bounds the rows put on column *col*."""
    lowers, uppers = [], []
    for is_equality, coeffs, constant in rows:
        coeff = coeffs[col]
        if coeff == 0:
            continue
        # coeff*name + rest >= 0 reads name >= -rest/coeff when coeff > 0 and
        # name <= rest/(-coeff) otherwise: either way -sign(coeff)*rest / |coeff|
        scale = -1 if coeff > 0 else 1
        bound = AffineExpr.from_terms(
            {
                var: scale * value
                for idx, (var, value) in enumerate(zip(names, coeffs))
                if value and idx != col
            },
            scale * constant,
        )
        entry = (bound, abs(coeff))
        # an equality is both inequalities, e >= 0 and -e >= 0: it bounds both sides
        if is_equality or coeff > 0:
            lowers.append(entry)
        if is_equality or coeff < 0:
            uppers.append(entry)
    return lowers, uppers


def row_bounds(
    names: Sequence[str], rows: Sequence[Row], name: str, keep: Iterable[str]
) -> IntBounds:
    """:func:`bounds_for_variable` of a reduced row system, the coefficients as ints."""
    if name not in names:
        return [], []
    drop = _first_appearance(names, rows, skip=(*keep, name))
    return _read_bounds(names, eliminate_rows(names, rows, drop), names.index(name))


# -- public API: the same questions asked of constraints ------------------------------
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
    _, rows = rows_of(constraints)
    # every surviving row is an input row, so hand back the caller's objects
    original: Dict[Row, Constraint] = {}
    for row, constraint in zip(rows, constraints):
        original.setdefault(row, constraint)
    return [original[row] for row in reduce_rows(rows)]


def eliminate_variable(constraints: Sequence[Constraint], name: str) -> List[Constraint]:
    """Project the constraint system onto the variables other than *name*."""
    names, rows = rows_of(constraints)
    if name not in names:
        return constraints_of(names, reduce_rows(rows))
    return constraints_of(names, _eliminate_column(rows, names.index(name)))


def eliminate(constraints: Sequence[Constraint], names: Iterable[str]) -> List[Constraint]:
    """Eliminate every variable in *names* from the system.

    Variables are eliminated cheapest-first (fewest lower×upper combinations)
    which in practice keeps intermediate systems near-minimal.
    """
    order, rows = rows_of(constraints)
    return constraints_of(order, eliminate_rows(order, reduce_rows(rows), names))


def is_rationally_infeasible(constraints: Sequence[Constraint]) -> bool:
    """True if the system has no rational solution."""
    order, rows = rows_of(constraints)
    return rows_infeasible(order, reduce_rows(rows))


def bounds_for_variable(
    constraints: Sequence[Constraint], name: str, keep: Iterable[str]
) -> Tuple[List[Tuple[AffineExpr, Fraction]], List[Tuple[AffineExpr, Fraction]]]:
    """Lower/upper bound expressions for *name* in terms of the *keep* variables.

    All variables other than *name* and those in *keep* are eliminated first.
    Each returned entry is a pair ``(expr, coeff)`` meaning
    ``name >= expr / coeff`` (lower bounds) or ``name <= expr / coeff`` (upper
    bounds) with ``coeff > 0`` — a ``Fraction``, so ``expr.constant / coeff``
    is exact.
    """
    order, rows = rows_of(constraints)
    if name not in order:
        return [], []
    drop = _first_appearance(order, rows, skip=(*keep, name))
    lowers, uppers = _read_bounds(
        order, eliminate_rows(order, reduce_rows(rows), drop), order.index(name)
    )
    return (
        [(expr, Fraction(coeff)) for expr, coeff in lowers],
        [(expr, Fraction(coeff)) for expr, coeff in uppers],
    )
