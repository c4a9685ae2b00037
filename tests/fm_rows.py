"""Constraint-level Fourier–Motzkin questions, asked of the integer-row kernel.

``repro.polyhedral.fourier_motzkin`` works on rows only; nothing in ``src/``
asks it a question in terms of :class:`Constraint` lists any more.  The tests
that compare the kernel with ``fm_oracle`` (which speaks constraints) convert
here, through ``rows_of`` / ``constraints_of``, exactly as the kernel's callers
read their rows.  Not collected by pytest; never import it from ``src/``.
"""

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from repro.polyhedral import fourier_motzkin as fm
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint


def remove_redundant(constraints: Iterable[Constraint]) -> List[Constraint]:
    """:func:`fm.reduce_rows`, handing back the caller's objects (each kept row is an input row)."""
    constraints = list(constraints)
    _, rows = fm.rows_of(constraints)
    original = {}
    for row, constraint in zip(rows, constraints):
        original.setdefault(row, constraint)
    return [original[row] for row in fm.reduce_rows(rows)]


def eliminate_variable(constraints: Sequence[Constraint], name: str) -> List[Constraint]:
    names, rows = fm.rows_of(constraints)
    if name not in names:
        return fm.constraints_of(names, fm.reduce_rows(rows))
    return fm.constraints_of(names, fm._eliminate_column(rows, names.index(name)))


def eliminate(constraints: Sequence[Constraint], eliminated: Iterable[str]) -> List[Constraint]:
    names, rows = fm.rows_of(constraints)
    return fm.constraints_of(names, fm.eliminate_rows(names, fm.reduce_rows(rows), eliminated))


def is_rationally_infeasible(constraints: Sequence[Constraint]) -> bool:
    names, rows = fm.rows_of(constraints)
    return fm.rows_infeasible(names, fm.reduce_rows(rows))


def bounds_for_variable(
    constraints: Sequence[Constraint], name: str, keep: Iterable[str]
) -> Tuple[List[Tuple[AffineExpr, Fraction]], List[Tuple[AffineExpr, Fraction]]]:
    """:func:`fm.row_bounds` of the system, the coefficients as ``Fraction``s (as the oracle's)."""
    names, rows = fm.rows_of(constraints)
    lowers, uppers = fm.row_bounds(names, fm.reduce_rows(rows), name, keep)
    return (
        [(expr, Fraction(coeff)) for expr, coeff in lowers],
        [(expr, Fraction(coeff)) for expr, coeff in uppers],
    )
