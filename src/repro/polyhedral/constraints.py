"""Affine constraints (equalities and inequalities) over named variables.

A :class:`Constraint` wraps an :class:`~repro.polyhedral.affine.AffineExpr`
``e`` and means either ``e >= 0`` (inequality) or ``e == 0`` (equality).
A constraint *is* its normal integer row: ``e`` is stored with denominator 1
and coprime integer coefficients (an equality also with a positive first
non-zero coefficient in sorted-name order), so that syntactically equal
constraints compare and hash equal — this is what keeps Fourier–Motzkin
elimination from drowning in duplicates — and so that the kernel reads its
rows off constraints, and builds constraints from rows, without arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence, Tuple, Union

from repro.polyhedral.affine import AffineExpr, ExprLike

Number = Union[int, Fraction]


@dataclass(frozen=True)
class Constraint:
    """``expr >= 0`` (default) or ``expr == 0`` over named variables."""

    expr: AffineExpr
    is_equality: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "expr", self._normalise(self.expr, self.is_equality))

    @staticmethod
    def _normalise(expr: AffineExpr, is_equality: bool) -> AffineExpr:
        """The positive multiple of *expr* with coprime integer entries."""
        coeffs, constant = expr._coeffs, expr._const
        divisor = gcd(constant, *coeffs.values())
        if is_equality:
            # canonical sign for equalities: first non-zero coefficient positive
            leading = coeffs[min(coeffs)] if coeffs else constant
            if leading < 0:
                divisor = -divisor
        if divisor in (0, 1):
            # nothing to divide: dropping the (positive) denominator is all
            return expr if expr._den == 1 else AffineExpr.from_terms(coeffs, constant)
        return AffineExpr.from_terms(
            {name: value // divisor for name, value in coeffs.items()}, constant // divisor
        )

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_normal_row(
        cls, names: Sequence[str], coeffs: Sequence[int], constant: int, is_equality: bool
    ) -> "Constraint":
        """``sum coeffs[i]*names[i] + constant`` (``>=`` or ``==``) ``0``, taken as is.

        The row must already be in this class's normal form — integers with
        gcd 1 and, for an equality, a positive first non-zero coefficient in
        sorted-name order (*names* must be sorted) — which is what the
        Fourier–Motzkin kernel maintains, so normalising it again would be
        pure overhead.
        """
        expr = AffineExpr.from_terms(
            {name: value for name, value in zip(names, coeffs) if value}, constant
        )
        constraint = object.__new__(cls)
        object.__setattr__(constraint, "expr", expr)
        object.__setattr__(constraint, "is_equality", is_equality)
        return constraint

    @classmethod
    def greater_equal(cls, lhs: ExprLike, rhs: ExprLike = 0) -> "Constraint":
        """Constraint ``lhs >= rhs``."""
        return cls(AffineExpr.coerce(lhs) - AffineExpr.coerce(rhs), is_equality=False)

    @classmethod
    def less_equal(cls, lhs: ExprLike, rhs: ExprLike = 0) -> "Constraint":
        """Constraint ``lhs <= rhs``."""
        return cls(AffineExpr.coerce(rhs) - AffineExpr.coerce(lhs), is_equality=False)

    @classmethod
    def equals(cls, lhs: ExprLike, rhs: ExprLike = 0) -> "Constraint":
        """Constraint ``lhs == rhs``."""
        return cls(AffineExpr.coerce(lhs) - AffineExpr.coerce(rhs), is_equality=True)

    @classmethod
    def bounds(cls, name: str, lower: ExprLike, upper: ExprLike) -> Tuple["Constraint", "Constraint"]:
        """The pair ``name >= lower`` and ``name <= upper``."""
        var = AffineExpr.var(name)
        return cls.greater_equal(var, lower), cls.less_equal(var, upper)

    # -- inspection -------------------------------------------------------------
    @property
    def variables(self) -> Tuple[str, ...]:
        return self.expr.variables

    def coefficient(self, name: str) -> Fraction:
        return self.expr.coefficient(name)

    def involves(self, names: Iterable[str]) -> bool:
        return self.expr.depends_on(names)

    def is_trivially_true(self) -> bool:
        """Constant constraint that always holds (e.g. ``3 >= 0`` or ``0 == 0``)."""
        if not self.expr.is_constant():
            return False
        if self.is_equality:
            return self.expr._const == 0
        return self.expr._const >= 0

    def is_trivially_false(self) -> bool:
        """Constant constraint that can never hold (e.g. ``-1 >= 0``)."""
        if not self.expr.is_constant():
            return False
        if self.is_equality:
            return self.expr._const != 0
        return self.expr._const < 0

    # -- evaluation / substitution ------------------------------------------------
    def satisfied_by(self, binding: Mapping[str, Number]) -> bool:
        """Check the constraint at a fully bound point."""
        value, _ = self.expr.evaluate_ratio(binding)  # the sign is the numerator's
        return value == 0 if self.is_equality else value >= 0

    def substitute(self, binding: Mapping[str, ExprLike]) -> "Constraint":
        return Constraint(self.expr.substitute(binding), self.is_equality)

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        return Constraint(self.expr.rename(mapping), self.is_equality)

    def negate(self) -> "Constraint":
        """Integer negation of an inequality: ``e >= 0`` becomes ``-e - 1 >= 0``.

        Only valid for integer points; equalities cannot be negated into a
        single convex constraint and raise ``ValueError``.
        """
        if self.is_equality:
            raise ValueError("the negation of an equality is not a single constraint")
        return Constraint(-self.expr - 1, is_equality=False)

    def as_pair_of_inequalities(self) -> Tuple["Constraint", ...]:
        """Equalities become (e >= 0, -e >= 0); inequalities are returned as-is."""
        if not self.is_equality:
            return (self,)
        return (
            Constraint(self.expr, is_equality=False),
            Constraint(-self.expr, is_equality=False),
        )

    def __str__(self) -> str:
        op = "==" if self.is_equality else ">="
        return f"{self.expr} {op} 0"
