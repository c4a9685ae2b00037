"""Test oracle: the dict-of-``Fraction`` affine expression and constraint normal form.

This is the ``AffineExpr`` arithmetic and ``Constraint._normalise`` that
``repro.polyhedral`` shipped before expressions were stored as integer rows,
moved here verbatim (point evaluation is the plain ``Fraction`` sum it had
before it got an integer kernel).  It shares no code with the package, so
``tests/test_affine_arithmetic.py`` can require the integer implementation to
agree term by term — values, the *order* of the coefficient dictionary, text,
equality — with what this file computes.  Not collected by pytest (no
``test_`` prefix); never import it from ``src/``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.utils.frac import as_fraction, fraction_ceil, fraction_floor

Number = Union[int, Fraction]
ExprLike = Union["OracleExpr", int, Fraction]


def gcd_many(values: Iterable[int]) -> int:
    """Greatest common divisor of an iterable of integers (0 for empty)."""
    result = 0
    for v in values:
        result = math.gcd(result, int(v))
    return result


def lcm_many(values: Iterable[int]) -> int:
    """Least common multiple of an iterable of integers (1 for empty)."""
    result = 1
    for v in values:
        v = abs(int(v))
        if v == 0:
            continue
        result = result * v // math.gcd(result, v)
    return result


class OracleExpr:
    """``sum_i c_i * x_i + c0`` with every ``c`` a ``Fraction``."""

    def __init__(
        self, coeffs: Optional[Mapping[str, Number]] = None, constant: Number = 0
    ) -> None:
        clean: Dict[str, Fraction] = {}
        for name, value in (coeffs or {}).items():
            frac = as_fraction(value)
            if frac != 0:
                clean[name] = frac
        self._coeffs = clean
        self._constant = as_fraction(constant)

    @classmethod
    def coerce(cls, value: ExprLike) -> "OracleExpr":
        if isinstance(value, OracleExpr):
            return value
        return cls({}, value)

    # -- inspection --------------------------------------------------------
    @property
    def coefficients(self) -> Dict[str, Fraction]:
        return dict(self._coeffs)

    @property
    def constant(self) -> Fraction:
        return self._constant

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: ExprLike) -> "OracleExpr":
        other = OracleExpr.coerce(other)
        coeffs = dict(self._coeffs)
        for name, value in other._coeffs.items():
            coeffs[name] = coeffs.get(name, Fraction(0)) + value
        return OracleExpr(coeffs, self._constant + other._constant)

    def __radd__(self, other: ExprLike) -> "OracleExpr":
        return self.__add__(other)

    def __neg__(self) -> "OracleExpr":
        return OracleExpr({k: -v for k, v in self._coeffs.items()}, -self._constant)

    def __sub__(self, other: ExprLike) -> "OracleExpr":
        return self + (-OracleExpr.coerce(other))

    def __rsub__(self, other: ExprLike) -> "OracleExpr":
        return OracleExpr.coerce(other) + (-self)

    def __mul__(self, scalar: Number) -> "OracleExpr":
        factor = as_fraction(scalar)
        return OracleExpr(
            {k: v * factor for k, v in self._coeffs.items()}, self._constant * factor
        )

    def __rmul__(self, scalar: Number) -> "OracleExpr":
        return self.__mul__(scalar)

    def __truediv__(self, scalar: Number) -> "OracleExpr":
        factor = as_fraction(scalar)
        if factor == 0:
            raise ZeroDivisionError("division of an affine expression by zero")
        return self * (Fraction(1) / factor)

    # -- evaluation and substitution -----------------------------------------
    def evaluate(self, binding: Mapping[str, Number]) -> Fraction:
        total = self._constant
        for name, coeff in self._coeffs.items():
            total += coeff * as_fraction(binding[name])
        return total

    def floor_at(self, binding: Mapping[str, Number]) -> int:
        return fraction_floor(self.evaluate(binding))

    def ceil_at(self, binding: Mapping[str, Number]) -> int:
        return fraction_ceil(self.evaluate(binding))

    def substitute(self, binding: Mapping[str, ExprLike]) -> "OracleExpr":
        result = OracleExpr({}, self._constant)
        for name, coeff in self._coeffs.items():
            if name in binding:
                result = result + OracleExpr.coerce(binding[name]) * coeff
            else:
                result = result + OracleExpr({name: coeff})
        return result

    def rename(self, mapping: Mapping[str, str]) -> "OracleExpr":
        coeffs: Dict[str, Fraction] = {}
        for name, coeff in self._coeffs.items():
            new = mapping.get(name, name)
            coeffs[new] = coeffs.get(new, Fraction(0)) + coeff
        return OracleExpr(coeffs, self._constant)

    # -- equality / hashing / display -----------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OracleExpr):
            return NotImplemented
        return self._coeffs == other._coeffs and self._constant == other._constant

    def __hash__(self) -> int:
        return hash((frozenset(self._coeffs.items()), self._constant))

    def __str__(self) -> str:
        parts: List[str] = []
        for name in sorted(self._coeffs):
            coeff = self._coeffs[name]
            if coeff == 1:
                parts.append(f"+ {name}")
            elif coeff == -1:
                parts.append(f"- {name}")
            elif coeff > 0:
                parts.append(f"+ {coeff}*{name}")
            else:
                parts.append(f"- {-coeff}*{name}")
        if self._constant != 0 or not parts:
            if self._constant >= 0:
                parts.append(f"+ {self._constant}")
            else:
                parts.append(f"- {-self._constant}")
        text = " ".join(parts)
        if text.startswith("+ "):
            text = text[2:]
        return text


def normalise(expr: OracleExpr, is_equality: bool) -> OracleExpr:
    """``Constraint._normalise``: coprime integers, equalities with a positive leading term."""
    coeffs = expr.coefficients
    constant = expr.constant
    denominators = [c.denominator for c in coeffs.values()] + [constant.denominator]
    scale = Fraction(lcm_many(denominators))
    coeffs = {k: v * scale for k, v in coeffs.items()}
    constant = constant * scale
    numerators = [abs(int(c)) for c in coeffs.values()] + [abs(int(constant))]
    divisor = gcd_many(numerators)
    if divisor > 1:
        coeffs = {k: v / divisor for k, v in coeffs.items()}
        constant = constant / divisor
    # Canonical sign for equalities: first non-zero coefficient positive.
    if is_equality:
        ordered = sorted(coeffs)
        flip = False
        for name in ordered:
            if coeffs[name] != 0:
                flip = coeffs[name] < 0
                break
        else:
            flip = constant < 0
        if flip:
            coeffs = {k: -v for k, v in coeffs.items()}
            constant = -constant
    return OracleExpr(coeffs, constant)


def normal_row(expr: OracleExpr, names: Tuple[str, ...]) -> Tuple[Tuple[int, ...], int]:
    """The integer row a normalised expression is over the sorted *names*."""
    coeffs = expr.coefficients
    return tuple(int(coeffs.get(name, 0)) for name in names), int(expr.constant)
