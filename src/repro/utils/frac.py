"""Exact rational-arithmetic helpers for the API boundary.

The polyhedral layer computes on Python ints (expressions over a common
denominator, constraints as coprime rows); :class:`fractions.Fraction` is what
its typed accessors hand out and what callers may hand in.  These helpers
centralise that conversion — rejecting inexact data — and the ceil/floor
division code above the layer applies to the fractions it reads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def as_fraction(value: Union[int, float, str, Fraction]) -> Fraction:
    """Convert *value* to an exact :class:`Fraction`.

    Floats are accepted only when they are exactly representable as a ratio of
    small integers (``Fraction(value).limit_denominator`` is *not* applied); a
    float that carries rounding noise raises ``ValueError`` so that inexact
    data never silently enters the exact layer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("booleans are not valid rational values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value!r} cannot become a Fraction")
        frac = Fraction(value)
        if frac.denominator > 1_000_000:
            raise ValueError(
                f"float {value!r} does not look like an exact rational; "
                "pass a Fraction or an int instead"
            )
        return frac
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational number")


def fraction_floor(value: Rational) -> int:
    """Exact floor of a rational value, returned as ``int``."""
    frac = as_fraction(value)
    return frac.numerator // frac.denominator


def fraction_ceil(value: Rational) -> int:
    """Exact ceiling of a rational value, returned as ``int``."""
    frac = as_fraction(value)
    return -((-frac.numerator) // frac.denominator)
