"""Affine expressions and affine functions over named dimensions.

An :class:`AffineExpr` is a linear combination of named variables (loop
iterators and/or program parameters) plus a rational constant.  An
:class:`AffineFunction` maps an iteration vector to a data-space vector, one
:class:`AffineExpr` per output dimension — this is the paper's access-function
matrix ``F`` in a coefficient-dictionary form that keeps the code independent
of any particular variable ordering.

What is stored: ``(sum c_i * x_i + c0) / d`` with ``d > 0`` and every ``c`` a
Python ``int``, in lowest terms — the integer row PolyLib-style tools compute
on.  Arithmetic, substitution, renaming, equality and the once-computed hash
run on those ints.  ``Fraction`` begins at the typed accessors — ``constant``,
``coefficient()``, ``coefficients``, ``terms()``, ``evaluate()`` — so whatever
a caller computes from their results (``x.constant / y``) is exact, never a
float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, ItemsView, List, Mapping, Optional, Sequence, Tuple, Union

from repro.utils.frac import as_fraction
from repro.polyhedral import linalg

Number = Union[int, Fraction]
ExprLike = Union["AffineExpr", int, Fraction]


def _ratio(value: Number) -> Tuple[int, int]:
    """``(numerator, denominator)`` of an exact value, denominator positive."""
    if type(value) is int:
        return value, 1
    exact = as_fraction(value)  # rejects bools and inexact floats
    return exact.numerator, exact.denominator


class AffineExpr:
    """An affine expression ``sum_i c_i * x_i + c0`` with exact coefficients.

    Instances are immutable; arithmetic returns new expressions (or the
    operand when nothing changes).  ``_den``, ``_coeffs`` (non-zero entries
    only) and ``_const`` hold the integer form; the sibling modules of
    :mod:`repro.polyhedral` read them, nothing above this package does.
    """

    __slots__ = ("_den", "_coeffs", "_const", "_hash")

    def __init__(
        self,
        coeffs: Optional[Mapping[str, Number]] = None,
        constant: Number = 0,
    ) -> None:
        constant, den = _ratio(constant)
        terms = [(name, *_ratio(value)) for name, value in (coeffs or {}).items()]
        # over the least common denominator the form is already in lowest terms
        scale = lcm(den, *(d for _, _, d in terms))
        self._den = scale
        self._coeffs = {name: n * (scale // d) for name, n, d in terms if n}
        self._const = constant * (scale // den)
        self._hash = None

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_terms(
        cls, coeffs: Dict[str, int], constant: int, denominator: int = 1
    ) -> "AffineExpr":
        """``(sum coeffs[x] * x + constant) / denominator``, adopted as is.

        The arguments must already be the stored form — ints, no zero
        coefficient, ``denominator > 0``, lowest terms — which is what the
        arithmetic below and the Fourier–Motzkin kernel hold; they skip the
        validating constructor's conversions here.
        """
        expr = object.__new__(cls)
        expr._den, expr._coeffs, expr._const, expr._hash = denominator, coeffs, constant, None
        return expr

    @classmethod
    def _lowest_terms(cls, coeffs: Dict[str, int], constant: int, den: int) -> "AffineExpr":
        """:meth:`from_terms` once *den* and the numerators share no factor."""
        common = gcd(den, constant, *coeffs.values()) if den != 1 else 1
        if common != 1:
            den, constant = den // common, constant // common
            coeffs = {name: value // common for name, value in coeffs.items()}
        return cls.from_terms(coeffs, constant, den)

    @classmethod
    def var(cls, name: str) -> "AffineExpr":
        """The expression consisting of a single variable with coefficient 1."""
        return cls.from_terms({name: 1}, 0)

    @classmethod
    def const(cls, value: Number) -> "AffineExpr":
        """A constant expression."""
        return cls.from_terms({}, *_ratio(value))

    @classmethod
    def coerce(cls, value: ExprLike) -> "AffineExpr":
        """Accept an expression, int or Fraction and return an AffineExpr."""
        if isinstance(value, AffineExpr):
            return value
        return cls.const(value)

    @classmethod
    def linear_combination(
        cls, names: Sequence[str], coefficients: Sequence[Number], constant: Number = 0
    ) -> "AffineExpr":
        """Build ``sum coefficients[i]*names[i] + constant``."""
        if len(names) != len(coefficients):
            raise ValueError("names and coefficients must have equal length")
        return cls(dict(zip(names, coefficients)), constant)

    # -- inspection: where ``Fraction`` begins ---------------------------------
    @property
    def coefficients(self) -> Dict[str, Fraction]:
        """Copy of the variable→coefficient mapping (zero coefficients omitted)."""
        den = self._den
        return {name: Fraction(value, den) for name, value in self._coeffs.items()}

    def terms(self) -> ItemsView[str, Fraction]:
        """``(variable, coefficient)`` view of the non-zero terms."""
        return self.coefficients.items()

    @property
    def constant(self) -> Fraction:
        return Fraction(self._const, self._den)

    @property
    def variables(self) -> Tuple[str, ...]:
        """Variables with non-zero coefficient, sorted for determinism."""
        return tuple(sorted(self._coeffs))

    def coefficient(self, name: str) -> Fraction:
        """Coefficient of *name* (0 if absent)."""
        return Fraction(self._coeffs.get(name, 0), self._den)

    def is_constant(self) -> bool:
        return not self._coeffs

    def depends_on(self, names: Iterable[str]) -> bool:
        """True if any of *names* appears with a non-zero coefficient."""
        return any(name in self._coeffs for name in names)

    # -- arithmetic ---------------------------------------------------------
    def _plus(self, other: ExprLike, sign: int) -> "AffineExpr":
        """``self + sign * other`` (``sign`` is 1 or -1)."""
        other = AffineExpr.coerce(other)
        den = lcm(self._den, other._den)
        mine, theirs = den // self._den, sign * (den // other._den)
        coeffs = {name: value * mine for name, value in self._coeffs.items()}
        # a name keeps its place while its coefficient stays non-zero
        for name, value in other._coeffs.items():
            total = coeffs.get(name, 0) + value * theirs
            if total:
                coeffs[name] = total
            else:
                del coeffs[name]
        return AffineExpr._lowest_terms(
            coeffs, self._const * mine + other._const * theirs, den
        )

    def _times(self, numerator: int, denominator: int) -> "AffineExpr":
        """``self * numerator / denominator`` (``denominator > 0``)."""
        if numerator == denominator:
            return self
        if not numerator:
            return AffineExpr.from_terms({}, 0)
        return AffineExpr._lowest_terms(
            {name: value * numerator for name, value in self._coeffs.items()},
            self._const * numerator,
            self._den * denominator,
        )

    def __add__(self, other: ExprLike) -> "AffineExpr":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return self._times(-1, 1)

    def __sub__(self, other: ExprLike) -> "AffineExpr":
        return self._plus(other, -1)

    def __rsub__(self, other: ExprLike) -> "AffineExpr":
        return (-self)._plus(other, 1)

    def __mul__(self, scalar: Number) -> "AffineExpr":
        return self._times(*_ratio(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: Number) -> "AffineExpr":
        numerator, denominator = _ratio(scalar)
        if not numerator:
            raise ZeroDivisionError("division of an affine expression by zero")
        sign = 1 if numerator > 0 else -1
        return self._times(sign * denominator, sign * numerator)

    # -- evaluation and substitution -----------------------------------------
    def int_form(self) -> Tuple[int, Tuple[Tuple[str, int], ...], int]:
        """``(d, ((name, c), ...), c0)``, all ints, ``d > 0``: the expression is
        ``(sum c * name + c0) / d`` in lowest terms — the stored form, as a tuple.
        """
        return self._den, tuple(self._coeffs.items()), self._const

    def evaluate_ratio(self, binding: Mapping[str, Number], scale: int = 1) -> Tuple[int, int]:
        """Exact value as ``(numerator, denominator)``, denominator positive, not reduced.

        Every variable ``x`` takes the value ``binding[x] / scale``.  With int
        values this is a pure-int dot product — callers that only need the
        sign, floor or ceiling read it off the pair and never build a
        ``Fraction``.  Other exact values (``Fraction``s, exact floats) are
        first scaled to ints over their common denominator; a caller pricing
        many expressions at one rational point does that scaling once itself
        (:func:`scaled_binding`) and passes the ints with their *scale*.
        """
        total = self._const * scale
        for name, coeff in self._coeffs.items():
            value = binding[name]
            if type(value) is not int:  # Fraction, float, bool, int subclass
                values, common = scaled_binding({n: binding[n] for n in self._coeffs})
                return self.evaluate_ratio(values, scale * common)
            total += coeff * value
        return total, self._den * scale

    def evaluate(self, binding: Mapping[str, Number]) -> Fraction:
        """Evaluate with every variable bound; raises ``KeyError`` otherwise."""
        return Fraction(*self.evaluate_ratio(binding))

    def floor_at(self, binding: Mapping[str, Number]) -> int:
        """Exact floor of the value at *binding*."""
        numerator, denominator = self.evaluate_ratio(binding)
        return numerator // denominator

    def ceil_at(self, binding: Mapping[str, Number]) -> int:
        """Exact ceiling of the value at *binding*."""
        numerator, denominator = self.evaluate_ratio(binding)
        return -(-numerator // denominator)

    def truncate_at(self, binding: Mapping[str, Number]) -> int:
        """The value at *binding* rounded toward zero: ``int(self.evaluate(binding))``."""
        numerator, denominator = self.evaluate_ratio(binding)
        if numerator >= 0:
            return numerator // denominator
        return -(-numerator // denominator)

    def substitute(self, binding: Mapping[str, ExprLike]) -> "AffineExpr":
        """Replace variables by expressions/values; unbound variables survive."""
        if not any(name in binding for name in self._coeffs):
            return self
        result = AffineExpr._lowest_terms({}, self._const, self._den)
        for name, coeff in self._coeffs.items():
            term = AffineExpr.coerce(binding[name]) if name in binding else AffineExpr.var(name)
            result = result + term._times(coeff, self._den)
        return result

    def rename(self, mapping: Mapping[str, str]) -> "AffineExpr":
        """Rename variables according to *mapping* (missing names unchanged)."""
        if not any(name in mapping for name in self._coeffs):
            return self
        coeffs: Dict[str, int] = {}
        for name, coeff in self._coeffs.items():
            new = mapping.get(name, name)
            coeffs[new] = coeffs.get(new, 0) + coeff
        return AffineExpr._lowest_terms(
            {name: value for name, value in coeffs.items() if value}, self._const, self._den
        )

    def coefficients_vector(self, order: Sequence[str]) -> List[Fraction]:
        """Coefficient vector in the given variable *order* (constant excluded)."""
        return [self.coefficient(name) for name in order]

    # -- equality / hashing / display -----------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return (self._den, self._const, self._coeffs) == (other._den, other._const, other._coeffs)

    def __hash__(self) -> int:
        if self._hash is None:  # immutable, so hashed once
            self._hash = hash((self._den, self._const, frozenset(self._coeffs.items())))
        return self._hash

    # str hashes differ between processes, so the kept hash must not travel
    def __getstate__(self) -> Tuple[int, Dict[str, int], int]:
        return self._den, self._coeffs, self._const

    def __setstate__(self, state: Tuple[int, Dict[str, int], int]) -> None:
        (self._den, self._coeffs, self._const), self._hash = state, None

    def __repr__(self) -> str:
        return f"AffineExpr({self})"

    def __str__(self) -> str:
        def show(value: int) -> str:
            common = gcd(value, self._den)
            if common == self._den:
                return str(value // common)
            return f"{value // common}/{self._den // common}"

        parts: List[str] = []
        for name in sorted(self._coeffs):
            coeff = self._coeffs[name]
            sign = "+" if coeff > 0 else "-"
            if abs(coeff) == self._den:
                parts.append(f"{sign} {name}")
            else:
                parts.append(f"{sign} {show(abs(coeff))}*{name}")
        if self._const != 0 or not parts:
            parts.append(f"{'+' if self._const >= 0 else '-'} {show(abs(self._const))}")
        text = " ".join(parts)
        if text.startswith("+ "):
            text = text[2:]
        return text


def scaled_binding(binding: Mapping[str, Number]) -> Tuple[Dict[str, int], int]:
    """``(ints, scale)`` with ``binding[name] == ints[name] / scale`` exactly.

    Values go through :func:`~repro.utils.frac.as_fraction` (bools and inexact
    floats are rejected) and are put over their common denominator, so one
    rational point prices any number of expressions in integer arithmetic
    (:meth:`AffineExpr.evaluate_ratio`).
    """
    exact = {name: _ratio(value) for name, value in binding.items()}
    scale = lcm(*(den for _, den in exact.values()))
    return {name: num * (scale // den) for name, (num, den) in exact.items()}, scale


@dataclass(frozen=True)
class AffineFunction:
    """An affine map from an iteration space to a data space.

    Attributes
    ----------
    inputs:
        Ordered names of the input (iteration-space) dimensions.
    outputs:
        One affine expression per output (data-space) dimension.  Expressions
        may also mention program parameters, which are *not* listed in
        ``inputs``.
    """

    inputs: Tuple[str, ...]
    outputs: Tuple[AffineExpr, ...]

    def __init__(self, inputs: Sequence[str], outputs: Sequence[ExprLike]) -> None:
        object.__setattr__(self, "inputs", tuple(inputs))
        object.__setattr__(
            self, "outputs", tuple(AffineExpr.coerce(expr) for expr in outputs)
        )

    # -- constructors ---------------------------------------------------------
    @classmethod
    def identity(cls, names: Sequence[str]) -> "AffineFunction":
        """The identity map on the given dimension names."""
        return cls(names, [AffineExpr.var(name) for name in names])

    @classmethod
    def from_matrix(
        cls,
        inputs: Sequence[str],
        matrix: Sequence[Sequence[Number]],
        constants: Optional[Sequence[Number]] = None,
        params: Sequence[str] = (),
        param_matrix: Optional[Sequence[Sequence[Number]]] = None,
    ) -> "AffineFunction":
        """Build from the paper's matrix form ``F . (i, p, 1)^T``.

        ``matrix`` holds the iterator coefficients (one row per output
        dimension), ``param_matrix`` the parameter coefficients and
        ``constants`` the affine constants.
        """
        rows = len(matrix)
        constants = list(constants) if constants is not None else [0] * rows
        outputs = []
        for r in range(rows):
            expr = AffineExpr.linear_combination(inputs, matrix[r], constants[r])
            if param_matrix is not None:
                expr = expr + AffineExpr.linear_combination(params, param_matrix[r])
            outputs.append(expr)
        return cls(inputs, outputs)

    # -- inspection -------------------------------------------------------------
    @property
    def output_dim(self) -> int:
        return len(self.outputs)

    @property
    def parameters(self) -> Tuple[str, ...]:
        """Names appearing in the outputs that are not input dimensions."""
        params = set()
        for expr in self.outputs:
            for name in expr.variables:
                if name not in self.inputs:
                    params.add(name)
        return tuple(sorted(params))

    def iterator_matrix(self) -> List[List[Fraction]]:
        """Coefficient matrix restricted to the input (iterator) dimensions."""
        return [expr.coefficients_vector(self.inputs) for expr in self.outputs]

    def rank(self) -> int:
        """Rank of the iterator-coefficient matrix.

        This is the quantity compared against the iteration-space
        dimensionality in the paper's reuse test (Algorithm 1, condition
        ``rank(F) < dim(i)``).
        """
        return linalg.matrix_rank(self.iterator_matrix())

    # -- application -------------------------------------------------------------
    def apply(self, binding: Mapping[str, Number]) -> Tuple[Fraction, ...]:
        """Apply the function to a fully bound point."""
        return tuple(expr.evaluate(binding) for expr in self.outputs)

    def compose(self, inner: "AffineFunction") -> "AffineFunction":
        """Return ``self ∘ inner`` (apply *inner* first)."""
        substitution = {
            name: inner.outputs[idx] for idx, name in enumerate(self.inputs)
            if idx < len(inner.outputs)
        }
        if len(self.inputs) > len(inner.outputs):
            raise ValueError(
                "cannot compose: inner function produces fewer outputs than "
                "outer function consumes"
            )
        outputs = [expr.substitute(substitution) for expr in self.outputs]
        return AffineFunction(inner.inputs, outputs)

    def rename_inputs(self, mapping: Mapping[str, str]) -> "AffineFunction":
        """Rename input dimensions (and their uses in the outputs)."""
        new_inputs = [mapping.get(name, name) for name in self.inputs]
        new_outputs = [expr.rename(mapping) for expr in self.outputs]
        return AffineFunction(new_inputs, new_outputs)

    def drop_output_dims(self, indices: Iterable[int]) -> "AffineFunction":
        """Remove the given output dimensions (paper's ``F'`` construction)."""
        drop = set(indices)
        outputs = [expr for i, expr in enumerate(self.outputs) if i not in drop]
        return AffineFunction(self.inputs, outputs)

    def translate(self, offsets: Sequence[ExprLike]) -> "AffineFunction":
        """Subtract *offsets* from each output (``F'(y) - g`` in the paper)."""
        if len(offsets) != len(self.outputs):
            raise ValueError("offset vector length must match output dimension")
        outputs = [
            expr - AffineExpr.coerce(offset)
            for expr, offset in zip(self.outputs, offsets)
        ]
        return AffineFunction(self.inputs, outputs)

    def __str__(self) -> str:
        inputs = ", ".join(self.inputs)
        outputs = ", ".join(str(expr) for expr in self.outputs)
        return f"({inputs}) -> ({outputs})"
