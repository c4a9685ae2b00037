"""Affine expressions and affine functions over named dimensions.

An :class:`AffineExpr` is a linear combination of named variables (loop
iterators and/or program parameters) plus a rational constant.  An
:class:`AffineFunction` maps an iteration vector to a data-space vector, one
:class:`AffineExpr` per output dimension — this is the paper's access-function
matrix ``F`` in a coefficient-dictionary form that keeps the code independent
of any particular variable ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, ItemsView, List, Mapping, Optional, Sequence, Tuple, Union

from repro.utils.frac import as_fraction, lcm_many
from repro.polyhedral import linalg

Number = Union[int, Fraction]
ExprLike = Union["AffineExpr", int, Fraction]


class AffineExpr:
    """An affine expression ``sum_i c_i * x_i + c0`` with exact coefficients.

    Instances are immutable; all arithmetic returns new expressions.
    """

    __slots__ = ("_coeffs", "_constant", "_int_form")

    def __init__(
        self,
        coeffs: Optional[Mapping[str, Number]] = None,
        constant: Number = 0,
    ) -> None:
        clean: Dict[str, Fraction] = {}
        for name, value in (coeffs or {}).items():
            frac = as_fraction(value)
            if frac != 0:
                clean[name] = frac
        self._coeffs = clean
        self._constant = as_fraction(constant)
        self._int_form = None

    # -- constructors -----------------------------------------------------
    @classmethod
    def var(cls, name: str) -> "AffineExpr":
        """The expression consisting of a single variable with coefficient 1."""
        return cls({name: 1})

    @classmethod
    def const(cls, value: Number) -> "AffineExpr":
        """A constant expression."""
        return cls({}, value)

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

    @classmethod
    def from_terms(cls, coeffs: Dict[str, Fraction], constant: Fraction) -> "AffineExpr":
        """Adopt *coeffs* as is: it must hold only non-zero ``Fraction`` values.

        The validating constructor converts and filters every entry; callers
        that already hold exact non-zero terms (the Fourier–Motzkin kernel
        turning integer rows back into expressions) skip that work here.
        """
        expr = object.__new__(cls)
        expr._coeffs = coeffs
        expr._constant = constant
        expr._int_form = None
        return expr

    # -- inspection --------------------------------------------------------
    @property
    def coefficients(self) -> Dict[str, Fraction]:
        """Copy of the variable→coefficient mapping (zero coefficients omitted)."""
        return dict(self._coeffs)

    def terms(self) -> ItemsView[str, Fraction]:
        """Read-only ``(variable, coefficient)`` view of the non-zero terms (no copy)."""
        return self._coeffs.items()

    @property
    def constant(self) -> Fraction:
        return self._constant

    @property
    def variables(self) -> Tuple[str, ...]:
        """Variables with non-zero coefficient, sorted for determinism."""
        return tuple(sorted(self._coeffs))

    def coefficient(self, name: str) -> Fraction:
        """Coefficient of *name* (0 if absent)."""
        return self._coeffs.get(name, Fraction(0))

    def is_constant(self) -> bool:
        return not self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs and self._constant == 0

    def depends_on(self, names: Iterable[str]) -> bool:
        """True if any of *names* appears with a non-zero coefficient."""
        return any(name in self._coeffs for name in names)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: ExprLike) -> "AffineExpr":
        other = AffineExpr.coerce(other)
        coeffs = dict(self._coeffs)
        for name, value in other._coeffs.items():
            coeffs[name] = coeffs.get(name, Fraction(0)) + value
        return AffineExpr(coeffs, self._constant + other._constant)

    def __radd__(self, other: ExprLike) -> "AffineExpr":
        return self.__add__(other)

    def __neg__(self) -> "AffineExpr":
        return AffineExpr({k: -v for k, v in self._coeffs.items()}, -self._constant)

    def __sub__(self, other: ExprLike) -> "AffineExpr":
        return self + (-AffineExpr.coerce(other))

    def __rsub__(self, other: ExprLike) -> "AffineExpr":
        return AffineExpr.coerce(other) + (-self)

    def __mul__(self, scalar: Number) -> "AffineExpr":
        factor = as_fraction(scalar)
        return AffineExpr(
            {k: v * factor for k, v in self._coeffs.items()}, self._constant * factor
        )

    def __rmul__(self, scalar: Number) -> "AffineExpr":
        return self.__mul__(scalar)

    def __truediv__(self, scalar: Number) -> "AffineExpr":
        factor = as_fraction(scalar)
        if factor == 0:
            raise ZeroDivisionError("division of an affine expression by zero")
        return self * (Fraction(1) / factor)

    # -- evaluation and substitution -----------------------------------------
    def int_form(self) -> Tuple[int, Tuple[Tuple[str, int], ...], int]:
        """``(d, ((name, c), ...), c0)``, all ints, ``d > 0``: the expression is
        ``(sum c * name + c0) / d``.  Built on first use and kept (instances
        are immutable); point evaluation runs on it instead of on ``Fraction``s.
        """
        form = self._int_form
        if form is None:
            scale = lcm_many(
                [c.denominator for c in self._coeffs.values()] + [self._constant.denominator]
            )
            form = self._int_form = (
                scale,
                tuple((name, int(c * scale)) for name, c in self._coeffs.items()),
                int(self._constant * scale),
            )
        return form

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
        denominator, terms, constant = self._int_form or self.int_form()
        total = constant * scale
        for name, coeff in terms:
            value = binding[name]
            if type(value) is not int:  # Fraction, float, bool, int subclass
                values, common = scaled_binding({n: binding[n] for n, _ in terms})
                return self.evaluate_ratio(values, scale * common)
            total += coeff * value
        return total, denominator * scale

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
        result = AffineExpr.const(self._constant)
        for name, coeff in self._coeffs.items():
            if name in binding:
                result = result + AffineExpr.coerce(binding[name]) * coeff
            else:
                result = result + AffineExpr({name: coeff})
        return result

    def rename(self, mapping: Mapping[str, str]) -> "AffineExpr":
        """Rename variables according to *mapping* (missing names unchanged)."""
        coeffs: Dict[str, Fraction] = {}
        for name, coeff in self._coeffs.items():
            new = mapping.get(name, name)
            coeffs[new] = coeffs.get(new, Fraction(0)) + coeff
        return AffineExpr(coeffs, self._constant)

    def coefficients_vector(self, order: Sequence[str]) -> List[Fraction]:
        """Coefficient vector in the given variable *order* (constant excluded)."""
        return [self.coefficient(name) for name in order]

    # -- equality / hashing / display -----------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self._coeffs == other._coeffs and self._constant == other._constant

    def __hash__(self) -> int:
        return hash((frozenset(self._coeffs.items()), self._constant))

    def __repr__(self) -> str:
        return f"AffineExpr({self})"

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


def scaled_binding(binding: Mapping[str, Number]) -> Tuple[Dict[str, int], int]:
    """``(ints, scale)`` with ``binding[name] == ints[name] / scale`` exactly.

    Values go through :func:`~repro.utils.frac.as_fraction` (bools and inexact
    floats are rejected) and are put over their common denominator, so one
    rational point prices any number of expressions in integer arithmetic
    (:meth:`AffineExpr.evaluate_ratio`).
    """
    exact = {name: as_fraction(value) for name, value in binding.items()}
    scale = lcm_many(value.denominator for value in exact.values())
    return (
        {name: value.numerator * (scale // value.denominator) for name, value in exact.items()},
        scale,
    )


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
    def input_dim(self) -> int:
        return len(self.inputs)

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

    def apply_exprs(self, exprs: Mapping[str, ExprLike]) -> Tuple[AffineExpr, ...]:
        """Symbolically substitute expressions for the inputs."""
        return tuple(expr.substitute(exprs) for expr in self.outputs)

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
