"""Executable expression trees for statement right-hand sides.

Statements in the IR carry a small expression language — constants, loop
iterators, affine array loads, arithmetic and a few intrinsic calls — which is
rich enough for the paper's kernels (motion estimation uses absolute
differences and accumulation, Jacobi uses weighted sums) while staying fully
analysable: every array access in a tree is an affine :class:`Load` that the
scratchpad framework can redirect to a local buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Sequence, Tuple, Union

from repro.polyhedral.affine import AffineExpr, ExprLike

Number = Union[int, float, Fraction]


class Expr:
    """Base class of all expression nodes.  Instances are immutable."""

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other) -> "BinOp":
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other) -> "BinOp":
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other) -> "BinOp":
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other) -> "BinOp":
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other) -> "BinOp":
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other) -> "BinOp":
        return BinOp("*", as_expr(other), self)

    def __truediv__(self, other) -> "BinOp":
        return BinOp("/", self, as_expr(other))

    def __rtruediv__(self, other) -> "BinOp":
        return BinOp("/", as_expr(other), self)

    def __neg__(self) -> "BinOp":
        return BinOp("-", Const(0), self)

    # -- analysis ------------------------------------------------------------
    def loads(self) -> List["Load"]:
        """All array loads in the tree, in evaluation order."""
        raise NotImplementedError

    def map_loads(self, transform: Callable[["Load"], "Expr"]) -> "Expr":
        """Rebuild the tree applying *transform* to every :class:`Load`."""
        raise NotImplementedError

    def rename_iters(self, mapping: Mapping[str, str]) -> "Expr":
        """Rename loop iterators / parameters appearing in the tree."""
        raise NotImplementedError

    def evaluate(self, env: "EvaluationEnv", binding: Mapping[str, int]) -> float:
        """Evaluate at a fully bound iteration point."""
        raise NotImplementedError


class EvaluationEnv:
    """Minimal protocol the interpreter provides to expression evaluation."""

    def read(self, array, indices: Tuple[int, ...]) -> float:  # pragma: no cover
        raise NotImplementedError


def as_expr(value: Union[Expr, Number, AffineExpr]) -> Expr:
    """Coerce numbers and affine expressions into expression nodes."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, AffineExpr):
        return AffineValue(value)
    if isinstance(value, (int, float, Fraction)):
        return Const(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as an expression")


@dataclass(frozen=True)
class Const(Expr):
    """A numeric literal."""

    value: Number

    def loads(self) -> List["Load"]:
        return []

    def map_loads(self, transform) -> "Expr":
        return self

    def rename_iters(self, mapping) -> "Expr":
        return self

    def evaluate(self, env, binding) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Iter(Expr):
    """The value of a loop iterator or parameter."""

    name: str

    def loads(self) -> List["Load"]:
        return []

    def map_loads(self, transform) -> "Expr":
        return self

    def rename_iters(self, mapping) -> "Expr":
        return Iter(mapping.get(self.name, self.name))

    def evaluate(self, env, binding) -> float:
        return float(binding[self.name])

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AffineValue(Expr):
    """An affine expression used as a value (e.g. ``A[i] = i + 2*N``)."""

    expr: AffineExpr

    def loads(self) -> List["Load"]:
        return []

    def map_loads(self, transform) -> "Expr":
        return self

    def rename_iters(self, mapping) -> "Expr":
        return AffineValue(self.expr.rename(mapping))

    def evaluate(self, env, binding) -> float:
        numerator, denominator = self.expr.evaluate_ratio(binding)
        return numerator / denominator

    def __str__(self) -> str:
        return f"({self.expr})"


@dataclass(frozen=True)
class Load(Expr):
    """An affine array access ``array[e1]...[en]`` used as a value.

    The same node type describes the left-hand side of assignments; whether a
    given occurrence is a read or a write is determined by its position in the
    owning :class:`~repro.ir.statements.Statement`.
    """

    array: "repro.ir.arrays.Array"  # noqa: F821
    indices: Tuple[AffineExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "indices", tuple(AffineExpr.coerce(i) for i in self.indices)
        )
        if len(self.indices) != self.array.ndim:
            raise ValueError(
                f"array {self.array.name} expects {self.array.ndim} indices, "
                f"got {len(self.indices)}"
            )

    def loads(self) -> List["Load"]:
        return [self]

    def map_loads(self, transform) -> "Expr":
        return transform(self)

    def rename_iters(self, mapping) -> "Expr":
        return Load(self.array, tuple(i.rename(mapping) for i in self.indices))

    def evaluate(self, env, binding) -> float:
        return env.read(self.array, self.index_point(binding))

    def index_point(self, binding: Mapping[str, int]) -> Tuple[int, ...]:
        """Concrete integer index tuple at a bound iteration point."""
        return tuple(index.truncate_at(binding) for index in self.indices)

    def __str__(self) -> str:
        idx = "][".join(str(i) for i in self.indices)
        return f"{self.array.name}[{idx}]"


_BINARY_OPS: Dict[str, Callable[[float, float], float]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary arithmetic operation."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPS:
            raise ValueError(f"unsupported binary operator {self.op!r}")

    def loads(self) -> List["Load"]:
        return self.lhs.loads() + self.rhs.loads()

    def map_loads(self, transform) -> "Expr":
        return BinOp(self.op, self.lhs.map_loads(transform), self.rhs.map_loads(transform))

    def rename_iters(self, mapping) -> "Expr":
        return BinOp(self.op, self.lhs.rename_iters(mapping), self.rhs.rename_iters(mapping))

    def evaluate(self, env, binding) -> float:
        return _BINARY_OPS[self.op](
            self.lhs.evaluate(env, binding), self.rhs.evaluate(env, binding)
        )

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


_INTRINSICS: Dict[str, Callable[..., float]] = {
    "abs": lambda x: abs(x),
    "min": lambda *xs: min(xs),
    "max": lambda *xs: max(xs),
    "sqrt": lambda x: math.sqrt(x),
}


@dataclass(frozen=True)
class Call(Expr):
    """An intrinsic call (``abs``, ``min``, ``max``, ``sqrt``)."""

    func: str
    args: Tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.func not in _INTRINSICS:
            raise ValueError(
                f"unsupported intrinsic {self.func!r}; "
                f"supported: {sorted(_INTRINSICS)}"
            )
        object.__setattr__(self, "args", tuple(as_expr(a) for a in self.args))

    def loads(self) -> List["Load"]:
        result: List[Load] = []
        for arg in self.args:
            result.extend(arg.loads())
        return result

    def map_loads(self, transform) -> "Expr":
        return Call(self.func, tuple(arg.map_loads(transform) for arg in self.args))

    def rename_iters(self, mapping) -> "Expr":
        return Call(self.func, tuple(arg.rename_iters(mapping) for arg in self.args))

    def evaluate(self, env, binding) -> float:
        return _INTRINSICS[self.func](*(arg.evaluate(env, binding) for arg in self.args))

    def __str__(self) -> str:
        args = ", ".join(str(arg) for arg in self.args)
        return f"{self.func}({args})"


def absolute(value) -> Call:
    """``abs(value)`` as an expression node."""
    return Call("abs", (as_expr(value),))


def minimum(*values) -> Call:
    """``min(values...)`` as an expression node."""
    return Call("min", tuple(as_expr(v) for v in values))


def maximum(*values) -> Call:
    """``max(values...)`` as an expression node."""
    return Call("max", tuple(as_expr(v) for v in values))
