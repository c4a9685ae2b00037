"""Builder DSL for constructing affine programs.

Example — the 1-D Jacobi sweep::

    b = ProgramBuilder("jacobi", params=["N"])
    N = b.param("N")
    A = b.array("A", (N + 2,))
    B = b.array("B", (N + 2,))
    i = b.var("i")
    with b.loop("i", 1, N):
        b.assign(B[i], (A[i - 1] + A[i] + A[i + 1]) / 3)
    program = b.build()

Loops nest via ``with`` blocks; each ``assign`` captures the current loop
stack as the statement's iteration domain and records the statement at the
current position of the loop-structure AST.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.ir.arrays import Array
from repro.ir.ast import BlockNode, LoopNode, StatementNode
from repro.ir.expressions import Expr, Load, as_expr
from repro.ir.program import Program
from repro.ir.statements import Statement
from repro.polyhedral.affine import AffineExpr, ExprLike
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.polyhedron import Polyhedron


class ProgramBuilder:
    """Incrementally builds a :class:`~repro.ir.program.Program`."""

    def __init__(self, name: str, params: Sequence[str] = ()) -> None:
        self._program = Program(name=name, params=tuple(params))
        self._loop_stack: List[LoopNode] = []
        self._block_stack: List[BlockNode] = [self._program.body]
        self._statement_counter = 0

    # -- declarations -------------------------------------------------------------
    def param(self, name: str) -> AffineExpr:
        """Reference a program parameter as an affine expression."""
        if name not in self._program.params:
            self._program.params = tuple(self._program.params) + (name,)
        return AffineExpr.var(name)

    def var(self, name: str) -> AffineExpr:
        """Reference a loop iterator as an affine expression."""
        return AffineExpr.var(name)

    def array(
        self,
        name: str,
        shape: Sequence[Union[int, AffineExpr]],
        dtype: str = "float32",
        memory: str = "global",
        element_size: int = 4,
    ) -> Array:
        """Declare an array and register it with the program."""
        array = Array(
            name=name,
            shape=tuple(shape),
            dtype=dtype,
            memory=memory,
            element_size=element_size,
        )
        return self._program.add_array(array)

    def set_default_params(self, **values: int) -> None:
        """Record default parameter values used by examples and tests."""
        self._program.default_params.update(values)

    # -- structure -----------------------------------------------------------------
    @contextlib.contextmanager
    def loop(
        self, iterator: str, lower: ExprLike, upper: ExprLike, step: int = 1
    ) -> Iterator[AffineExpr]:
        """Open a loop ``for iterator = lower .. upper``; yields the iterator expr."""
        for open_loop in self._loop_stack:
            if open_loop.iterator == iterator:
                raise ValueError(f"loop iterator {iterator!r} is already in scope")
        node = LoopNode(
            iterator=iterator,
            lower=_as_bound(lower),
            upper=_as_bound(upper),
            step=step,
        )
        self._block_stack[-1].append(node)
        self._loop_stack.append(node)
        self._block_stack.append(node.body)
        try:
            yield AffineExpr.var(iterator)
        finally:
            self._block_stack.pop()
            self._loop_stack.pop()

    def assign(
        self,
        lhs: Load,
        rhs: Union[Expr, int, float, AffineExpr],
        reduction: Optional[str] = None,
        name: Optional[str] = None,
    ) -> Statement:
        """Record the statement ``lhs = rhs`` (or ``lhs reduction= rhs``)."""
        if not isinstance(lhs, Load):
            raise TypeError("the left-hand side of an assignment must be an array access")
        statement = Statement(
            name=name or f"S{self._statement_counter}",
            domain=self._current_domain(),
            lhs=lhs,
            rhs=as_expr(rhs),
            reduction=reduction,
            textual_position=self._statement_counter,
        )
        self._statement_counter += 1
        self._program.add_statement(statement)
        self._block_stack[-1].append(StatementNode(statement))
        return statement

    # -- finalisation ---------------------------------------------------------------
    def build(self, validate: bool = True) -> Program:
        """Return the built program (validated by default)."""
        if validate:
            self._program.validate()
        return self._program

    # -- internals --------------------------------------------------------------------
    def _current_domain(self) -> Polyhedron:
        dims = [loop.iterator for loop in self._loop_stack]
        constraints = []
        for loop in self._loop_stack:
            iterator = AffineExpr.var(loop.iterator)
            constraints.append(Constraint.greater_equal(iterator, _bound_expr(loop.lower)))
            constraints.append(Constraint.less_equal(iterator, _bound_expr(loop.upper)))
        return Polyhedron(dims, constraints, self._program.params)


def _as_bound(value: ExprLike) -> Union[int, AffineExpr]:
    if isinstance(value, AffineExpr):
        return value
    return int(value)


def _bound_expr(value: Union[int, AffineExpr]) -> AffineExpr:
    return value if isinstance(value, AffineExpr) else AffineExpr.const(value)
