"""Vectorised (numpy-backed) emission of executable Python.

:func:`repro.codegen.emit_py.emit_python_source` lowers a mapped program to
scalar nested loops — semantically exact, but every innermost iteration pays
Python interpreter dispatch per array access, which dominates the wall time
the ``measure-py:`` backend exists to measure.  This emitter keeps the scalar
structure for the outer nest and rewrites each eligible **innermost** loop as
one numpy expression over the loop's whole range ``lo .. hi``:

* guard/domain conjuncts the enclosing loops *and the loop's own bounds*
  imply are dropped (the scalar emitter's exact Fourier–Motzkin test); what
  is left is a scalar ``if`` (conjuncts not mentioning the iterator) and a
  boolean mask (those that do);
* an elementwise statement (some lhs index mentions the iterator — affine
  with a nonzero integer coefficient, hence injective) becomes one array
  assignment, a reduction whose lhs does *not* mention the iterator becomes
  ``lhs += float(_np.sum(vectorised rhs))`` (``prod``/``min``/``max``
  likewise);
* the iterator itself becomes **basic slices** ``c*lo + r : c*hi + r + 1 :
  c*step``, one per index ``c*it + r``, under ``if _hi >= _lo:`` — when no
  mask is left, every such index has ``c > 0`` and sits alone in its load,
  the rhs does not use the iterator as a value, and ``0 <= index <= extent -
  1`` is *proven* for each of them by the same implication test.  A numpy
  slice silently clips (and a negative start counts from the end) where an
  integer index array raises or wraps, so the proof replaces the run-time
  check instead of dropping it.  Otherwise the iterator is materialised as
  ``it = _np.arange(lo, hi + 1, step)``, masked, and used as an index array.

Eligibility is conservative — a loop is vectorised only when the rewrite is
provably equivalent to the sequential loop:

* the loop body (unwrapping blocks and guards, ignoring sync points) is
  exactly one statement, and no derived symbol definition depends on the
  iterator;
* every array index and affine value that mentions the iterator has integer
  coefficients, so integer numpy arithmetic is exact;
* the rhs contains no calls, and never reads the lhs array except at the
  lhs's own indices (elementwise case) — anything resembling a loop-carried
  dependence falls back to the scalar loop.

Everything ineligible — and, when numpy is not importable at emit time, the
whole program — falls back to the scalar emitter, so ``measure-py:`` keeps
working on minimal hosts (just slower).
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.ir.ast import (
    BlockNode,
    GuardNode,
    LoopNode,
    Node,
    StatementNode,
    SyncNode,
)
from repro.ir.expressions import AffineValue, BinOp, Call, Expr, Iter
from repro.ir.program import Program
from repro.ir.statements import Statement
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint

from repro.codegen.emit_py import (
    IndexRenderer,
    _bound_to_py,
    _constraint_to_py,
    _Emitter,
    _expr_to_py,
    _free_variables,
    _index_to_py,
    _int_to_py,
    _load_to_py,
    emit_python_source,
    loop_facts,
    render_module,
)

#: numpy reducers per reduction operator (Case B: scalar lhs)
_REDUCERS = {"+": "sum", "*": "prod", "min": "min", "max": "max"}

#: numpy elementwise combine per min/max reduction (Case A: vector lhs)
_ELEMENTWISE = {"min": "_np.minimum", "max": "_np.maximum"}

#: the sliced loop's integer range, as the variables the slices are written in
_LOW, _HIGH = AffineExpr.var("_lo"), AffineExpr.var("_hi")


def _is_integral(expr: AffineExpr) -> bool:
    """Whether every coefficient and the constant are whole numbers."""
    return expr.int_form()[0] == 1


def _subexprs(expr: Expr) -> Iterator[Expr]:
    yield expr
    if isinstance(expr, BinOp):
        yield from _subexprs(expr.lhs)
        yield from _subexprs(expr.rhs)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from _subexprs(arg)


def _uses_value(expr: Expr, iterator: str) -> bool:
    """Whether the iterator's *value* (not just an index built from it) is read."""
    return any(
        (isinstance(item, Iter) and item.name == iterator)
        or (isinstance(item, AffineValue) and iterator in item.expr.variables)
        for item in _subexprs(expr)
    )


def _mentions(expr: Expr, iterator: str) -> bool:
    return _uses_value(expr, iterator) or any(
        iterator in index.variables for load in expr.loads() for index in load.indices
    )


def _unwrap_single_statement(
    node: Node,
) -> Optional[Tuple[StatementNode, List[Constraint]]]:
    """The loop body as (one statement, accumulated guards), or ``None``."""
    guards: List[Constraint] = []
    current = node
    while True:
        if isinstance(current, BlockNode):
            real = [c for c in current.body if not isinstance(c, SyncNode)]
            if len(real) != 1:
                return None
            current = real[0]
        elif isinstance(current, GuardNode):
            guards.extend(current.constraints)
            current = current.body
        elif isinstance(current, StatementNode):
            return current, guards
        else:
            return None


class _VectorPlan(NamedTuple):
    """One proven-safe innermost-loop rewrite, ready to emit."""

    statement: Statement
    #: every guard and domain conjunct between the loop and the statement
    constraints: List[Constraint]
    elementwise: bool


def _slice_renderer(iterator: str, step: int) -> IndexRenderer:
    """Indices ``c*iterator + r`` as basic slices over the range ``_lo .. _hi``."""

    def render(expr: AffineExpr) -> str:
        if iterator not in expr.variables:
            return _index_to_py(expr)
        start = _int_to_py(expr.substitute({iterator: _LOW}))
        stop = _int_to_py(expr.substitute({iterator: _HIGH}), 1)
        stride = int(expr.coefficient(iterator)) * step
        return f"{start}:{stop}" + (f":{stride}" if stride != 1 else "")

    return render


class _VecEmitter(_Emitter):
    """The scalar emitter, with eligible innermost loops lowered to numpy."""

    def emit_node(self, node: Node, depth: int, bound: Set[str]) -> None:
        if isinstance(node, LoopNode):
            plan = self._vector_plan(node)
            if plan is not None:
                self._emit_vector_loop(node, plan, depth)
                return
        super().emit_node(node, depth, bound)

    # -- eligibility ---------------------------------------------------------------
    def _vector_plan(self, node: LoopNode) -> Optional[_VectorPlan]:
        iterator = node.iterator
        unwrapped = _unwrap_single_statement(node.body)
        if unwrapped is None:
            return None
        statement_node, constraints = unwrapped
        statement = statement_node.statement

        # a derived symbol depending on the iterator would need per-element
        # values — the scalar loop defines it per iteration, so bail
        emitted = set().union(*self._emitted_symbols)
        for name, definition in self.symbol_definitions.items():
            if name not in emitted and iterator in _free_variables(definition):
                return None

        if self.check_domains:
            constraints.extend(statement.domain.constraints)

        # every iterator-involving affine must be exact in int arithmetic
        loads = [statement.lhs, *statement.rhs.loads()]
        for load in loads:
            for index in load.indices:
                if iterator in index.variables and not _is_integral(index):
                    return None
        for item in _subexprs(statement.rhs):
            if isinstance(item, Call):
                return None  # min/max/abs on arrays need mapping; stay scalar
            if isinstance(item, AffineValue) and iterator in item.expr.variables:
                if not _is_integral(item.expr):
                    return None

        lhs = statement.lhs
        elementwise = any(iterator in index.variables for index in lhs.indices)
        if elementwise:
            # injective in the iterator (affine, nonzero integer coefficient),
            # so duplicate-index accumulation loss cannot occur; reading the
            # lhs array is only safe at exactly the written elements
            for load in statement.rhs.loads():
                if load.array.name == lhs.array.name and load.indices != lhs.indices:
                    return None
        else:
            if statement.reduction not in _REDUCERS:
                return None  # plain overwrite in a reduced dim: order-dependent
            if not _mentions(statement.rhs, iterator):
                return None  # rhs would collapse to a scalar; keep the loop
            if any(
                load.array.name == lhs.array.name for load in statement.rhs.loads()
            ):
                return None
        return _VectorPlan(statement, constraints, elementwise)

    def _slices_proven(self, statement: Statement, iterator: str) -> bool:
        """Whether basic slices may stand in for the iterator.

        Asked with the loop's own facts in force.  Each index ``c*it + r``
        must rise with the iterator, be the only one of its load to mention
        it (``A[i, i]`` is a diagonal, not a slice) and be proven inside
        ``[0, extent)``; the rhs must not need the iterator's values.
        """
        if _uses_value(statement.rhs, iterator):
            return False
        for load in (statement.lhs, *statement.rhs.loads()):
            moving = [
                (index, extent)
                for index, extent in zip(load.indices, load.array.shape)
                if iterator in index.variables
            ]
            if len(moving) > 1:
                return False
            for index, extent in moving:
                if index.coefficient(iterator) < 0:
                    return False
                in_bounds = (Constraint(index), Constraint(extent - 1 - index))
                if not all(self.implied(c) for c in in_bounds):
                    return False
        return True

    # -- emission ------------------------------------------------------------------
    def _emit_vector_loop(self, node: LoopNode, plan: _VectorPlan, depth: int) -> None:
        iterator = node.iterator
        statement = plan.statement
        with self._assuming(loop_facts(node)):
            residual = self._residual(plan.constraints)
            mask = [c for c in residual if iterator in c.variables]
            sliced = not mask and self._slices_proven(statement, iterator)
        depth = self._emit_if([c for c in residual if c not in mask], depth)

        low = _bound_to_py(node.lower, is_lower=True)
        if sliced:
            self.emit(f"_lo = {low}", depth)
            self.emit(f"_hi = {_bound_to_py(node.upper, is_lower=False)}", depth)
            self.emit("if _hi >= _lo:", depth)
            index = _slice_renderer(iterator, node.step)
        else:
            stop = _bound_to_py(node.upper, is_lower=False, offset=1)
            self.emit(f"{iterator} = _np.arange({low}, {stop}, {node.step})", depth)
            if mask:
                conjuncts = " & ".join(f"({_constraint_to_py(c)})" for c in mask)
                self.emit(f"{iterator} = {iterator}[{conjuncts}]", depth)
            self.emit(f"if {iterator}.size:", depth)
            # validated integral, so the index expression broadcasts as is
            index = _index_to_py

        lhs = _load_to_py(statement.lhs, index)
        rhs = _expr_to_py(statement.rhs, index)
        if plan.elementwise:
            self._emit_assignment(statement.reduction, lhs, rhs, depth + 1, _ELEMENTWISE)
        else:
            reduced = f"float(_np.{_REDUCERS[statement.reduction]}({rhs}))"
            self._emit_assignment(statement.reduction, lhs, reduced, depth + 1)


def emit_python_source_vectorized(
    program: Program, func_name: str = "kernel", check_domains: bool = True
) -> str:
    """Emit ``program`` with eligible innermost loops lowered to numpy.

    Behaviourally identical to :func:`~repro.codegen.emit_py.
    emit_python_source` (same ``func_name(arrays, params)`` contract, same
    in-place mutation) — only faster where vectorisation proved safe.  When
    numpy is not importable at emit time the scalar source is returned
    verbatim, so the artifact always runs.
    """
    try:
        import numpy  # noqa: F401 — presence probe only
    except ImportError:
        return emit_python_source(program, func_name, check_domains)
    emitter = _VecEmitter(program, check_domains)
    return render_module(
        emitter, program, func_name, prelude=("import numpy as _np",)
    )
