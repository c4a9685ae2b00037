"""One lowering of a mapped program to integer loop code, for every printer.

The paper's scanner (CLooG, §3.1.3) turns the mapped program into one loop
AST, which is then printed as CUDA.  Here :class:`Lowering` walks a program's
loop AST and makes every decision that is not spelling; a :class:`Printer`
only writes down what it is handed.  The scalar Python
(:mod:`~repro.codegen.emit_py`), numpy (:mod:`~repro.codegen.emit_py_vec`)
and C harness (:mod:`~repro.codegen.emit_c_exec`) printers never see an
``AffineExpr`` or a ``Constraint``:

* **Integer forms.**  Every bound, index, affine value and symbol definition
  reaches the printer as a :data:`Form` ``(D, ((name, c), ...), c0)``, the
  expression ``(sum c*name + c0) / D`` with ``D > 0``; a loop bound as its
  ``min``/``max`` kind and one form per expression.  The printer rounds in
  integers — a lower bound up, an upper bound down (the interpreter's
  ``ceil_at``/``floor_at``), pushed inside ``min``/``max`` because rounding
  is monotone — and truncates a non-integral array index toward zero (the
  interpreter's ``truncate_at``).
* **No test the enclosing loops already decide.**  While descending the AST
  the walker keeps the constraints in force — ``it >= e`` / ``it <= e`` for
  every expression of each enclosing loop's bounds (rounding only tightens
  them) and the conjuncts of enclosing guards — and drops a guard or domain
  conjunct ``c`` when ``facts ∧ ¬c`` has no rational solution
  (:meth:`Lowering.implied`): no rational point means no integer point, so the
  test could never fail.  Equalities are never dropped.  When nothing remains
  there is no ``if`` at all, in any printer.
* **Symbol scoping.**  A derived symbol is defined right after the loop
  header that brings the last variable it reads into scope.
* **Vector loops** (printers with ``vector = True``).  An eligible innermost
  loop becomes one numpy statement over its whole range ``lo .. hi``.  What
  the loop's bounds and the enclosing facts imply is dropped; the rest is a
  scalar ``if`` (conjuncts without the iterator) and a boolean mask (those
  with it).  An elementwise statement (some lhs index mentions the iterator,
  with a nonzero integer coefficient, hence injectively) becomes one array
  assignment; a reduction whose lhs does not mention it becomes one numpy
  reduction.  The iterator becomes **basic slices** ``c*lo + r : c*hi + r +
  1 : c*step`` only when no mask is left, every index ``c*it + r`` has
  ``c > 0`` and sits alone in its load, the rhs does not read the iterator
  as a value, and ``0 <= index <= extent - 1`` is *proven* for each — a numpy
  slice silently clips (and a negative start counts from the end) where an
  index array raises or wraps.  Otherwise the iterator is an ``arange``
  index array.  A loop is eligible only when the rewrite is provably the
  sequential loop: its body is one statement (under blocks and guards, sync
  points aside), no derived symbol depends on the iterator, every index and
  affine value over the iterator has integer coefficients, the rhs has no
  calls, and the rhs reads the lhs array only at the lhs's own indices
  (elementwise) or not at all (reduction).
"""

from __future__ import annotations

import contextlib
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.ir.ast import BlockNode, BoundValue, GuardNode, LoopNode, Node, StatementNode, SyncNode
from repro.ir.expressions import AffineValue, BinOp, Call, Const, Expr, Iter, Load
from repro.ir.program import Program
from repro.ir.statements import Statement
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.fourier_motzkin import is_rationally_infeasible
from repro.polyhedral.parametric import QuasiAffineBound

#: Bumped when the emitted code changes speed class, not merely text: wall
#: times measured on it are a different distribution, and ``measure-py:`` and
#: ``measure-c:`` fold this into their cache identity so stored reports from
#: another revision are never served.  2 = integer bounds, pruned guards,
#: proven slices.
LOWERING_REVISION = 2

#: ``(D, ((name, c), ...), c0)``, all ints, ``D > 0``: ``(sum c*name + c0) / D``
Form = Tuple[int, Tuple[Tuple[str, int], ...], int]
#: a loop bound: ``"min"``/``"max"`` (``""`` for a plain expression), one form each
Bound = Tuple[str, Tuple[Form, ...]]
#: a guard conjunct ``form >= 0``, or ``form == 0`` when the flag is set (``D == 1``)
Conjunct = Tuple[Form, bool]

#: the sliced loop's integer range, as the variables the slices are written in
_LOW, _HIGH = AffineExpr.var("_lo"), AffineExpr.var("_hi")


class Printer:
    """Spelling only: writes the integer forms a :class:`Lowering` hands it.

    Statement methods (``loop``, ``guard``, ``define``, ``assign``, ``close``)
    append to ``lines`` at ``depth``; expression methods (``bound``,
    ``index``, ``value``, ``load``, ``call``, ...) return text.  A ``vector``
    printer also spells the walker's numpy loops (``slice``, ``vector_loop``,
    ``vector_assign``).
    """

    vector = False
    #: an empty block, a ``SyncNode`` (formatted with its scope)
    EMPTY = "pass"
    SYNC = "pass  # sync({})"
    #: ``TRUNCATE(N, D)``: an index ``N / D`` truncated toward zero
    TRUNCATE = "_idx"
    #: intrinsics spelled differently from their IR name
    CALLS: Dict[str, str] = {}

    def __init__(self) -> None:
        self.lines: List[str] = []

    def emit(self, line: str, depth: int) -> None:
        self.lines.append(f"{'    ' * depth}{line}")

    def close(self, depth: int) -> None:
        """End the block a ``loop`` or ``guard`` opened (indentation alone in Python)."""

    @staticmethod
    def linear(terms: Iterable[Tuple[str, int]], constant: int) -> str:
        """``sum c*name + constant`` in integers, terms sorted by name."""
        text = ""
        for name, coeff in sorted(terms):
            term = name if abs(coeff) == 1 else f"{abs(coeff)}*{name}"
            if text:
                text += f" {'-' if coeff < 0 else '+'} {term}"
            else:
                text = f"-{term}" if coeff < 0 else term
        if not text:
            return str(constant)
        if constant:
            text += f" {'-' if constant < 0 else '+'} {abs(constant)}"
        return text

    def index(self, form: Form) -> str:
        denominator, terms, constant = form
        text = self.linear(terms, constant)
        return text if denominator == 1 else f"{self.TRUNCATE}({text}, {denominator})"

    def conjunct(self, conjunct: Conjunct) -> str:
        (_denominator, terms, constant), is_equality = conjunct
        return f"{self.linear(terms, constant)} {'==' if is_equality else '>='} 0"

    def call(self, func: str, args: Sequence[str]) -> str:
        return f"{self.CALLS.get(func, func)}({', '.join(args)})"

    def const(self, value: object) -> str:
        return repr(float(value))

    def binop(self, op: str, lhs: str, rhs: str) -> str:
        return f"({lhs} {op} {rhs})"


def _bound_exprs(value: BoundValue) -> Tuple[AffineExpr, ...]:
    if isinstance(value, QuasiAffineBound):
        return value.exprs
    if isinstance(value, (int, AffineExpr)):
        return (AffineExpr.coerce(value),)
    raise TypeError(f"unsupported bound type {type(value).__name__}")


def _bound(value: BoundValue) -> Bound:
    kind = value.kind if isinstance(value, QuasiAffineBound) else ""
    return kind, tuple(expr.int_form() for expr in _bound_exprs(value))


def _conjuncts(constraints: Iterable[Constraint]) -> List[Conjunct]:
    # a Constraint is normalised to coprime integer coefficients: D == 1
    return [(c.expr.int_form(), c.is_equality) for c in constraints]


def _free_variables(definition: object) -> Set[str]:
    """Variables a derived-symbol definition reads."""
    if isinstance(definition, (QuasiAffineBound, AffineExpr)):
        return {v for e in _bound_exprs(definition) for v in e.variables}
    raise TypeError(f"unsupported symbol definition type {type(definition).__name__}")


def loop_facts(node: LoopNode) -> List[Constraint]:
    """What holds for every value the loop's iterator takes.

    ``it >= e`` for each expression of a ``max`` lower bound and ``it <= e``
    for each expression of a ``min`` upper bound: the emitted bound is their
    rounded max/min, and rounding only tightens.  A bound combined the other
    way round (``min`` as a lower bound) promises nothing about any single
    expression, and an expression over the iterator itself speaks of another
    variable of that name, so neither contributes a fact.
    """
    facts: List[Constraint] = []
    for value, kind, sign in ((node.lower, "max", 1), (node.upper, "min", -1)):
        exprs = _bound_exprs(value)
        if len(exprs) > 1 and value.kind != kind:
            continue
        for expr in exprs:
            if node.iterator in expr.variables:
                continue
            # sign * (D*it - N) >= 0 for e = N/D: D is the least common
            # denominator, so the row is coprime — already in normal form
            denominator, terms, constant = expr.int_form()
            row = {name: -sign * coeff for name, coeff in terms}
            row[node.iterator] = sign * denominator
            names = sorted(row)
            coeffs = [row[name] for name in names]
            facts.append(Constraint.from_normal_row(names, coeffs, -sign * constant, False))
    return facts


# -- vector eligibility ------------------------------------------------------------------
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


def _unwrap_single_statement(node: Node) -> Optional[Tuple[StatementNode, List[Constraint]]]:
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


#: a proven-safe innermost-loop rewrite: the statement, every guard and domain
#: conjunct between it and the loop, and whether its lhs moves with the loop
_VectorPlan = Tuple[Statement, List[Constraint], bool]


class Lowering:
    """One walk of ``program`` into ``printer``; one FM memo per walk (per module)."""

    def __init__(self, program: Program, printer: Printer, check_domains: bool = True) -> None:
        self.program = program
        self.printer = printer
        self.check_domains = check_domains
        self.symbol_definitions = dict(program.symbol_definitions or {})
        self._emitted_symbols: List[Set[str]] = [set()]
        #: what every integer point reaching the current node satisfies, each
        #: fact with its variables and its number in ``_numbering``
        self._facts: List[Tuple[Constraint, FrozenSet[str], int]] = []
        #: constraint -> small int, so implication questions hash ints, not fractions
        self._numbering: Dict[Constraint, int] = {}
        #: (conjunct, the facts it was tested against) -> implied?
        self._implications: Dict[Tuple[int, FrozenSet[int]], bool] = {}
        #: (iterator, step) while a sliced vector loop's statement is printed
        self._slicing: Optional[Tuple[str, int]] = None

    def lower(self, names: Set[str], depth: int) -> None:
        """Print the derived symbols and the body at ``depth``, ``names`` in scope."""
        self._define_symbols(names, depth)
        self.walk(self.program.body, depth, names | self._emitted_symbols[-1])

    # -- symbols -------------------------------------------------------------------------
    def _define_symbols(self, bound: Set[str], depth: int) -> None:
        """Define derived symbols whose free variables are all in scope."""
        already = set().union(*self._emitted_symbols)
        for name, definition in self.symbol_definitions.items():
            if name in already or not _free_variables(definition) <= bound:
                continue
            if isinstance(definition, QuasiAffineBound):
                code = self.printer.bound(_bound(definition), definition.kind == "max")
            else:
                code = self.printer.index(definition.int_form())
            self.printer.define(name, code, depth)
            self._emitted_symbols[-1].add(name)

    # -- pruning -------------------------------------------------------------------------
    def _number(self, constraint: Constraint) -> int:
        return self._numbering.setdefault(constraint, len(self._numbering))

    @contextlib.contextmanager
    def _assuming(self, facts: Iterable[Constraint]) -> Iterator[None]:
        """Keep ``facts`` in force while the enclosed subtree is printed."""
        outer = len(self._facts)
        self._facts.extend(
            (fact, frozenset(fact.variables), self._number(fact)) for fact in facts
        )
        try:
            yield
        finally:
            del self._facts[outer:]

    def implied(self, constraint: Constraint) -> bool:
        """Whether no integer point satisfying the facts in force violates ``constraint``.

        Exact: the integer negation ``-e - 1 >= 0`` joined to the facts is
        handed to Fourier–Motzkin, and only a rationally infeasible system —
        which has no integer point either — counts.  Facts that share no
        variable with the conjunct, even transitively, cannot take part in a
        refutation and are left out; derived symbols are plain unconstrained
        variables here.  A conjunct that literally is a fact needs no
        elimination, and each distinct question is answered once per module
        (the copy-in and copy-out nests ask the same ones).
        """
        if constraint.is_equality:
            return False
        number = self._number(constraint)
        variables = set(constraint.variables)
        relevant: List[Constraint] = []
        numbers: List[int] = []
        pending, grew = self._facts, True
        while grew:
            unrelated = []
            for entry in pending:
                fact, names, fact_number = entry
                if fact_number == number:
                    return True
                if variables.isdisjoint(names):
                    unrelated.append(entry)
                else:
                    relevant.append(fact)
                    numbers.append(fact_number)
                    variables |= names
            grew = len(unrelated) < len(pending)
            pending = unrelated
        key = (number, frozenset(numbers))
        answer = self._implications.get(key)
        if answer is None:
            answer = self._implications[key] = is_rationally_infeasible(
                [*relevant, constraint.negate()]
            )
        return answer

    def _residual(self, constraints: Iterable[Constraint]) -> List[Constraint]:
        """The conjuncts that still need a run-time test."""
        return [c for c in constraints if not self.implied(c)]

    @contextlib.contextmanager
    def _if(self, conjuncts: Sequence[Constraint], depth: int) -> Iterator[int]:
        """An ``if`` over ``conjuncts`` unless there are none; yields the body's depth."""
        if not conjuncts:
            yield depth
            return
        self.printer.guard(_conjuncts(conjuncts), depth)
        yield depth + 1
        self.printer.close(depth)

    # -- the walk ------------------------------------------------------------------------
    def walk(self, node: Node, depth: int, bound: Set[str]) -> None:
        printer = self.printer
        if isinstance(node, BlockNode):
            if not node.body:
                printer.emit(printer.EMPTY, depth)
            for child in node.body:
                self.walk(child, depth, bound)
        elif isinstance(node, LoopNode):
            plan = self._vector_plan(node) if printer.vector else None
            if plan is not None:
                self._vector_loop(node, plan, depth)
                return
            printer.loop(node.iterator, _bound(node.lower), _bound(node.upper), node.step, depth)
            inner_bound = bound | {node.iterator}
            self._emitted_symbols.append(set())
            self._define_symbols(inner_bound, depth + 1)
            new_bound = inner_bound | self._emitted_symbols[-1]
            with self._assuming(loop_facts(node)):
                self.walk(node.body, depth + 1, new_bound)
            self._emitted_symbols.pop()
            printer.close(depth)
        elif isinstance(node, GuardNode):
            residual = self._residual(node.constraints)
            with self._if(residual, depth) as body_depth, self._assuming(node.constraints):
                self.walk(node.body, body_depth, bound)
        elif isinstance(node, StatementNode):
            statement = node.statement
            residual = (
                self._residual(statement.domain.constraints) if self.check_domains else []
            )
            with self._if(residual, depth) as body_depth:
                printer.assign(
                    statement.reduction,
                    self._load(statement.lhs),
                    self._expr(statement.rhs),
                    body_depth,
                )
        elif isinstance(node, SyncNode):
            printer.emit(printer.SYNC.format(node.scope), depth)
        else:
            raise TypeError(f"cannot emit node of type {type(node).__name__}")

    def _expr(self, expr: Expr) -> str:
        printer = self.printer
        if isinstance(expr, Const):
            return printer.const(expr.value)
        if isinstance(expr, Iter):
            return expr.name
        if isinstance(expr, AffineValue):
            return printer.value(expr.expr.int_form())
        if isinstance(expr, Load):
            return self._load(expr)
        if isinstance(expr, BinOp):
            return printer.binop(expr.op, self._expr(expr.lhs), self._expr(expr.rhs))
        if isinstance(expr, Call):
            return printer.call(expr.func, [self._expr(a) for a in expr.args])
        raise TypeError(f"cannot emit expression of type {type(expr).__name__}")

    def _load(self, load: Load) -> str:
        return self.printer.load(load.array.name, [self._index(i) for i in load.indices])

    def _index(self, expr: AffineExpr) -> str:
        if self._slicing is None or self._slicing[0] not in expr.variables:
            return self.printer.index(expr.int_form())
        iterator, step = self._slicing
        start = expr.substitute({iterator: _LOW}).int_form()
        denominator, terms, constant = expr.substitute({iterator: _HIGH}).int_form()
        stride = int(expr.coefficient(iterator)) * step
        return self.printer.slice(start, (denominator, terms, constant + denominator), stride)

    # -- vector loops --------------------------------------------------------------------
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
            if statement.reduction is None:
                return None  # plain overwrite in a reduced dim: order-dependent
            if not _mentions(statement.rhs, iterator):
                return None  # rhs would collapse to a scalar; keep the loop
            if any(
                load.array.name == lhs.array.name for load in statement.rhs.loads()
            ):
                return None
        return statement, constraints, elementwise

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

    def _vector_loop(self, node: LoopNode, plan: _VectorPlan, depth: int) -> None:
        iterator = node.iterator
        statement, constraints, elementwise = plan
        with self._assuming(loop_facts(node)):
            residual = self._residual(constraints)
            mask = [c for c in residual if iterator in c.variables]
            sliced = not mask and self._slices_proven(statement, iterator)
        with self._if([c for c in residual if c not in mask], depth) as depth:
            self.printer.vector_loop(
                iterator,
                _bound(node.lower),
                _bound(node.upper),
                node.step,
                None if sliced else _conjuncts(mask),
                depth,
            )
            self._slicing = (iterator, node.step) if sliced else None
            lhs, rhs = self._load(statement.lhs), self._expr(statement.rhs)
            self._slicing = None
            self.printer.vector_assign(statement.reduction, lhs, rhs, elementwise, depth + 1)
