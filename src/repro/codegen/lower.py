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
  them) and the conjuncts of enclosing guards — in a facts context
  (:class:`~repro.polyhedral.facts.Facts`, pushed and popped as the walk
  descends), and drops a guard or domain conjunct ``c`` when ``facts ∧ ¬c``
  has no rational solution (:meth:`Facts.implied
  <repro.polyhedral.facts.Facts.implied>`): no rational point means no
  integer point, so the test could never fail.  Equalities are never dropped
  (unless constant).  When nothing remains there is no ``if`` at all, in any
  printer.
* **Bounds.**  A ``max`` lower bound loses a term ``l_k`` when the facts
  imply ``l_j >= l_k`` for a term ``l_j`` it keeps, a ``min`` upper bound a
  term ``u_k`` when they imply ``u_j <= u_k`` (:meth:`Facts.never_loses
  <repro.polyhedral.facts.Facts.never_loses>`, the question the planner asks
  of its candidates too) — the term never decides the bound, as CLooG drops
  redundant bound terms.  The facts a loop contributes still come from all
  of its terms, each one a valid fact.
* **Point loops.**  When the pruned lower and upper bounds are one and the
  same form with ``D == 1``, the loop runs exactly once, at that value: no
  loop is printed, and the form is substituted for the iterator in every
  index, affine value, guard and symbol definition below it.  A rational
  form stays a loop (it runs zero times where the form is fractional), and
  so does a loop right under whose header a derived symbol is defined.
* **Symbol scoping.**  A derived symbol is defined right after the loop
  header that brings the last variable it reads into scope.
* **Vector loops** (printers with ``vector = True``).  An eligible innermost
  loop — innermost once point loops are seen through, so the thread loop
  around each thread's one point qualifies — becomes one numpy statement
  over its whole range ``lo .. hi``.  What the loop's bounds and the
  enclosing facts imply is dropped; the rest is a scalar ``if`` (conjuncts
  without the iterator) and a boolean mask (those with it).  An elementwise
  statement (some lhs index mentions the iterator, with a nonzero integer
  coefficient, hence injectively) becomes one array assignment; a reduction
  whose lhs does not mention it becomes one numpy reduction, and a ``+``
  reduction of the product of two operands that both move with the
  iterator a dot product.  The iterator becomes **basic slices** ``c*lo + r
  : c*hi + r + 1 : c*step`` only when no mask is left, every index ``c*it +
  r`` has ``c > 0`` and sits alone in its load, the rhs does not read the
  iterator as a value, and ``0 <= index <= extent - 1`` is *proven* for each
  — a numpy slice silently clips (and a negative start counts from the end)
  where an index array raises or wraps.  Otherwise the iterator is an
  ``arange`` index array.  A loop is eligible only when the rewrite is
  provably the sequential loop: its body is one statement (under blocks,
  guards and point loops, sync points aside), no derived symbol depends on
  the iterator or a point loop's, every index and affine value over the
  iterator has integer coefficients, the rhs has no calls, and the rhs reads
  the lhs array only at the lhs's own indices (elementwise) or not at all
  (reduction).  A block-parallel loop is never one, nor is a loop whose body
  holds a sync point: each block and each sync is counted.
* **Counters.**  Every executable module counts what each thread block
  does, as the terms of :data:`TERMS`.  The walker gives each distinct
  per-execution weight vector a slot (:attr:`Lowering.counters`): a compute
  statement adds one instance and its global and scratchpad accesses, a copy
  statement one element, the start of a copy occurrence
  (:func:`~repro.ir.ast.copy_waves`) and a sync point one each.  The printer
  adds the executions to ``_count[slot]``: one for a scalar statement, the
  range length or the mask's sum for a vector one.  ``_count`` is the list of
  the block whose block-parallel iterators are in scope (``()`` outside
  them); the module returns every block's list, and :func:`block_terms`
  weighs them into terms.  The C printer spells no counters.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace
from typing import (
    ContextManager, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.ir.ast import (
    BLOCK_PARALLEL, COPY_IN, COPY_OUT, BlockNode, BoundValue, GuardNode, LoopNode, Node,
    StatementNode, SyncNode, copy_waves,
)
from repro.ir.expressions import AffineValue, BinOp, Call, Const, Expr, Iter, Load
from repro.ir.program import Program
from repro.ir.statements import Statement
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.facts import Fact, Facts
from repro.polyhedral.parametric import QuasiAffineBound

#: Bumped when the emitted code changes speed class, not merely text: wall
#: times measured on it are a different distribution, and ``measure-py:`` and
#: ``measure-c:`` fold this into their cache identity so stored reports from
#: another revision are never served.  2 = integer bounds, pruned guards,
#: proven slices.  3 = pruned bounds, point loops substituted, dot reductions.
#: 4 = per-block counters (``measure-py:`` prices the counts, not the time).
LOWERING_REVISION = 4

#: what a counted run reports per block, in this order
TERMS = (
    "compute_instances",
    "global_accesses",
    "shared_accesses",
    "copy_in_elements",
    "copy_out_elements",
    "copy_occurrences",
    "syncs",
)
_OCCURRENCE = (0, 0, 0, 0, 0, 1, 0)
_SYNC = (0, 0, 0, 0, 0, 0, 1)

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
    ``reduce``, ``dot``, ``vector_assign``).
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

    def count(self, slot: int, amount: str, depth: int) -> None:
        """Add ``amount`` executions to counter ``slot`` of the current block (no-op here)."""

    def block(self, key: Sequence[str], depth: int) -> None:
        """Make the block ``key`` (its block iterators' values) the one counted (no-op here)."""

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


#: a proven-safe innermost-loop rewrite: the statement, its role, every guard and
#: domain conjunct between it and the loop, and whether its lhs moves with the loop
_VectorPlan = Tuple[Statement, str, List[Constraint], bool]


#: pruned bound terms, with the kind of the bound they came from
_Terms = Tuple[str, Tuple[AffineExpr, ...]]


def _weights(statement: Statement, kind: str) -> Tuple[int, ...]:
    """What one execution of the statement adds to each of :data:`TERMS`."""
    if kind == COPY_IN:
        return (0, 0, 0, 1, 0, 0, 0)
    if kind == COPY_OUT:
        return (0, 0, 0, 0, 1, 0, 0)
    loads = [*statement.read_loads(), statement.write_load()]
    shared = sum(load.array.is_local for load in loads)
    return (1, len(loads) - shared, shared, 0, 0, 0, 0)


def block_terms(
    blocks: Mapping[Tuple[int, ...], Sequence[int]], counters: Sequence[Tuple[int, ...]]
) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    """Each block's :data:`TERMS`, from a counted run's per-slot counts and the slot weights.

    A key that counted nothing (the code outside every block, or an outer
    block iterator's key between its inner blocks) is no block.
    """
    return {
        key: tuple(
            sum(count * weights[term] for count, weights in zip(counts, counters))
            for term in range(len(TERMS))
        )
        for key, counts in blocks.items()
        if any(counts)
    }


def _substitute(expr: Expr, values: Mapping[str, AffineExpr]) -> Expr:
    """``expr`` with each collapsed iterator replaced by its one value."""
    if isinstance(expr, Load):
        return Load(expr.array, tuple(index.substitute(values) for index in expr.indices))
    if isinstance(expr, AffineValue):
        return AffineValue(expr.expr.substitute(values))
    if isinstance(expr, Iter) and expr.name in values:
        return AffineValue(values[expr.name])
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _substitute(expr.lhs, values), _substitute(expr.rhs, values))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(_substitute(arg, values) for arg in expr.args))
    return expr


class Lowering:
    """One walk of ``program`` into ``printer``, with one facts context per walk (per module)."""

    def __init__(self, program: Program, printer: Printer, check_domains: bool = True) -> None:
        self.program = program
        self.printer = printer
        self.check_domains = check_domains
        self.symbol_definitions = dict(program.symbol_definitions or {})
        #: derived symbol -> the variables its definition reads
        self._symbol_reads = {
            name: _free_variables(definition)
            for name, definition in self.symbol_definitions.items()
        }
        self._emitted_symbols: List[Set[str]] = [set()]
        #: what every integer point reaching the current node satisfies
        self.facts = Facts()
        #: id(loop) -> its facts (a vector plan and the walk enter the same loops)
        self._loop_facts: Dict[int, List[Fact]] = {}
        #: (state, bound, kind) -> its pruned terms (a vector plan and the walk ask alike)
        self._prunings: Dict[Tuple[int, BoundValue, str], _Terms] = {}
        #: (iterator, step) while a sliced vector loop's statement is printed
        self._slicing: Optional[Tuple[str, int]] = None
        #: a collapsed point loop's iterator -> its one value, over the variables in scope
        self._values: Dict[str, AffineExpr] = {}
        #: per-execution weights of each counter slot, in slot order
        self.counters: Dict[Tuple[int, ...], int] = {}
        #: the enclosing block-parallel iterators' values, as printed
        self._block_key: List[str] = []
        #: where copy occurrences start, and whether the walk is inside a copy
        #: nest, where none starts
        self._waves = copy_waves(program.body)
        self._copying = False

    def lower(self, names: Set[str], depth: int) -> None:
        """Print the derived symbols and the body at ``depth``, ``names`` in scope."""
        self._define_symbols(names, depth)
        self.walk(self.program.body, depth, names | self._emitted_symbols[-1])

    # -- substitution --------------------------------------------------------------------
    def _form(self, expr: AffineExpr) -> Form:
        return (expr.substitute(self._values) if self._values else expr).int_form()

    def _bound(self, terms: _Terms) -> Bound:
        kind, exprs = terms
        return kind, tuple(self._form(expr) for expr in exprs)

    def _substituted(self, constraints: Iterable[Constraint]) -> List[Constraint]:
        values = self._values
        return [c.substitute(values) if c.involves(values) else c for c in constraints]

    def _substituted_statement(self, statement: Statement) -> Statement:
        if not self._values:
            return statement
        return replace(
            statement,
            lhs=_substitute(statement.lhs, self._values),
            rhs=_substitute(statement.rhs, self._values),
        )

    # -- symbols -------------------------------------------------------------------------
    def _define_symbols(self, bound: Set[str], depth: int) -> None:
        """Define derived symbols whose free variables are all in scope."""
        already = set().union(*self._emitted_symbols)
        for name, definition in self.symbol_definitions.items():
            if name in already or not self._symbol_reads[name] <= bound:
                continue
            if isinstance(definition, QuasiAffineBound):
                terms = (definition.kind, definition.exprs)
                code = self.printer.bound(self._bound(terms), definition.kind == "max")
            else:
                code = self.printer.index(self._form(definition))
            self.printer.define(name, code, depth)
            self._emitted_symbols[-1].add(name)

    def _pending_symbols(self, iterators: Set[str]) -> List[Set[str]]:
        """The free variables of each symbol not yet defined that reads one of ``iterators``."""
        if not self._symbol_reads:
            return []
        emitted = set().union(*self._emitted_symbols)
        return [
            free
            for name, free in self._symbol_reads.items()
            if name not in emitted and not free.isdisjoint(iterators)
        ]

    # -- pruning -------------------------------------------------------------------------
    def _inside(self, node: LoopNode) -> ContextManager[None]:
        """Keep the loop's facts in force while its body is printed."""
        entries = self._loop_facts.get(id(node))
        if entries is None:
            entries = self._loop_facts[id(node)] = self.facts.entries(loop_facts(node))
        return self.facts.assuming(entries)

    def _residual(self, constraints: Iterable[Constraint]) -> List[Constraint]:
        """The conjuncts that still need a run-time test."""
        return [c for c in constraints if not self.facts.implied(c)]

    def _pruned(self, value: BoundValue, kind: str) -> _Terms:
        """The bound's terms without those the facts in force show never decide it.

        Only a ``kind`` bound (``max`` below, ``min`` above) is pruned; a term
        is dropped when a term still kept provably dominates it, so of two
        terms that are always equal the later one stays.
        """
        exprs = _bound_exprs(value)
        bound_kind = value.kind if isinstance(value, QuasiAffineBound) else ""
        if len(exprs) < 2 or bound_kind != kind:
            return bound_kind, exprs
        key = (self.facts.state, value, kind)
        known = self._prunings.get(key)
        if known is None:
            kept = list(exprs)
            for term in exprs:
                # the innermost tile's term comes last and is the likeliest to decide
                others = [e for e in reversed(kept) if e is not term]
                if any(self.facts.never_loses(other, term, kind) for other in others):
                    kept.remove(term)
            known = self._prunings[key] = (bound_kind, tuple(kept))
        return known

    def _one_value(self, node: LoopNode, lower: _Terms, upper: _Terms) -> Optional[AffineExpr]:
        """The iterator's only value when both pruned bounds are one integral form.

        ``range(f, f + 1, step)`` runs once for any step; a form with a
        denominator would run zero times wherever it is not a whole number,
        so it stays a loop.
        """
        if len(lower[1]) != 1 or lower[1] != upper[1]:
            return None
        (value,) = lower[1]
        if not _is_integral(value) or node.iterator in value.variables:
            return None
        return value

    @contextlib.contextmanager
    def _if(self, conjuncts: Sequence[Constraint], depth: int) -> Iterator[int]:
        """An ``if`` over ``conjuncts`` unless there are none; yields the body's depth."""
        if not conjuncts:
            yield depth
            return
        self.printer.guard(_conjuncts(conjuncts), depth)
        yield depth + 1
        self.printer.close(depth)

    # -- counters ------------------------------------------------------------------------
    def _count(self, weights: Tuple[int, ...], amount: str, depth: int) -> None:
        slot = self.counters.setdefault(weights, len(self.counters))
        self.printer.count(slot, amount, depth)

    @contextlib.contextmanager
    def _block(self, node: LoopNode, depth: int) -> Iterator[None]:
        """Count a block-parallel loop's body, printed at ``depth``, as the block
        its iterators' values name (a point loop's value is substituted)."""
        if node.parallel != BLOCK_PARALLEL:
            yield
            return
        value = self._values.get(node.iterator)
        key = node.iterator if value is None else self.printer.index(value.int_form())
        self._block_key.append(key)
        self.printer.block(self._block_key, depth)
        try:
            yield
        finally:
            self._block_key.pop()

    def _copies(
        self, node: BlockNode, waves: Sequence[Tuple[Optional[str], bool]], depth: int,
        bound: Set[str],
    ) -> None:
        """The children, each copy occurrence counted where it starts."""
        for child, (kind, starts) in zip(node.body, waves):
            if kind is None:
                self.walk(child, depth, bound)
                continue
            if starts:
                self._count(_OCCURRENCE, "1", depth)
            self._copying = True
            try:
                self.walk(child, depth, bound)
            finally:
                self._copying = False

    # -- the walk ------------------------------------------------------------------------
    def walk(self, node: Node, depth: int, bound: Set[str]) -> None:
        printer = self.printer
        if isinstance(node, BlockNode):
            if not node.body:
                printer.emit(printer.EMPTY, depth)
            waves = self._waves.get(id(node))
            if waves is None or self._copying:
                for child in node.body:
                    self.walk(child, depth, bound)
            else:
                self._copies(node, waves, depth, bound)
        elif isinstance(node, LoopNode):
            lower, upper = self._pruned(node.lower, "max"), self._pruned(node.upper, "min")
            inner_bound = bound | {node.iterator}
            value = self._one_value(node, lower, upper)
            # a symbol defined right under the header keeps its loop (and C block)
            if value is not None and not any(
                free <= inner_bound for free in self._pending_symbols({node.iterator})
            ):
                self._collapsed(node, value, depth, inner_bound)
            else:
                self._loop(node, lower, upper, depth, inner_bound)
            if node.parallel == BLOCK_PARALLEL:
                printer.block(self._block_key, depth)
        elif isinstance(node, GuardNode):
            constraints = self._substituted(node.constraints)
            residual = self._residual(constraints)
            facts = self.facts.entries(constraints)
            with self._if(residual, depth) as body_depth, self.facts.assuming(facts):
                self.walk(node.body, body_depth, bound)
        elif isinstance(node, StatementNode):
            statement = self._substituted_statement(node.statement)
            residual = (
                self._residual(self._substituted(statement.domain.constraints))
                if self.check_domains
                else []
            )
            with self._if(residual, depth) as body_depth:
                printer.assign(
                    statement.reduction,
                    self._load(statement.lhs),
                    self._expr(statement.rhs),
                    body_depth,
                )
                self._count(_weights(statement, node.kind), "1", body_depth)
        elif isinstance(node, SyncNode):
            printer.emit(printer.SYNC.format(node.scope), depth)
            self._count(_SYNC, "1", depth)
        else:
            raise TypeError(f"cannot emit node of type {type(node).__name__}")

    def _loop(
        self, node: LoopNode, lower: _Terms, upper: _Terms, depth: int, bound: Set[str]
    ) -> None:
        printer = self.printer
        with self._inside(node):
            if (
                printer.vector
                and node.parallel != BLOCK_PARALLEL
                and self._vector_loop(node, lower, upper, depth)
            ):
                return
            printer.loop(node.iterator, self._bound(lower), self._bound(upper), node.step, depth)
            self._emitted_symbols.append(set())
            self._define_symbols(bound, depth + 1)
            with self._block(node, depth + 1):
                self.walk(node.body, depth + 1, bound | self._emitted_symbols[-1])
            self._emitted_symbols.pop()
        printer.close(depth)

    def _collapsed(self, node: LoopNode, value: AffineExpr, depth: int, bound: Set[str]) -> None:
        """A point loop prints no header: its iterator's one value is substituted below."""
        self._values[node.iterator] = value.substitute(self._values)
        try:
            with self._inside(node), self._block(node, depth):
                self.walk(node.body, depth, bound)
        finally:
            del self._values[node.iterator]

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
    def _vector_plan(self, node: LoopNode, stack: contextlib.ExitStack) -> Optional[_VectorPlan]:
        """The loop's one statement, substituted, if the numpy rewrite is proven.

        Called with the loop's facts in force.  Guards and point loops between
        the loop and the statement are seen through; each point loop's facts
        and value stay in force on ``stack`` for the caller.
        """
        iterator = node.iterator
        constraints: List[Constraint] = []
        points: Set[str] = set()
        current: Node = node.body
        while not isinstance(current, StatementNode):
            if isinstance(current, BlockNode):
                if len(current.body) != 1:
                    return None  # a sync point beside the statement runs per iteration
                current = current.body[0]
            elif isinstance(current, GuardNode):
                constraints.extend(self._substituted(current.constraints))
                current = current.body
            elif isinstance(current, LoopNode) and current.parallel != BLOCK_PARALLEL:
                value = self._one_value(
                    current, self._pruned(current.lower, "max"), self._pruned(current.upper, "min")
                )
                if value is None:
                    return None  # not innermost
                self._values[current.iterator] = value.substitute(self._values)
                stack.callback(self._values.pop, current.iterator)
                stack.enter_context(self._inside(current))
                points.add(current.iterator)
                current = current.body
            else:
                return None

        # a derived symbol depending on the iterator would need per-element
        # values — the scalar loop defines it per iteration, so bail
        if self._pending_symbols({iterator} | points):
            return None

        kind = current.kind
        statement = self._substituted_statement(current.statement)
        if self.check_domains:
            constraints.extend(self._substituted(statement.domain.constraints))

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
        return statement, kind, constraints, elementwise

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
                if not all(self.facts.implied(c) for c in in_bounds):
                    return False
        return True

    def _vector_loop(self, node: LoopNode, lower: _Terms, upper: _Terms, depth: int) -> bool:
        """Print the loop as one numpy statement if that is proven; ``False`` if not."""
        iterator = node.iterator
        with contextlib.ExitStack() as stack:
            plan = self._vector_plan(node, stack)
            if plan is None:
                return False
            statement, kind, constraints, elementwise = plan
            residual = self._residual(constraints)
            mask = [c for c in residual if iterator in c.variables]
            sliced = not mask and self._slices_proven(statement, iterator)
            printer = self.printer
            with self._if([c for c in residual if c not in mask], depth) as depth:
                printer.vector_loop(
                    iterator,
                    self._bound(lower),
                    self._bound(upper),
                    node.step,
                    None if sliced else _conjuncts(mask),
                    depth,
                )
                self._slicing = (iterator, node.step) if sliced else None
                lhs = self._load(statement.lhs)
                rhs = self._vector_rhs(statement, iterator, elementwise)
                self._slicing = None
                printer.vector_assign(statement.reduction, lhs, rhs, elementwise, depth + 1)
                amount = printer.vector_size(iterator, node.step, sliced)
                self._count(_weights(statement, kind), amount, depth + 1)
        return True

    def _vector_rhs(self, statement: Statement, iterator: str, elementwise: bool) -> str:
        """The rhs over the whole range; a reduction's reduced, a ``+`` of a product as a dot."""
        rhs, printer = statement.rhs, self.printer
        if elementwise:
            return self._expr(rhs)
        if (
            statement.reduction == "+"
            and isinstance(rhs, BinOp)
            and rhs.op == "*"
            and _mentions(rhs.lhs, iterator)
            and _mentions(rhs.rhs, iterator)
        ):
            return printer.dot(self._expr(rhs.lhs), self._expr(rhs.rhs))
        return printer.reduce(statement.reduction, self._expr(rhs))
