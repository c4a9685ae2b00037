"""Emission of executable Python from loop-structure ASTs.

While the reference interpreter (:mod:`repro.runtime.interpreter`) is the
semantic oracle, it pays dispatch overhead per array access.  For larger
functional checks — and for the ``measure-py:`` backend, which *times* the
result — the code generator emits plain Python source instead: nested ``for``
loops indexing numpy arrays, compiled with ``exec``.  The emitted function has
the signature ``fn(arrays, params)`` where ``arrays`` maps array names to
numpy ndarrays and ``params`` maps parameter names to ints; it mutates the
arrays in place, exactly like the interpreter.

The emitter writes down what the polyhedral compiler already knows, the way a
polyhedral scanner (the paper's CLooG, §3.1.3) does:

* **Integer arithmetic, decided at emit time.**  An affine bound, index or
  guard whose coefficients are all integers is the plain integer expression
  (``min(32, iT + 8)``, ``l_A[i - ip, k - kp]``).  A rational one is put over
  its common denominator ``D`` and rounded in integers — ``(N) // D`` for an
  upper bound, ``-(-(N) // D)`` for a lower bound (the interpreter's
  ``floor_at``/``ceil_at``, the C harness's ``floord``/``ceild``), rounding
  pushed inside ``min``/``max`` because it is monotone — and a non-integral
  array index truncates toward zero through ``_idx(N, D)`` (the
  interpreter's ``truncate_at``).  The helper is only defined in modules that
  call it.
* **No test the enclosing loops already decide.**  While descending the AST
  the emitter keeps the constraints in force — ``it >= e`` / ``it <= e`` for
  every expression of each enclosing loop's bounds (rounding only tightens
  them) and the conjuncts of enclosing guards — and drops a guard or domain
  conjunct ``c`` when ``facts ∧ ¬c`` has no rational solution
  (:meth:`_Emitter.implied`): no rational point means no integer point, so the
  test could never fail.  Equalities are never dropped.  When nothing remains
  there is no ``if`` at all.
"""

from __future__ import annotations

import contextlib
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.ir.ast import (
    BlockNode,
    BoundValue,
    GuardNode,
    LoopNode,
    Node,
    StatementNode,
    SyncNode,
)
from repro.ir.expressions import AffineValue, BinOp, Call, Const, Expr, Iter, Load
from repro.ir.program import Program
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.fourier_motzkin import is_rationally_infeasible
from repro.polyhedral.parametric import QuasiAffineBound

_INDENT = "    "

#: Bumped when the emitted code changes speed class, not merely text: wall
#: times measured on it are a different distribution, and ``measure-py:``
#: folds this into its cache identity so stored reports from another revision
#: are never served.  2 = integer bounds, pruned guards, proven slices.
LOWERING_REVISION = 2

#: how one array index becomes text (the vectoriser substitutes slices)
IndexRenderer = Callable[[AffineExpr], str]

#: definitions a module needs only when its body calls them, keyed by the call
_HELPERS = {
    "_sqrt(": ("from math import sqrt as _sqrt",),
    "_idx(": (
        "",
        "def _idx(numerator, denominator):",
        "    quotient = abs(numerator) // denominator",
        "    return quotient if numerator >= 0 else -quotient",
    ),
}

#: intrinsics that are not Python builtins under their own name
_CALLS = {"sqrt": "_sqrt"}

#: the function combining old and new value of a scalar min/max reduction
_COMBINERS = {"min": "min", "max": "max"}


def _scaled_to_py(expr: AffineExpr, offset: int = 0) -> Tuple[str, int]:
    """``(N, D)``: an integer expression ``N`` and ``D > 0`` with ``expr + offset == N / D``."""
    denominator, terms, constant = expr.int_form()
    constant += offset * denominator
    text = ""
    for name, coeff in sorted(terms):
        term = name if abs(coeff) == 1 else f"{abs(coeff)}*{name}"
        if text:
            text += f" {'-' if coeff < 0 else '+'} {term}"
        else:
            text = f"-{term}" if coeff < 0 else term
    if not text:
        text = str(constant)
    elif constant:
        text += f" {'-' if constant < 0 else '+'} {abs(constant)}"
    return text, denominator


def _int_to_py(expr: AffineExpr, offset: int = 0) -> str:
    """``expr + offset`` for an expression known to be integral (constraints, slice ends)."""
    text, denominator = _scaled_to_py(expr, offset)
    if denominator != 1:
        raise ValueError(f"{expr} is not an integer expression")
    return text


def _index_to_py(expr: AffineExpr) -> str:
    text, denominator = _scaled_to_py(expr)
    return text if denominator == 1 else f"_idx({text}, {denominator})"


def _bound_exprs(value: BoundValue) -> Tuple[AffineExpr, ...]:
    if isinstance(value, QuasiAffineBound):
        return value.exprs
    if isinstance(value, (int, AffineExpr)):
        return (AffineExpr.coerce(value),)
    raise TypeError(f"unsupported bound type {type(value).__name__}")


def _bound_to_py(value: BoundValue, *, is_lower: bool, offset: int = 0) -> str:
    """The integer loop bound plus ``offset``: lower bounds round up, upper bounds down."""
    rounded = []
    for expr in _bound_exprs(value):
        # rounding commutes with adding an integer, so the offset goes inside
        text, denominator = _scaled_to_py(expr, offset)
        if denominator != 1:
            text = f"-(-({text}) // {denominator})" if is_lower else f"({text}) // {denominator}"
        rounded.append(text)
    if len(rounded) == 1:
        return rounded[0]
    return f"{value.kind}({', '.join(rounded)})"


def _constraint_to_py(constraint: Constraint) -> str:
    # a Constraint is normalised to coprime integer coefficients
    return f"{_int_to_py(constraint.expr)} {'==' if constraint.is_equality else '>='} 0"


def _expr_to_py(expr: Expr, index: IndexRenderer = _index_to_py) -> str:
    """The expression as Python text, array indices rendered by ``index``."""
    if isinstance(expr, Const):
        return repr(float(expr.value))
    if isinstance(expr, Iter):
        return expr.name
    if isinstance(expr, AffineValue):
        text, denominator = _scaled_to_py(expr.expr)
        return f"({text})" if denominator == 1 else f"(({text}) / {denominator})"
    if isinstance(expr, Load):
        return _load_to_py(expr, index)
    if isinstance(expr, BinOp):
        return f"({_expr_to_py(expr.lhs, index)} {expr.op} {_expr_to_py(expr.rhs, index)})"
    if isinstance(expr, Call):
        args = ", ".join(_expr_to_py(a, index) for a in expr.args)
        return f"{_CALLS.get(expr.func, expr.func)}({args})"
    raise TypeError(f"cannot emit expression of type {type(expr).__name__}")


def _load_to_py(load: Load, index: IndexRenderer = _index_to_py) -> str:
    return f"{load.array.name}[{', '.join(index(i) for i in load.indices)}]"


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
            facts.append(
                Constraint.from_normal_row(
                    names, [row[name] for name in names], -sign * constant, False
                )
            )
    return facts


class _Emitter:
    def __init__(self, program: Program, check_domains: bool) -> None:
        self.program = program
        self.check_domains = check_domains
        self.lines: List[str] = []
        self.symbol_definitions = dict(program.symbol_definitions or {})
        self._emitted_symbols: List[Set[str]] = [set()]
        #: what every integer point reaching the current node satisfies, each
        #: fact with its variables and its number in ``_numbering``
        self._facts: List[Tuple[Constraint, FrozenSet[str], int]] = []
        #: constraint -> small int, so implication questions hash ints, not fractions
        self._numbering: Dict[Constraint, int] = {}
        #: (conjunct, the facts it was tested against) -> implied?
        self._implications: Dict[Tuple[int, FrozenSet[int]], bool] = {}

    # -- helpers ---------------------------------------------------------------
    def emit(self, line: str, depth: int) -> None:
        self.lines.append(f"{_INDENT * depth}{line}")

    def _emit_symbols(self, bound: Set[str], depth: int) -> None:
        """Define derived symbols whose free variables are all in scope."""
        already = set().union(*self._emitted_symbols)
        for name, definition in self.symbol_definitions.items():
            if name in already or not _free_variables(definition) <= bound:
                continue
            if isinstance(definition, QuasiAffineBound):
                code = _bound_to_py(definition, is_lower=(definition.kind == "max"))
            else:
                code = _index_to_py(definition)
            self.emit(f"{name} = {code}", depth)
            self._emitted_symbols[-1].add(name)

    # -- pruning ---------------------------------------------------------------
    def _number(self, constraint: Constraint) -> int:
        return self._numbering.setdefault(constraint, len(self._numbering))

    @contextlib.contextmanager
    def _assuming(self, facts: Iterable[Constraint]) -> Iterator[None]:
        """Keep ``facts`` in force while the enclosed subtree is emitted."""
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

    def _emit_if(self, conjuncts: Sequence[Constraint], depth: int) -> int:
        """An ``if`` over ``conjuncts`` unless there are none; returns the body's depth."""
        if not conjuncts:
            return depth
        self.emit(f"if {' and '.join(_constraint_to_py(c) for c in conjuncts)}:", depth)
        return depth + 1

    # -- node emission ------------------------------------------------------------
    def emit_node(self, node: Node, depth: int, bound: Set[str]) -> None:
        if isinstance(node, BlockNode):
            if not node.body:
                self.emit("pass", depth)
                return
            for child in node.body:
                self.emit_node(child, depth, bound)
        elif isinstance(node, LoopNode):
            low = _bound_to_py(node.lower, is_lower=True)
            stop = _bound_to_py(node.upper, is_lower=False, offset=1)
            step = f", {node.step}" if node.step != 1 else ""
            self.emit(f"for {node.iterator} in range({low}, {stop}{step}):", depth)
            inner_bound = bound | {node.iterator}
            self._emitted_symbols.append(set())
            self._emit_symbols(inner_bound, depth + 1)
            new_bound = inner_bound | self._emitted_symbols[-1]
            with self._assuming(loop_facts(node)):
                self.emit_node(node.body, depth + 1, new_bound)
            self._emitted_symbols.pop()
        elif isinstance(node, GuardNode):
            body_depth = self._emit_if(self._residual(node.constraints), depth)
            with self._assuming(node.constraints):
                self.emit_node(node.body, body_depth, bound)
        elif isinstance(node, StatementNode):
            self._emit_statement(node, depth, bound)
        elif isinstance(node, SyncNode):
            self.emit(f"pass  # sync({node.scope})", depth)
        else:
            raise TypeError(f"cannot emit node of type {type(node).__name__}")

    def _emit_statement(self, node: StatementNode, depth: int, bound: Set[str]) -> None:
        statement = node.statement
        if self.check_domains:
            depth = self._emit_if(self._residual(statement.domain.constraints), depth)
        self._emit_assignment(
            statement.reduction,
            _load_to_py(statement.lhs),
            _expr_to_py(statement.rhs),
            depth,
        )

    def _emit_assignment(
        self,
        reduction: Optional[str],
        lhs: str,
        rhs: str,
        depth: int,
        combiners: Mapping[str, str] = _COMBINERS,
    ) -> None:
        """``lhs (op)= rhs``; ``combiners`` names the ``min``/``max`` function."""
        if reduction in ("+", "*"):
            self.emit(f"{lhs} {reduction}= {rhs}", depth)
        elif reduction in combiners:
            self.emit(f"{lhs} = {combiners[reduction]}({lhs}, {rhs})", depth)
        else:
            self.emit(f"{lhs} = {rhs}", depth)


def render_module(
    emitter: "_Emitter",
    program: Program,
    func_name: str,
    prelude: Sequence[str] = (),
) -> str:
    """Drive ``emitter`` over ``program`` into a complete module source.

    Shared by the scalar and the vectorised emitters so the module shape
    (helpers, parameter/array unpacking, symbol scoping) cannot drift apart;
    ``prelude`` prepends extra imports (the vectorised path's numpy).
    """
    emitter.emit(f"def {func_name}(arrays, params):", 0)
    bound: Set[str] = set()
    for param in program.params:
        emitter.emit(f"{param} = params[{param!r}]", 1)
        bound.add(param)
    for array in program.arrays.values():
        emitter.emit(f"{array.name} = arrays[{array.name!r}]", 1)
    emitter._emit_symbols(bound, 1)
    bound = bound | emitter._emitted_symbols[-1]
    if not program.body.body:
        emitter.emit("pass", 1)
    else:
        emitter.emit_node(program.body, 1, bound)
    body = "\n".join(emitter.lines)
    header = list(prelude)
    for call, definition in _HELPERS.items():
        if call in body:
            header.extend(definition)
    if header:
        header.append("")
    return "\n".join([*header, body]) + "\n"


def emit_python_source(
    program: Program, func_name: str = "kernel", check_domains: bool = True
) -> str:
    """Emit the program as Python source defining ``func_name(arrays, params)``."""
    return render_module(_Emitter(program, check_domains), program, func_name)


def compile_to_python(
    program: Program, check_domains: bool = True
) -> Callable[[Mapping[str, "object"], Mapping[str, int]], None]:
    """Compile the program into an executable Python function.

    The returned callable mutates the provided numpy arrays in place.
    """
    source = emit_python_source(program, "kernel", check_domains)
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<generated:{program.name}>", "exec"), namespace)
    return namespace["kernel"]  # type: ignore[return-value]
