"""Emission of *compilable, runnable* C from loop-structure ASTs.

:func:`repro.codegen.emit_c.emit_c` renders programs as C-like text for
inspection (``forall_blocks``, ``__syncthreads()`` — the paper's figures).
This module instead emits a self-contained C99 translation unit that a host
toolchain can compile and *time* — the ``measure-c:`` evaluation backend's
artifact.  The harness contains

* the kernel body as plain sequential loops (parallel annotations drop to
  ordinary ``for`` — the transformations are only legal when sequential and
  parallel execution agree, exactly the interpreter's convention),
* deterministic seeded array initialisation (an LCG, so two hosts fill the
  same values without sharing numpy),
* a ``main`` that runs ``warmup`` unrecorded and ``repeat`` timed executions
  (``CLOCK_MONOTONIC``), re-initialising the arrays before each run, printing
  one wall-time-in-nanoseconds line per timed run, and

Every timing knob is an ``argv`` override — ``argv[1]`` warmup, ``argv[2]``
repeat, ``argv[3]`` the init seed — so the *source text* (and therefore the
compiled binary) depends only on the mapped program and its parameter
binding.  That is what makes the ``measure-c:`` compile cache effective:
candidates that differ only in timing knobs or input seed share one binary.
* a stderr checksum over every array so the optimiser cannot discard the
  kernel as dead code.

Loop bounds, guards and array indices mirror :mod:`repro.codegen.emit_py`
semantics **exactly**: like the Python emitter, this one scales each affine
form to a common integer denominator and rounds with exact integer
``floord``/``ceild``/``truncd`` helpers — never floating point, whose rounding
could disagree with the reference on fractional bounds like ``i/3``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.ir.ast import (
    BlockNode,
    GuardNode,
    LoopNode,
    Node,
    StatementNode,
    SyncNode,
)
from repro.ir.expressions import AffineValue, BinOp, Call, Const, Expr, Iter, Load
from repro.ir.program import Program
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.parametric import QuasiAffineBound

_INDENT = "    "

#: data-expression calls mapped onto libm (everything else passes through)
_CALL_MAP = {"min": "fmin", "max": "fmax", "abs": "fabs"}

_PRELUDE = """\
#include <stdio.h>
#include <stdlib.h>
#include <math.h>
#include <time.h>

/* exact rational rounding — must agree with Python Fraction semantics */
static long floord(long n, long d) {
    long q = n / d;
    return (n % d != 0 && ((n < 0) != (d < 0))) ? q - 1 : q;
}
static long ceild(long n, long d) { return -floord(-n, d); }
static long truncd(long n, long d) { return n / d; }  /* int(Fraction): toward zero */
static long lmin(long a, long b) { return a < b ? a : b; }
static long lmax(long a, long b) { return a > b ? a : b; }
"""


def _scaled(expr: AffineExpr) -> Tuple[str, int]:
    """Integer rendering of ``expr * D`` plus the common denominator ``D``."""
    denominator = int(Fraction(expr.constant).denominator)
    for name in expr.coefficients:
        denominator = math.lcm(denominator, Fraction(expr.coefficient(name)).denominator)
    terms: List[str] = []
    for name in sorted(expr.coefficients):
        coefficient = Fraction(expr.coefficient(name)) * denominator
        assert coefficient.denominator == 1
        terms.append(f"({int(coefficient)})*{name}")
    constant = Fraction(expr.constant) * denominator
    assert constant.denominator == 1
    if int(constant) != 0 or not terms:
        terms.append(f"({int(constant)})")
    return " + ".join(terms), denominator


def _rounded(expr: AffineExpr, fn: str) -> str:
    numerator, denominator = _scaled(expr)
    if denominator == 1:
        return f"({numerator})"
    return f"{fn}({numerator}, {denominator})"


def _combine(pieces: Sequence[str], combiner: str) -> str:
    combined = pieces[0]
    for piece in pieces[1:]:
        combined = f"{combiner}({combined}, {piece})"
    return combined


def _bound_to_c(value, *, is_lower: bool) -> str:
    """A loop bound as an exact ``long`` expression.

    Rounding distributes over min/max (both are monotone), so a quasi-affine
    bound rounds each branch and combines with ``lmin``/``lmax`` — identical
    to the Python emitter's ``min(...)`` over rounded branches.
    """
    fn = "ceild" if is_lower else "floord"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, AffineExpr):
        return _rounded(value, fn)
    if isinstance(value, QuasiAffineBound):
        combiner = "lmin" if value.kind == "min" else "lmax"
        return _combine([_rounded(e, fn) for e in value.exprs], combiner)
    raise TypeError(f"unsupported bound type {type(value).__name__}")


def _index_to_c(expr: AffineExpr) -> str:
    """An array index: ``int(Fraction)`` truncates toward zero, so ``truncd``."""
    numerator, denominator = _scaled(expr)
    if denominator == 1:
        return f"({numerator})"
    return f"truncd({numerator}, {denominator})"


def _affine_value_to_c(expr: AffineExpr) -> str:
    numerator, denominator = _scaled(expr)
    if denominator == 1:
        return f"((double)({numerator}))"
    return f"(((double)({numerator})) / {denominator}.0)"


def _constraint_to_c(expr: AffineExpr, is_equality: bool) -> str:
    # scaling by the (positive) common denominator preserves the sign
    numerator, _denominator = _scaled(expr)
    op = "==" if is_equality else ">="
    return f"({numerator}) {op} 0"


def _load_to_c(load: Load) -> str:
    indices = "".join(f"[{_index_to_c(i)}]" for i in load.indices)
    return f"{load.array.name}{indices}"


def _expr_to_c(expr: Expr) -> str:
    if isinstance(expr, Const):
        return repr(float(expr.value))
    if isinstance(expr, Iter):
        return expr.name
    if isinstance(expr, AffineValue):
        return _affine_value_to_c(expr.expr)
    if isinstance(expr, Load):
        return _load_to_c(expr)
    if isinstance(expr, BinOp):
        return f"({_expr_to_c(expr.lhs)} {expr.op} {_expr_to_c(expr.rhs)})"
    if isinstance(expr, Call):
        args = ", ".join(_expr_to_c(a) for a in expr.args)
        return f"{_CALL_MAP.get(expr.func, expr.func)}({args})"
    raise TypeError(f"cannot emit expression of type {type(expr).__name__}")


class _HarnessEmitter:
    def __init__(self, program: Program, binding: Mapping[str, int], check_domains: bool) -> None:
        self.program = program
        self.binding = dict(binding)
        self.check_domains = check_domains
        self.lines: List[str] = []
        self.symbol_definitions = dict(program.symbol_definitions or {})
        self._emitted_symbols: List[Set[str]] = [set()]

    def emit(self, line: str, depth: int) -> None:
        self.lines.append(f"{_INDENT * depth}{line}" if line else "")

    # -- derived symbols (same scoping rules as the Python emitter) ---------------
    def _emit_symbols(self, bound: Set[str], depth: int) -> None:
        already = set().union(*self._emitted_symbols)
        for name, definition in self.symbol_definitions.items():
            if name in already:
                continue
            if isinstance(definition, QuasiAffineBound):
                free = {v for e in definition.exprs for v in e.variables}
                code = _bound_to_c(definition, is_lower=(definition.kind == "max"))
            elif isinstance(definition, AffineExpr):
                free = set(definition.variables)
                code = _index_to_c(definition)
            else:
                raise TypeError(
                    f"unsupported symbol definition type {type(definition).__name__}"
                )
            if free <= bound:
                self.emit(f"long {name} = {code};", depth)
                self._emitted_symbols[-1].add(name)

    # -- node emission ------------------------------------------------------------
    def emit_node(self, node: Node, depth: int, bound: Set[str]) -> None:
        if isinstance(node, BlockNode):
            for child in node.body:
                self.emit_node(child, depth, bound)
        elif isinstance(node, LoopNode):
            low = _bound_to_c(node.lower, is_lower=True)
            high = _bound_to_c(node.upper, is_lower=False)
            step = f"{node.iterator} += {node.step}" if node.step != 1 else f"{node.iterator}++"
            self.emit(
                f"for (long {node.iterator} = {low}; {node.iterator} <= {high}; {step}) {{",
                depth,
            )
            inner_bound = bound | {node.iterator}
            self._emitted_symbols.append(set())
            self._emit_symbols(inner_bound, depth + 1)
            new_bound = inner_bound | self._emitted_symbols[-1]
            self.emit_node(node.body, depth + 1, new_bound)
            self._emitted_symbols.pop()
            self.emit("}", depth)
        elif isinstance(node, GuardNode):
            conditions = [
                _constraint_to_c(c.expr, c.is_equality) for c in node.constraints
            ]
            self.emit(f"if ({' && '.join(conditions) or '1'}) {{", depth)
            self.emit_node(node.body, depth + 1, bound)
            self.emit("}", depth)
        elif isinstance(node, StatementNode):
            self._emit_statement(node, depth)
        elif isinstance(node, SyncNode):
            self.emit(f"/* sync({node.scope}) */;", depth)
        else:
            raise TypeError(f"cannot emit node of type {type(node).__name__}")

    def _emit_statement(self, node: StatementNode, depth: int) -> None:
        statement = node.statement
        if self.check_domains and statement.domain.constraints:
            conditions = [
                _constraint_to_c(c.expr, c.is_equality)
                for c in statement.domain.constraints
            ]
            self.emit(f"if ({' && '.join(conditions)}) {{", depth)
            self._emit_assignment(statement, depth + 1)
            self.emit("}", depth)
        else:
            self._emit_assignment(statement, depth)

    def _emit_assignment(self, statement, depth: int) -> None:
        lhs = _load_to_c(statement.lhs)
        rhs = _expr_to_c(statement.rhs)
        if statement.reduction in ("+", "*"):
            self.emit(f"{lhs} {statement.reduction}= {rhs};", depth)
        elif statement.reduction in ("min", "max"):
            fn = _CALL_MAP[statement.reduction]
            self.emit(f"{lhs} = {fn}({lhs}, {rhs});", depth)
        else:
            self.emit(f"{lhs} = {rhs};", depth)

    # -- file-scope sections ------------------------------------------------------
    def emit_declarations(self) -> None:
        for name in sorted(self.binding):
            self.emit(f"static const long {name} = {int(self.binding[name])};", 0)
        for array in self.program.arrays.values():
            extents = "".join(f"[{int(extent)}]" for extent in array.shape)
            self.emit(f"static double {array.name}{extents};", 0)
        self.emit("", 0)

    def emit_init(self) -> None:
        # seed is a runtime parameter (argv[3]), never baked into the source:
        # the compile cache keys binaries on the source text
        self.emit("static void init_arrays(unsigned long long seed) {", 0)
        self.emit("unsigned long long s = 0x9E3779B97F4A7C15ULL ^ seed;", 1)
        for array in self.program.arrays.values():
            total = 1
            for extent in array.shape:
                total *= int(extent)
            self.emit("{", 1)
            self.emit(f"double *p = (double *){array.name};", 2)
            if array.is_local:
                # scratchpad buffers start cleared, like fresh allocations
                self.emit(f"for (long q = 0; q < {total}; ++q) p[q] = 0.0;", 2)
            else:
                self.emit(f"for (long q = 0; q < {total}; ++q) {{", 2)
                self.emit("s = s * 6364136223846793005ULL + 1442695040888963407ULL;", 3)
                self.emit("p[q] = (double)((s >> 11) & 0xFFFFFFULL) / 16777216.0;", 3)
                self.emit("}", 2)
            self.emit("}", 1)
        self.emit("}", 0)
        self.emit("", 0)

    def emit_kernel(self) -> None:
        self.emit("static void kernel(void) {", 0)
        bound = set(self.binding)
        self._emit_symbols(bound, 1)
        bound = bound | self._emitted_symbols[-1]
        if not self.program.body.body:
            self.emit(";", 1)
        else:
            self.emit_node(self.program.body, 1, bound)
        self.emit("}", 0)
        self.emit("", 0)

    def emit_main(self, warmup: int, repeat: int, seed: int) -> None:
        self.emit("int main(int argc, char **argv) {", 0)
        self.emit(f"long warmup = argc > 1 ? atol(argv[1]) : {warmup};", 1)
        self.emit(f"long repeat = argc > 2 ? atol(argv[2]) : {repeat};", 1)
        self.emit(
            f"unsigned long long seed = argc > 3 ? strtoull(argv[3], 0, 10) : {seed}ULL;",
            1,
        )
        self.emit("for (long r = 0; r < warmup + repeat; ++r) {", 1)
        self.emit("init_arrays(seed);", 2)
        self.emit("struct timespec t0, t1;", 2)
        self.emit("clock_gettime(CLOCK_MONOTONIC, &t0);", 2)
        self.emit("kernel();", 2)
        self.emit("clock_gettime(CLOCK_MONOTONIC, &t1);", 2)
        self.emit("if (r >= warmup) {", 2)
        self.emit(
            'printf("%lld\\n", (long long)(t1.tv_sec - t0.tv_sec) * 1000000000LL'
            " + (long long)(t1.tv_nsec - t0.tv_nsec));",
            3,
        )
        self.emit("}", 2)
        self.emit("}", 1)
        self.emit("double checksum = 0.0;  /* keep the kernel observable */", 1)
        for array in self.program.arrays.values():
            total = 1
            for extent in array.shape:
                total *= int(extent)
            self.emit("{", 1)
            self.emit(f"double *p = (double *){array.name};", 2)
            self.emit(f"for (long q = 0; q < {total}; ++q) checksum += p[q];", 2)
            self.emit("}", 1)
        self.emit('fprintf(stderr, "checksum %.17g\\n", checksum);', 1)
        self.emit("return 0;", 1)
        self.emit("}", 0)


def emit_c_harness(
    program: Program,
    param_values: Optional[Mapping[str, int]] = None,
    seed: int = 0,
    warmup: int = 1,
    repeat: int = 3,
    check_domains: bool = True,
) -> str:
    """Emit ``program`` as a complete, compilable C timing harness.

    The binary runs ``warmup + repeat`` kernel executions (arrays re-seeded
    before each) and prints one nanosecond wall time per *timed* run on
    stdout; ``argv[1]``/``argv[2]``/``argv[3]`` override warmup/repeat/seed
    without a recompile — the ``seed``/``warmup``/``repeat`` arguments here
    only choose the argv-less *defaults* baked into ``main``.  A caller that
    always emits with the same canonical defaults and passes its real knobs
    via argv (the ``measure-c:`` backend does) therefore gets source that
    depends only on the program and its parameter binding — the compile-cache
    contract.  Parameters are baked from the program's bound values
    (overridden by ``param_values``), matching interpreter semantics.
    """
    binding = program.bound_params(param_values)
    emitter = _HarnessEmitter(program, binding, check_domains)
    emitter.emit(f"/* generated timing harness: {program.name} */", 0)
    emitter.lines.extend(_PRELUDE.splitlines())
    emitter.emit("", 0)
    emitter.emit_declarations()
    emitter.emit_init()
    emitter.emit_kernel()
    emitter.emit_main(warmup, repeat, seed)
    return "\n".join(emitter.lines) + "\n"
