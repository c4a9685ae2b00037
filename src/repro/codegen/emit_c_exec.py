"""Emission of *compilable, runnable* C from loop-structure ASTs.

:func:`repro.ir.printer.program_to_c` renders programs as C-like text for
inspection (``forall_blocks``, ``__syncthreads()`` — the paper's figures).
This module instead emits a self-contained C99 translation unit that a host
toolchain can compile and *time* — the ``measure-c:`` evaluation backend's
artifact.  The harness contains

* the kernel body as plain sequential loops (parallel annotations drop to
  ordinary ``for`` — the transformations are only legal when sequential and
  parallel execution agree, exactly the interpreter's convention), printed by
  :class:`CPrinter` from the same :class:`repro.codegen.lower.Lowering` as
  the Python emitters: the same integer bounds, rounded by exact ``floord``/
  ``ceild``/``truncd`` helpers, never floating point, and only the guards
  the Python lowering keeps,
* deterministic seeded array initialisation (an LCG, so two hosts fill the
  same values without sharing numpy),
* a ``main`` that runs ``warmup`` unrecorded and ``repeat`` timed executions
  (``CLOCK_MONOTONIC``), re-initialising the arrays before each run, printing
  one wall-time-in-nanoseconds line per timed run, and
* a stderr checksum over every array so the optimiser cannot discard the
  kernel as dead code.

Every timing knob is an ``argv`` override — ``argv[1]`` warmup, ``argv[2]``
repeat, ``argv[3]`` the init seed — so the *source text* (and therefore the
compiled binary) depends only on the mapped program and its parameter
binding.  That is what makes the ``measure-c:`` compile cache effective:
candidates that differ only in timing knobs or input seed share one binary.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from repro.codegen.lower import Bound, Conjunct, Form, Lowering, Printer
from repro.ir.program import Program

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


class CPrinter(Printer):
    """C99: ``for (long …)`` loops, braced ``if``s, ``floord``/``ceild`` rounding."""

    EMPTY = ";"
    SYNC = "/* sync({}) */;"
    TRUNCATE = "truncd"
    #: data-expression calls mapped onto libm (everything else passes through)
    CALLS = {"min": "fmin", "max": "fmax", "abs": "fabs"}

    def close(self, depth: int) -> None:
        self.emit("}", depth)

    def bound(self, bound: Bound, is_lower: bool) -> str:
        """Rounding distributes over min/max, so each branch rounds, then ``lmin``/``lmax``."""
        kind, forms = bound
        combined = ""
        for denominator, terms, constant in forms:
            text = self.linear(terms, constant)
            if denominator != 1:
                text = f"{'ceild' if is_lower else 'floord'}({text}, {denominator})"
            combined = f"l{kind}({combined}, {text})" if combined else text
        return combined

    def value(self, form: Form) -> str:
        denominator, terms, constant = form
        text = f"((double)({self.linear(terms, constant)}))"
        return text if denominator == 1 else f"({text} / {denominator}.0)"

    def load(self, array: str, indices: Sequence[str]) -> str:
        return array + "".join(f"[{index}]" for index in indices)

    def loop(self, iterator: str, lower: Bound, upper: Bound, step: int, depth: int) -> None:
        low, high = self.bound(lower, True), self.bound(upper, False)
        advance = f"{iterator} += {step}" if step != 1 else f"{iterator}++"
        self.emit(f"for (long {iterator} = {low}; {iterator} <= {high}; {advance}) {{", depth)

    def guard(self, conjuncts: Sequence[Conjunct], depth: int) -> None:
        self.emit(f"if ({' && '.join(self.conjunct(c) for c in conjuncts)}) {{", depth)

    def define(self, name: str, code: str, depth: int) -> None:
        self.emit(f"long {name} = {code};", depth)

    def assign(self, reduction: Optional[str], lhs: str, rhs: str, depth: int) -> None:
        if reduction in ("+", "*"):
            self.emit(f"{lhs} {reduction}= {rhs};", depth)
        elif reduction in ("min", "max"):
            self.emit(f"{lhs} = {self.CALLS[reduction]}({lhs}, {rhs});", depth)
        else:
            self.emit(f"{lhs} = {rhs};", depth)


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
    printer = CPrinter()
    emit = printer.emit
    emit(f"/* generated timing harness: {program.name} */", 0)
    printer.lines.extend(_PRELUDE.splitlines())
    emit("", 0)
    for name in sorted(binding):
        emit(f"static const long {name} = {int(binding[name])};", 0)
    for array in program.arrays.values():
        emit(f"static double {array.name}{''.join(f'[{int(e)}]' for e in array.shape)};", 0)
    emit("", 0)
    sizes = {a.name: math.prod(int(e) for e in a.shape) for a in program.arrays.values()}

    # seed is a runtime parameter (argv[3]), never baked into the source:
    # the compile cache keys binaries on the source text
    emit("static void init_arrays(unsigned long long seed) {", 0)
    emit("unsigned long long s = 0x9E3779B97F4A7C15ULL ^ seed;", 1)
    for array in program.arrays.values():
        emit("{", 1)
        emit(f"double *p = (double *){array.name};", 2)
        if array.is_local:
            # scratchpad buffers start cleared, like fresh allocations
            emit(f"for (long q = 0; q < {sizes[array.name]}; ++q) p[q] = 0.0;", 2)
        else:
            emit(f"for (long q = 0; q < {sizes[array.name]}; ++q) {{", 2)
            emit("s = s * 6364136223846793005ULL + 1442695040888963407ULL;", 3)
            emit("p[q] = (double)((s >> 11) & 0xFFFFFFULL) / 16777216.0;", 3)
            emit("}", 2)
        emit("}", 1)
    emit("}", 0)
    emit("", 0)

    emit("static void kernel(void) {", 0)
    Lowering(program, printer, check_domains).lower(set(binding), 1)
    emit("}", 0)
    emit("", 0)

    emit("int main(int argc, char **argv) {", 0)
    emit(f"long warmup = argc > 1 ? atol(argv[1]) : {warmup};", 1)
    emit(f"long repeat = argc > 2 ? atol(argv[2]) : {repeat};", 1)
    emit(f"unsigned long long seed = argc > 3 ? strtoull(argv[3], 0, 10) : {seed}ULL;", 1)
    emit("for (long r = 0; r < warmup + repeat; ++r) {", 1)
    emit("init_arrays(seed);", 2)
    emit("struct timespec t0, t1;", 2)
    emit("clock_gettime(CLOCK_MONOTONIC, &t0);", 2)
    emit("kernel();", 2)
    emit("clock_gettime(CLOCK_MONOTONIC, &t1);", 2)
    emit("if (r >= warmup) {", 2)
    emit(
        'printf("%lld\\n", (long long)(t1.tv_sec - t0.tv_sec) * 1000000000LL'
        " + (long long)(t1.tv_nsec - t0.tv_nsec));",
        3,
    )
    emit("}", 2)
    emit("}", 1)
    emit("double checksum = 0.0;  /* keep the kernel observable */", 1)
    for array in program.arrays.values():
        emit("{", 1)
        emit(f"double *p = (double *){array.name};", 2)
        emit(f"for (long q = 0; q < {sizes[array.name]}; ++q) checksum += p[q];", 2)
        emit("}", 1)
    emit('fprintf(stderr, "checksum %.17g\\n", checksum);', 1)
    emit("return 0;", 1)
    emit("}", 0)
    return "\n".join(printer.lines) + "\n"
