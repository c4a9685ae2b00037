"""Emission of executable Python from loop-structure ASTs.

While the reference interpreter (:mod:`repro.runtime.interpreter`) is the
semantic oracle, it pays dispatch overhead per array access.  For larger
functional checks — and for the ``measure-py:`` backend, which runs it once
and prices what it counted — the code generator emits plain Python source
instead: nested ``for`` loops indexing numpy arrays, compiled with ``exec``.
The emitted function has the signature ``fn(arrays, params)`` where
``arrays`` maps array names to numpy ndarrays and ``params`` maps parameter
names to ints; it mutates the arrays in place, exactly like the interpreter,
and returns the work each thread block did (see :func:`python_module`).

:class:`PythonPrinter` only spells what :class:`repro.codegen.lower.Lowering`
decided (integer bounds, the guards left after pruning, symbol scoping): an
integral bound or index is the plain expression (``min(32, iT + 8)``,
``l_A[i - ip, k - kp]``); a rational one is ``(N) // D`` as an upper bound,
``-(-(N) // D)`` as a lower bound and ``_idx(N, D)`` (truncation toward zero)
as an index.  The helper is only defined in modules that call it.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.codegen.lower import Bound, Conjunct, Form, Lowering, Printer
from repro.ir.program import Program

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

#: the function combining old and new value of a scalar min/max reduction
_COMBINERS = {"min": "min", "max": "max"}


class PythonPrinter(Printer):
    """Scalar Python: ``range`` loops, ``if`` guards, ``//`` rounding."""

    #: intrinsics that are not Python builtins under their own name
    CALLS = {"sqrt": "_sqrt"}
    #: module lines before the helpers (the numpy printer's import)
    prelude: Sequence[str] = ()

    def bound(self, bound: Bound, is_lower: bool, offset: int = 0) -> str:
        """The rounded bound plus ``offset``: lower bounds round up, upper bounds down."""
        kind, forms = bound
        rounded = []
        for denominator, terms, constant in forms:
            # rounding commutes with adding an integer, so the offset goes inside
            text = self.linear(terms, constant + offset * denominator)
            if denominator != 1:
                text = f"-(-({text}) // {denominator})" if is_lower else f"({text}) // {denominator}"
            rounded.append(text)
        if len(rounded) == 1:
            return rounded[0]
        return f"{kind}({', '.join(rounded)})"

    def value(self, form: Form) -> str:
        denominator, terms, constant = form
        text = self.linear(terms, constant)
        return f"({text})" if denominator == 1 else f"(({text}) / {denominator})"

    def load(self, array: str, indices: Sequence[str]) -> str:
        return f"{array}[{', '.join(indices)}]"

    def loop(self, iterator: str, lower: Bound, upper: Bound, step: int, depth: int) -> None:
        low = self.bound(lower, is_lower=True)
        stop = self.bound(upper, is_lower=False, offset=1)
        step_text = f", {step}" if step != 1 else ""
        self.emit(f"for {iterator} in range({low}, {stop}{step_text}):", depth)

    def guard(self, conjuncts: Sequence[Conjunct], depth: int) -> None:
        self.emit(f"if {' and '.join(self.conjunct(c) for c in conjuncts)}:", depth)

    def define(self, name: str, code: str, depth: int) -> None:
        self.emit(f"{name} = {code}", depth)

    def count(self, slot: int, amount: str, depth: int) -> None:
        self.emit(f"_count[{slot}] += {amount}", depth)

    def block(self, key: Sequence[str], depth: int) -> None:
        text = f"({key[0]},)" if len(key) == 1 else f"({', '.join(key)})"
        self.emit(f"_count = _blocks.setdefault({text}, [0] * len(COUNTERS))", depth)

    def assign(
        self, reduction: Optional[str], lhs: str, rhs: str, depth: int, combiners=_COMBINERS
    ) -> None:
        """``lhs (op)= rhs``; ``combiners`` names the ``min``/``max`` function."""
        if reduction in ("+", "*"):
            self.emit(f"{lhs} {reduction}= {rhs}", depth)
        elif reduction in combiners:
            self.emit(f"{lhs} = {combiners[reduction]}({lhs}, {rhs})", depth)
        else:
            self.emit(f"{lhs} = {rhs}", depth)


def python_module(lowering: Lowering, func_name: str) -> str:
    """Print ``lowering`` into a complete module defining ``func_name(arrays, params)``.

    Shared by the scalar and the numpy printers so the module shape (helpers,
    parameter/array unpacking, counters) cannot drift apart.  The function
    returns the counted run: block key -> one count per slot of the module's
    ``COUNTERS`` (each slot's weights over :data:`~repro.codegen.lower.TERMS`).
    """
    program, printer = lowering.program, lowering.printer
    printer.emit(f"def {func_name}(arrays, params):", 0)
    for param in program.params:
        printer.emit(f"{param} = params[{param!r}]", 1)
    for array in program.arrays.values():
        printer.emit(f"{array.name} = arrays[{array.name!r}]", 1)
    printer.emit("_blocks = {}", 1)
    printer.block((), 1)
    lowering.lower(set(program.params), 1)
    printer.emit("return _blocks", 1)
    body = "\n".join(printer.lines)
    header = list(printer.prelude)
    for call, definition in _HELPERS.items():
        if call in body:
            header.extend(definition)
    header.extend(("", f"COUNTERS = {tuple(lowering.counters)!r}", ""))
    return "\n".join([*header, body]) + "\n"


def emit_python_source(
    program: Program, func_name: str = "kernel", check_domains: bool = True
) -> str:
    """Emit the program as Python source defining ``func_name(arrays, params)``."""
    return python_module(Lowering(program, PythonPrinter(), check_domains), func_name)


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
