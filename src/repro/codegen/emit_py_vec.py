"""Vectorised (numpy-backed) emission of executable Python.

:func:`repro.codegen.emit_py.emit_python_source` lowers a mapped program to
scalar nested loops — semantically exact, but every innermost iteration pays
Python interpreter dispatch per array access, which dominates the time the
``measure-py:`` backend's counted run takes.  :class:`NumpyPrinter` is the
scalar printer plus the spelling of the vector loops
:class:`repro.codegen.lower.Lowering` proves safe (the rules are in that
module): each eligible **innermost** loop — the loop around a thread's one
point counts, its point loops being substitutions — becomes one numpy
statement over the loop's whole range: a slice assignment
(``O[_lo:_hi + 1] = A[_lo:_hi + 1]`` under ``if _hi >= _lo:``), a reduction
``lhs += float(_np.sum(...))`` (``prod``/``min``/``max`` likewise; a sum of
products the walker marks is ``float(_np.dot(x, y))``), or, when slices
are not proven, the same over ``it = _np.arange(lo, hi + 1, step)`` masked
by the conjuncts left over the iterator.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.codegen.emit_py import PythonPrinter, python_module
from repro.codegen.lower import Bound, Conjunct, Form, Lowering
from repro.ir.program import Program

#: numpy reducers per reduction operator (scalar lhs)
_REDUCERS = {"+": "sum", "*": "prod", "min": "min", "max": "max"}

#: numpy elementwise combine per min/max reduction (vector lhs)
_ELEMENTWISE = {"min": "_np.minimum", "max": "_np.maximum"}


class NumpyPrinter(PythonPrinter):
    """The scalar printer, with the walker's vector loops spelled in numpy."""

    vector = True
    prelude = ("import numpy as _np",)

    def slice(self, start: Form, stop: Form, stride: int) -> str:
        text = f"{self.linear(*start[1:])}:{self.linear(*stop[1:])}"
        return text + (f":{stride}" if stride != 1 else "")

    def vector_loop(
        self, iterator: str, lower: Bound, upper: Bound, step: int,
        mask: Optional[Sequence[Conjunct]], depth: int,
    ) -> None:
        """The range ``_lo .. _hi`` when ``mask`` is ``None`` (slices), else ``arange`` masked."""
        low = self.bound(lower, is_lower=True)
        if mask is None:
            self.emit(f"_lo = {low}", depth)
            self.emit(f"_hi = {self.bound(upper, is_lower=False)}", depth)
            self.emit("if _hi >= _lo:", depth)
            return
        stop = self.bound(upper, is_lower=False, offset=1)
        self.emit(f"{iterator} = _np.arange({low}, {stop}, {step})", depth)
        if mask:
            conjuncts = " & ".join(f"({self.conjunct(c)})" for c in mask)
            self.emit(f"{iterator} = {iterator}[{conjuncts}]", depth)
        self.emit(f"if {iterator}.size:", depth)

    def vector_size(self, iterator: str, step: int, sliced: bool) -> str:
        """How many iterations the statement just printed stands for."""
        if not sliced:
            return f"{iterator}.size"
        return "_hi - _lo + 1" if step == 1 else f"(_hi - _lo) // {step} + 1"

    def reduce(self, reduction: str, operand: str) -> str:
        return f"_np.{_REDUCERS[reduction]}({operand})"

    def dot(self, lhs: str, rhs: str) -> str:
        return f"_np.dot({lhs}, {rhs})"

    def vector_assign(
        self, reduction: Optional[str], lhs: str, rhs: str, elementwise: bool, depth: int
    ) -> None:
        """An elementwise ``rhs``, or the scalar a ``reduce``/``dot`` spelled."""
        if elementwise:
            self.assign(reduction, lhs, rhs, depth, _ELEMENTWISE)
        else:
            self.assign(reduction, lhs, f"float({rhs})", depth)


def emit_python_source_vectorized(
    program: Program, func_name: str = "kernel", check_domains: bool = True
) -> str:
    """Emit ``program`` with eligible innermost loops lowered to numpy.

    Behaviourally identical to :func:`~repro.codegen.emit_py.
    emit_python_source` (same ``func_name(arrays, params)`` contract, same
    in-place mutation) — only faster where vectorisation proved safe.
    """
    return python_module(Lowering(program, NumpyPrinter(), check_domains), func_name)
