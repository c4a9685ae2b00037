"""Reference interpreter for loop-structure ASTs.

The interpreter executes a program sequentially over numpy arrays.  Parallel
loop annotations are ignored for value semantics (the transformations the
framework performs are only legal when sequential and parallel execution give
the same values), which makes the interpreter the correctness oracle for
every transformation: the scratchpad-transformed and multi-level tiled
programs must compute exactly the same array contents as the original.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple

import numpy as np

from repro.ir.arrays import Array
from repro.ir.ast import (
    COPY_IN,
    COPY_OUT,
    BlockNode,
    GuardNode,
    LoopNode,
    Node,
    StatementNode,
    SyncNode,
    copy_waves,
)
from repro.ir.expressions import EvaluationEnv
from repro.ir.program import Program
from repro.ir.statements import Statement
from repro.runtime.context import ExecutionContext
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.parametric import QuasiAffineBound


#: the names a domain needs bound, and per conjunct ``(((name, coeff), ...), constant,
#: is_equality)`` for ``sum coeff*name + constant >= 0`` (``== 0``)
_DomainRows = Tuple[FrozenSet[str], Tuple[Tuple[Tuple[Tuple[str, int], ...], int, bool], ...]]


def _domain_rows(statement: Statement) -> _DomainRows:
    domain = statement.domain
    conjuncts = []
    for constraint in domain.constraints:
        # the denominator is positive, so the numerator alone has the sign
        _denominator, terms, constant = constraint.expr.int_form()
        conjuncts.append((terms, constant, constraint.is_equality))
    return frozenset(domain.dims + domain.params), tuple(conjuncts)


_REDUCTIONS = {
    "+": lambda old, new: old + new,
    "*": lambda old, new: old * new,
    "min": lambda old, new: min(old, new),
    "max": lambda old, new: max(old, new),
}


class Interpreter(EvaluationEnv):
    """Executes a :class:`~repro.ir.program.Program` over an execution context."""

    def __init__(
        self,
        program: Program,
        context: ExecutionContext,
        check_domains: bool = True,
    ) -> None:
        self.program = program
        self.context = context
        self.check_domains = check_domains
        self._symbol_definitions = dict(getattr(program, "symbol_definitions", {}) or {})
        #: id(statement) -> its domain as plain integer rows, built on first use
        self._domains: Dict[int, _DomainRows] = {}
        #: where copy occurrences start (``copy_waves``), and whether the node
        #: executing sits inside a copy nest, where none starts
        self._waves = copy_waves(program.body)
        self._copying = False

    # -- EvaluationEnv protocol -------------------------------------------------
    def read(self, array: Array, indices) -> float:
        return self.context.read(array, indices)

    # -- execution -----------------------------------------------------------------
    def run(self) -> ExecutionContext:
        """Execute the whole program and return the (mutated) context."""
        binding: Dict[str, int] = dict(self.context.params)
        self._refresh_symbols(binding)
        self._exec(self.program.body, binding)
        return self.context

    def _exec(self, node: Node, binding: Dict[str, int]) -> None:
        if isinstance(node, BlockNode):
            waves = self._waves.get(id(node))
            if waves is None or self._copying:
                for child in node.body:
                    self._exec(child, binding)
                return
            counters = self.context.counters
            for child, (kind, starts) in zip(node.body, waves):
                if kind is None:
                    self._exec(child, binding)
                    continue
                if starts and kind == COPY_IN:
                    counters.copy_in_occurrences += 1
                elif starts:
                    counters.copy_out_occurrences += 1
                self._copying = True
                try:
                    self._exec(child, binding)
                finally:
                    self._copying = False
        elif isinstance(node, LoopNode):
            low, high = node.bounds_at(binding)
            for value in range(low, high + 1, node.step):
                binding[node.iterator] = value
                self._refresh_symbols(binding)
                self._exec(node.body, binding)
            binding.pop(node.iterator, None)
            self._refresh_symbols(binding)
        elif isinstance(node, GuardNode):
            if node.holds_at(binding):
                self._exec(node.body, binding)
        elif isinstance(node, StatementNode):
            self._exec_statement(node, binding)
        elif isinstance(node, SyncNode):
            if node.scope == "threads":
                self.context.counters.thread_syncs += 1
            else:
                self.context.counters.block_syncs += 1
        else:
            raise TypeError(f"cannot interpret node of type {type(node).__name__}")

    def _exec_statement(self, node: StatementNode, binding: Dict[str, int]) -> None:
        statement = node.statement
        if self.check_domains and not self._in_domain(statement, binding):
            return
        value = statement.rhs.evaluate(self, binding)
        target = statement.lhs.index_point(binding)
        if statement.reduction is not None:
            old = self.context.read(statement.lhs.array, target)
            value = _REDUCTIONS[statement.reduction](old, value)
        self.context.write(statement.lhs.array, target, value)
        counters = self.context.counters
        counters.statement_instances += 1
        if node.kind == COPY_IN:
            counters.copy_in_elements += 1
        elif node.kind == COPY_OUT:
            counters.copy_out_elements += 1

    def _in_domain(self, statement: Statement, binding: Mapping[str, int]) -> bool:
        """Whether every dimension and parameter is bound and every conjunct holds.

        The same test as ``statement.domain.contains``, on integer rows
        built once per statement: every conjunct is kept, none is pruned.
        """
        rows = self._domains.get(id(statement))
        if rows is None:
            rows = self._domains[id(statement)] = _domain_rows(statement)
        required, conjuncts = rows
        if not required <= binding.keys():
            return False
        for terms, constant, is_equality in conjuncts:
            total = constant
            for name, coeff in terms:
                total += coeff * binding[name]
            if total != 0 if is_equality else total < 0:
                return False
        return True

    def _refresh_symbols(self, binding: Dict[str, int]) -> None:
        """Recompute derived symbols (scratchpad offsets) from the current binding.

        Derived symbols are quasi-affine expressions over parameters and outer
        loop iterators registered by the scratchpad manager (see
        ``Program.symbol_definitions``); they are recomputed whenever the
        binding changes so inner code can use them like ordinary parameters.
        """
        if not self._symbol_definitions:
            return
        for name, definition in self._symbol_definitions.items():
            binding.pop(name, None)
        for name, definition in self._symbol_definitions.items():
            try:
                if isinstance(definition, QuasiAffineBound):
                    binding[name] = definition.evaluate_int(binding)
                elif isinstance(definition, AffineExpr):
                    binding[name] = definition.truncate_at(binding)
                else:
                    raise TypeError(
                        f"unsupported symbol definition type {type(definition).__name__}"
                    )
            except KeyError:
                # Not all free variables bound at this level yet; the symbol
                # becomes available deeper in the loop nest.
                continue


def run_program(
    program: Program,
    param_values: Optional[Mapping[str, int]] = None,
    inputs: Optional[Mapping[str, np.ndarray]] = None,
    check_domains: bool = True,
    count_accesses: bool = True,
) -> ExecutionContext:
    """Convenience wrapper: allocate arrays, bind inputs, run, return the context."""
    binding = program.bound_params(param_values)
    context = ExecutionContext(binding, count_accesses=count_accesses)
    for array in program.arrays.values():
        if inputs and array.name in inputs:
            context.bind_array(array, np.array(inputs[array.name]))
        elif not array.is_local:
            context.allocate(array)
    Interpreter(program, context, check_domains=check_domains).run()
    return context
