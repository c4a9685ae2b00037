"""Program container: arrays, parameters, statements and loop structure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.ir.arrays import Array
from repro.ir.ast import BlockNode, LoopNode, Node, StatementNode, enclosing_loops
from repro.ir.statements import Statement
from repro.polyhedral.dependence import AccessDescriptor, DependenceAnalyzer


@dataclass
class Program:
    """A regular affine program (or a program block / tile body).

    Attributes
    ----------
    name:
        Program name, used in reports and generated code headers.
    params:
        Symbolic parameters (problem sizes, tile origins) the program is
        written against.
    arrays:
        All declared arrays (global and local), by name.
    statements:
        All statements, by name.
    body:
        The loop-structure AST; every statement of ``statements`` appears in
        exactly one :class:`~repro.ir.ast.StatementNode` of the body.
    default_params:
        Optional default parameter values used by examples and tests.
    """

    name: str
    params: Tuple[str, ...] = ()
    arrays: Dict[str, Array] = field(default_factory=dict)
    statements: Dict[str, Statement] = field(default_factory=dict)
    body: BlockNode = field(default_factory=BlockNode)
    default_params: Dict[str, int] = field(default_factory=dict)
    #: Derived symbols (e.g. scratchpad remap offsets) defined as affine or
    #: quasi-affine expressions over parameters and outer loop iterators; the
    #: interpreter recomputes them whenever the binding changes.
    symbol_definitions: Dict[str, object] = field(default_factory=dict)

    # -- registration ----------------------------------------------------------
    def add_array(self, array: Array) -> Array:
        if array.name in self.arrays and self.arrays[array.name] is not array:
            raise ValueError(f"array {array.name!r} is already declared")
        self.arrays[array.name] = array
        return array

    def add_statement(self, statement: Statement) -> Statement:
        if statement.name in self.statements:
            raise ValueError(f"statement {statement.name!r} is already defined")
        self.statements[statement.name] = statement
        for array in statement.arrays():
            self.arrays.setdefault(array.name, array)
        return statement

    # -- queries ----------------------------------------------------------------
    @property
    def statement_list(self) -> List[Statement]:
        """Statements in textual order."""
        return sorted(self.statements.values(), key=lambda s: s.textual_position)

    def statement(self, name: str) -> Statement:
        try:
            return self.statements[name]
        except KeyError:
            raise KeyError(f"no statement named {name!r} in program {self.name!r}") from None

    def array(self, name: str) -> Array:
        try:
            return self.arrays[name]
        except KeyError:
            raise KeyError(f"no array named {name!r} in program {self.name!r}") from None

    def loops_around(self, statement: Statement) -> List[LoopNode]:
        """Loop nodes surrounding the statement's occurrence in the body."""
        for node in self.body.walk():
            if isinstance(node, StatementNode) and node.statement.name == statement.name:
                return enclosing_loops(self.body, node)
        raise ValueError(f"statement {statement.name!r} does not occur in the body")

    # -- analysis adapters --------------------------------------------------------
    def access_descriptors(self) -> List[AccessDescriptor]:
        descriptors: List[AccessDescriptor] = []
        for statement in self.statement_list:
            descriptors.extend(statement.access_descriptors())
        return descriptors

    def dependence_analyzer(self) -> DependenceAnalyzer:
        """Dependence analyzer over all accesses of the program."""
        return DependenceAnalyzer(self.access_descriptors())

    # -- validation ----------------------------------------------------------------
    def validate(self) -> None:
        """Consistency checks; raises ``ValueError`` with a descriptive message."""
        in_body = {
            node.statement.name
            for node in self.body.walk()
            if isinstance(node, StatementNode)
        }
        declared = set(self.statements)
        missing = declared - in_body
        if missing:
            raise ValueError(f"statements never scheduled in the body: {sorted(missing)}")
        unknown = in_body - declared
        if unknown:
            raise ValueError(f"body schedules unknown statements: {sorted(unknown)}")
        for statement in self.statement_list:
            loops = self.loops_around(statement)
            loop_names = [loop.iterator for loop in loops]
            for dim in statement.domain.dims:
                if dim not in loop_names:
                    raise ValueError(
                        f"statement {statement.name!r}: domain dimension {dim!r} has "
                        f"no surrounding loop (loops: {loop_names})"
                    )
            for param in statement.domain.params:
                if (
                    param not in self.params
                    and param not in loop_names
                    and param not in self.symbol_definitions
                ):
                    raise ValueError(
                        f"statement {statement.name!r}: parameter {param!r} is neither "
                        f"a program parameter {self.params}, an enclosing loop iterator "
                        f"{loop_names}, nor a derived symbol"
                    )

    def bound_params(self, values: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Merge default parameter values with caller-provided overrides."""
        binding = dict(self.default_params)
        if values:
            binding.update(values)
        missing = [p for p in self.params if p not in binding]
        if missing:
            raise ValueError(f"program {self.name!r}: unbound parameters {missing}")
        return binding

    def __str__(self) -> str:
        from repro.ir.printer import program_to_c

        return program_to_c(self)
