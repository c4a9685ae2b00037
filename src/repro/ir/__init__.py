"""Affine-program intermediate representation.

Programs are collections of statements, each with an iteration domain
(a :class:`~repro.polyhedral.polyhedron.Polyhedron`), affine array accesses
and an executable right-hand-side expression tree.  The loop structure is an
explicit AST (:mod:`repro.ir.ast`) shared with the code generator, so that the
same interpreter executes original programs, scratchpad-transformed programs
and multi-level tiled programs.
"""

from repro.ir.arrays import Array
from repro.ir.expressions import (
    Expr,
    Const,
    Load,
    Iter,
    BinOp,
    Call,
    absolute,
)
from repro.ir.statements import Reference, Statement
from repro.ir.ast import (
    Node,
    BlockNode,
    LoopNode,
    GuardNode,
    StatementNode,
    SyncNode,
)
from repro.ir.program import Program
from repro.ir.builder import ProgramBuilder
from repro.ir.printer import program_to_c, ast_to_c

__all__ = [
    "Array",
    "Expr",
    "Const",
    "Load",
    "Iter",
    "BinOp",
    "Call",
    "absolute",
    "Reference",
    "Statement",
    "Node",
    "BlockNode",
    "LoopNode",
    "GuardNode",
    "StatementNode",
    "SyncNode",
    "Program",
    "ProgramBuilder",
    "program_to_c",
    "ast_to_c",
]
