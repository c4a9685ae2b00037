"""Loop generation from polyhedra (CLooG substitute) and code emission.

Given a polyhedron (or a union of polyhedra) over a set of dimensions, the
scanner produces a loop-structure AST (:mod:`repro.ir.ast`) that visits every
integer point exactly once.  The scratchpad framework uses this to generate
copy-in / copy-out loop nests (each element loaded/stored once even when the
per-reference data spaces overlap), and the emitters render transformed
programs as C-like text for inspection.  Every executable emitter prints one
:class:`~repro.codegen.lower.Lowering` of the program.
"""

from repro.codegen.scan import scan_polyhedron, loop_nest_for
from repro.codegen.union_scan import scan_union
from repro.codegen.emit_c_exec import emit_c_harness
from repro.codegen.emit_py import compile_to_python, emit_python_source
from repro.codegen.emit_py_vec import emit_python_source_vectorized
from repro.codegen.toolchain import c_toolchain_skip_reason, find_c_compiler
from repro.codegen.compile_cache import CompileCache, open_compile_cache

# the C-like inspection text is the IR printer's (the ``emit`` pass heads it
# with the launch geometry)
from repro.ir.printer import program_to_c as emit_c

__all__ = [
    "scan_polyhedron",
    "loop_nest_for",
    "scan_union",
    "c_toolchain_skip_reason",
    "emit_c",
    "emit_c_harness",
    "compile_to_python",
    "emit_python_source",
    "emit_python_source_vectorized",
    "find_c_compiler",
    "CompileCache",
    "open_compile_cache",
]
