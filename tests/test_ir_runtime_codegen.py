"""Tests for the IR (arrays, expressions, statements, builder, printer), the
reference interpreter, the Python emitter and the CLooG-substitute scanners."""

import numpy as np
import pytest

from repro.codegen import compile_to_python, scan_polyhedron, scan_union
from repro.compiler import CompilationSession
from repro.codegen.union_scan import make_disjoint, subtract
from repro.ir import (
    Array,
    BlockNode,
    GuardNode,
    LoopNode,
    ProgramBuilder,
    StatementNode,
    SyncNode,
    absolute,
    ast_to_c,
    program_to_c,
)
from repro.ir.ast import evaluate_bound
from repro.ir.expressions import Const, Iter, Load
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.counting import union_point_count
from repro.polyhedral.parametric import QuasiAffineBound
from repro.polyhedral.polyhedron import Polyhedron
from repro.runtime import run_program


def build_stencil(n=20):
    b = ProgramBuilder("stencil", params=["N"])
    N = b.param("N")
    a = b.array("A", (n + 2,))
    out = b.array("B", (n + 2,))
    i = b.var("i")
    with b.loop("i", 1, N):
        b.assign(out[i], (a[i - 1] + a[i] + a[i + 1]) / 3, name="S")
    b.set_default_params(N=n)
    return b.build()


class TestArrays:
    def test_basic_properties(self):
        arr = Array("A", (4, 5))
        assert arr.ndim == 2 and not arr.is_local
        assert arr.concrete_shape() == (4, 5)
        assert arr.footprint_bytes() == 4 * 5 * 4

    def test_symbolic_shape(self):
        arr = Array("A", (AffineExpr.var("N") + 2,))
        assert arr.concrete_shape({"N": 10}) == (12,)

    def test_invalid_memory(self):
        with pytest.raises(ValueError):
            Array("A", (4,), memory="weird")

    def test_indexing_builds_load(self):
        arr = Array("A", (4, 4))
        load = arr[AffineExpr.var("i"), AffineExpr.var("j") + 1]
        assert isinstance(load, Load) and len(load.indices) == 2

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Array("A", (4, 4))[AffineExpr.var("i")]


class TestExpressions:
    def test_arithmetic_and_eval(self):
        class Env:
            def read(self, array, idx):
                return 2.0

        arr = Array("A", (4,))
        expr = arr[AffineExpr.var("i")] * 3 + 1
        assert expr.evaluate(Env(), {"i": 0}) == 7.0

    def test_loads_collected(self):
        arr = Array("A", (4,))
        expr = arr[AffineExpr.var("i")] + arr[AffineExpr.var("i") + 1]
        assert len(expr.loads()) == 2

    def test_map_loads_rewrites(self):
        arr = Array("A", (4,))
        other = Array("L", (4,), memory="local")
        expr = arr[AffineExpr.var("i")] + 1
        rewritten = expr.map_loads(lambda load: Load(other, load.indices))
        assert rewritten.loads()[0].array.name == "L"

    def test_intrinsics(self):
        assert absolute(Const(-3)).evaluate(None, {}) == 3
        assert Iter("i").evaluate(None, {"i": 5}) == 5

    def test_unknown_intrinsic_rejected(self):
        from repro.ir.expressions import Call

        with pytest.raises(ValueError):
            Call("cosh", (Const(1),))


class TestBuilderAndProgram:
    def test_statement_domain_matches_loops(self):
        prog = build_stencil()
        stmt = prog.statement("S")
        assert stmt.domain.dims == ("i",)
        assert stmt.domain.params == ("N",)

    def test_duplicate_iterator_rejected(self):
        b = ProgramBuilder("p")
        b.array("A", (4,))
        with pytest.raises(ValueError):
            with b.loop("i", 0, 3):
                with b.loop("i", 0, 3):
                    pass

    def test_validation_catches_unscheduled_statement(self):
        prog = build_stencil()
        from repro.ir.statements import Statement

        orphan = prog.statement("S")
        prog.statements["orphan"] = Statement(
            name="orphan", domain=orphan.domain, lhs=orphan.lhs, rhs=orphan.rhs
        )
        with pytest.raises(ValueError):
            prog.validate()

    def test_printer_produces_c_like_text(self):
        text = program_to_c(build_stencil())
        assert "for (i = 1; i <= N; i++)" in text and "B[i]" in text

    def test_references_and_ranks(self):
        prog = build_stencil()
        stmt = prog.statement("S")
        assert len(stmt.read_references()) == 3
        assert stmt.write_reference().rank == 1


class TestASTHelpers:
    def test_evaluate_bound_rounding(self):
        assert evaluate_bound(AffineExpr.var("N") / 2, {"N": 5}, is_lower=True) == 3
        assert evaluate_bound(AffineExpr.var("N") / 2, {"N": 5}, is_lower=False) == 2
        assert evaluate_bound(QuasiAffineBound("min", (AffineExpr.var("N"), AffineExpr.const(3))), {"N": 10}, is_lower=False) == 3

    def test_loop_trip_count(self):
        loop = LoopNode("i", 0, 9, BlockNode(), step=2)
        assert loop.trip_count({}) == 5

    def test_guard_and_sync_validation(self):
        guard = GuardNode((Constraint.greater_equal(AffineExpr.var("i"), 0),), BlockNode())
        assert guard.holds_at({"i": 1}) and not guard.holds_at({"i": -1})
        with pytest.raises(ValueError):
            SyncNode(scope="universe")

    def test_statement_kind_validation(self):
        prog = build_stencil()
        with pytest.raises(ValueError):
            StatementNode(prog.statement("S"), kind="weird")


class TestRuntimeAndEmitter:
    def test_interpreter_matches_numpy(self):
        prog = build_stencil(16)
        a = np.arange(18, dtype=np.float64)
        ctx = run_program(prog, inputs={"A": a, "B": np.zeros(18)})
        expected = np.zeros(18)
        expected[1:17] = (a[0:16] + a[1:17] + a[2:18]) / 3
        assert np.allclose(ctx.data("B"), expected)

    def test_counters(self):
        prog = build_stencil(8)
        ctx = run_program(prog, inputs={"A": np.zeros(10), "B": np.zeros(10)})
        counters = ctx.counters.summary()
        assert counters["statement_instances"] == 8
        assert counters["global_reads"] == 24 and counters["global_writes"] == 8

    def test_emitted_python_matches_interpreter(self):
        prog = build_stencil(12)
        a = np.random.default_rng(0).random(14)
        ctx = run_program(prog, inputs={"A": a.copy(), "B": np.zeros(14)})
        fn = compile_to_python(prog)
        arrays = {"A": a.copy(), "B": np.zeros(14)}
        fn(arrays, {"N": 12})
        assert np.allclose(arrays["B"], ctx.data("B"))

    def test_reduction_execution(self):
        b = ProgramBuilder("acc")
        x = b.array("X", (4,))
        s = b.array("S", (1,))
        i = b.var("i")
        with b.loop("i", 0, 3):
            b.assign(s[AffineExpr.const(0)], x[i], reduction="+")
        prog = b.build()
        ctx = run_program(prog, inputs={"X": np.array([1.0, 2, 3, 4]), "S": np.zeros(1)})
        assert ctx.data("S")[0] == 10

    def test_out_of_bounds_read_raises(self):
        b = ProgramBuilder("oob")
        x = b.array("X", (4,))
        y = b.array("Y", (4,))
        i = b.var("i")
        with b.loop("i", 0, 3):
            b.assign(y[i], x[i + 2])
        with pytest.raises(IndexError):
            run_program(b.build())


class TestScanners:
    def test_scan_single_polyhedron_visits_all_points(self):
        poly = Polyhedron.from_bounds({"x": (0, 3), "y": (0, 2)})
        nest, innermost = __import__("repro.codegen.scan", fromlist=["loop_nest_for"]).loop_nest_for(poly)
        assert isinstance(nest, LoopNode)
        text = ast_to_c(nest)
        assert "x = 0" in text and "y = 0" in text

    def test_subtract_disjoint(self):
        a = Polyhedron.from_bounds({"x": (0, 5)})
        b = Polyhedron.from_bounds({"x": (2, 3)})
        pieces = subtract(a, b)
        assert union_point_count(pieces) == 4

    def test_make_disjoint_preserves_union(self):
        a = Polyhedron.from_bounds({"x": (0, 5), "y": (0, 5)})
        b = Polyhedron.from_bounds({"x": (3, 8), "y": (2, 7)})
        pieces = make_disjoint([a, b])
        assert union_point_count(pieces) == union_point_count([a, b]) == 60
        for idx, first in enumerate(pieces):
            for second in pieces[idx + 1 :]:
                assert not first.intersects(second)

    def test_scan_union_single_visit(self):
        a = Polyhedron.from_bounds({"x": (0, 5)})
        b = Polyhedron.from_bounds({"x": (3, 8)})
        block = scan_union([a, b], lambda piece: BlockNode([]))
        text = ast_to_c(block)
        assert text.count("for (") == 2

    def test_render_c_heads_the_inspection_text_with_the_launch(self):
        session = CompilationSession(build_stencil(4))
        text = session.render_c()
        assert text.startswith("/* kernel stencil_tiled */\n/* blocks=")
        assert text.endswith(program_to_c(session.compile().program))
