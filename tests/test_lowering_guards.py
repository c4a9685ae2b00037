"""Every conjunct, bound term and loop the lowerings drop, every slice they prove: by enumeration.

``lowering_oracle.recorded_decisions`` runs the production lowering under
each printer and logs each pruning decision with the loops around it;
``verify_decisions`` runs those loops and evaluates the dropped conjunct or
bound-term dominance (it must hold), the substituted loop (it must run
once, at its value) or the sliced index (it must lie in ``[0, extent)``) at
every integer point.  The structural tests pin what the benchmark kernels
lower to, the negative cases what must *not* be pruned or sliced, and four
seeded bugs show the checks can fail: a too-strong integer negation, a bound
term dropped without proof and a loop over a rational form collapsed are
caught by the enumeration, a too-weak negation (conservative, never wrong)
by the zero-residual pin.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import lowering_oracle as oracle
from repro.codegen import emit_python_source, emit_python_source_vectorized, lower
from repro.codegen.emit_c_exec import CPrinter
from repro.codegen.emit_py import PythonPrinter
from repro.codegen.emit_py_vec import NumpyPrinter
from repro.codegen.lower import Lowering
from repro.ir.ast import THREAD_PARALLEL, LoopNode
from repro.ir.builder import ProgramBuilder
from repro.ir.expressions import Iter
from repro.kernels import available_kernels
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.facts import Facts

COMMON = dict(deadline=None, derandomize=True, suppress_health_check=list(HealthCheck))
mapped_kernel = oracle.mapped_kernel


def body_of(source):
    """The kernel function's statements, without the module header."""
    return source[source.index("def kernel") :]


# -- soundness, by enumeration -------------------------------------------------------------
@pytest.mark.parametrize("tile, scratchpad", oracle.MAPPINGS)
@pytest.mark.parametrize("name", available_kernels())
def test_registered_kernels_every_decision_holds_at_every_point(name, tile, scratchpad):
    program = mapped_kernel(name, tile, scratchpad)
    _source, decisions = oracle.recorded_decisions(program)
    assert any(d.must_hold for d in decisions), "nothing was pruned: the check is vacuous"
    assert oracle.verify_decisions(program, decisions) > 0


@settings(max_examples=60, **COMMON)
@given(oracle.programs())
def test_generated_programs_every_decision_holds_at_every_point(program):
    _source, decisions = oracle.recorded_decisions(program)
    oracle.verify_decisions(program, decisions)


@settings(max_examples=40, **COMMON)
@given(st.data())
def test_generated_mappings_every_decision_holds_at_every_point(data):
    program = data.draw(oracle.programs(mappable=True))
    mapped = oracle.mapped_program(program, data.draw(oracle.configurations(program)))
    assume(mapped is not None)
    _source, decisions = oracle.recorded_decisions(mapped)
    oracle.verify_decisions(mapped, decisions)


# -- what the benchmark kernels lower to ---------------------------------------------------
@pytest.mark.parametrize("name", ["matmul", "jacobi1d"])
def test_dividing_tiles_leave_no_guard_mask_or_gather(name):
    source = body_of(emit_python_source_vectorized(mapped_kernel(name, 4, True)))
    for needle in ("Fraction(", "_ceil(", "_floor(", "_idx(", "_np.arange(", ">= 0"):
        assert needle not in source, needle
    assert "_hi + 1] = " in source  # a slice assignment was emitted
    if name == "matmul":
        assert "+= float(_np.dot(l_A[" in source  # and a slice reduction, as a dot


PRINTERS = (PythonPrinter, NumpyPrinter, CPrinter)


def printed_loops(program, printer_class):
    """``(iterator, lower, upper)`` of every loop (vector loops too) the printer writes."""
    printed = []

    class Recording(printer_class):
        def loop(self, iterator, lower, upper, step, depth):
            printed.append((iterator, lower, upper))
            super().loop(iterator, lower, upper, step, depth)

        def vector_loop(self, iterator, lower, upper, step, mask, depth):
            printed.append((iterator, lower, upper))
            super().vector_loop(iterator, lower, upper, step, mask, depth)

    Lowering(program, Recording()).lower(set(program.bound_params()), 1)
    return printed


@pytest.mark.parametrize("printer_class", PRINTERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("tile, scratchpad", oracle.MAPPINGS)
@pytest.mark.parametrize("name", available_kernels())
def test_no_printed_loop_runs_once_at_one_integral_value(name, tile, scratchpad, printer_class):
    loops = printed_loops(mapped_kernel(name, tile, scratchpad), printer_class)
    assert loops
    for iterator, (_low_kind, low), (_high_kind, high) in loops:
        assert not (len(low) == 1 and low == high and low[0][0] == 1), iterator


@pytest.mark.parametrize("tile", [4, 3])  # each of the 4 threads owns one point of a tile
def test_jacobi1d_has_no_python_loop_over_the_thread_iterator(tile):
    program = mapped_kernel("jacobi1d", tile, True)
    (thread,) = [
        node.iterator
        for node in program.body.walk()
        if isinstance(node, LoopNode) and node.parallel == THREAD_PARALLEL
    ]
    source = body_of(emit_python_source_vectorized(program))
    assert f"for {thread} in" not in source
    assert "B[_lo:_hi + 1] = " in source


@pytest.mark.parametrize("tile, scratchpad", oracle.MAPPINGS)
def test_matmul_reduces_k_as_a_dot(tile, scratchpad):
    source = body_of(emit_python_source_vectorized(mapped_kernel("matmul", tile, scratchpad)))
    assert "+= float(_np.dot(" in source and "_np.sum(" not in source


def test_a_point_loop_is_a_substitution_in_every_printer():
    # for j: for i in j..j: O[j] = A[i] + i -- the i loop runs once, at i = j
    builder = ProgramBuilder("point")
    a = builder.array("A", (8,), dtype="float64")
    out = builder.array("O", (8,), dtype="float64")
    with builder.loop("j", 0, 7) as j:
        with builder.loop("i", j, j) as i:
            builder.assign(out[j], a[i] + Iter("i"))
    program = builder.build()
    assert "for i in" not in emit_python_source(program)
    assert "O[j] = (A[j] + (j))" in emit_python_source(program)
    assert "long i" not in oracle.emit_c_harness(program)
    assert "O[_lo:_hi + 1]" not in emit_python_source_vectorized(program)  # the value is read
    (reference, _), (scalar, _), (vector, _) = oracle.run_all_python(program)
    assert np.array_equal(reference["O"], scalar["O"])
    assert np.array_equal(reference["O"], vector["O"])
    _source, decisions = oracle.recorded_decisions(program)
    assert any(decision.one_trip for decision in decisions)
    assert oracle.verify_decisions(program, decisions) > 0


# -- negative cases: what must not be pruned or sliced ------------------------------------------
def one_loop(rhs_of, extent=8, a_extent=8, guard=None, lower=0):
    """``for i in lower..extent-1: [if guard:] O[i] = rhs_of(A, i)``."""
    builder = ProgramBuilder("negative")
    a = builder.array("A", (a_extent,), dtype="float64")
    out = builder.array("O", (extent,), dtype="float64")
    with builder.loop("i", lower, extent - 1) as i:
        builder.assign(out[i], rhs_of(a, i))
    program = builder.build()
    if guard is not None:
        oracle.guard_the_statement(program, [guard], as_domain=False)
    return program


I = AffineExpr.var("i")


def test_a_guard_the_bounds_do_not_imply_is_kept():
    program = one_loop(lambda a, i: a[i], guard=Constraint(I - 3))
    assert "if i - 3 >= 0:" in emit_python_source(program)
    assert "i = i[(i - 3 >= 0)]" in emit_python_source_vectorized(program)
    (reference, _), (scalar, _), (vector, _) = oracle.run_all_python(program)
    assert np.array_equal(reference["O"], scalar["O"])
    assert np.array_equal(reference["O"], vector["O"])
    assert not np.array_equal(reference["O"][3:], oracle.seeded_arrays(program)["O"][3:])


def test_a_guard_the_bounds_imply_is_dropped():
    program = one_loop(lambda a, i: a[i], guard=Constraint(I - 3), lower=3)
    assert "if" not in body_of(emit_python_source(program))
    assert "O[_lo:_hi + 1] = A[_lo:_hi + 1]" in emit_python_source_vectorized(program)


def test_an_equality_is_never_dropped_even_when_implied():
    # the outer guard pins i to 3; a loop over 3..3 would not be a loop at all
    program = one_loop(lambda a, i: a[i])
    oracle.guard_the_statement(program, [Constraint(I - 3), Constraint(3 - I)], as_domain=False)
    oracle.guard_the_statement(program, [Constraint(I - 3, is_equality=True)], as_domain=False)
    assert "if i - 3 == 0:" in emit_python_source(program)
    assert "(i - 3 == 0)]" in emit_python_source_vectorized(program)


def test_a_negative_coefficient_index_keeps_the_gather():
    source = emit_python_source_vectorized(one_loop(lambda a, i: a[7 - i]))
    assert "_np.arange(0, 8, 1)" in source and "O[i] = A[-i + 7]" in source


def test_the_iterator_used_as_a_value_keeps_the_gather():
    source = emit_python_source_vectorized(one_loop(lambda a, i: a[i] + Iter("i")))
    assert "_np.arange(0, 8, 1)" in source and "O[i] = (A[i] + i)" in source


def test_an_index_that_can_leave_its_array_keeps_the_gather_and_its_error():
    # A holds 8 elements but the loop reads A[i + 1] up to A[8]
    program = one_loop(lambda a, i: a[i + 1])
    source = emit_python_source_vectorized(program)
    assert "O[i] = A[i + 1]" in source and "_np.arange" in source
    arrays = oracle.seeded_arrays(program)
    with pytest.raises(IndexError):
        oracle.run_source(source, program, arrays)
    with pytest.raises(IndexError):
        oracle.run_interpreter(program, arrays)


def test_an_index_below_zero_keeps_the_gather():
    # a slice would count a negative start from the end of the array
    source = emit_python_source_vectorized(one_loop(lambda a, i: a[i - 1], a_extent=9))
    assert "O[i] = A[i - 1]" in source and "_np.arange" in source


def test_the_iterator_in_two_dimensions_of_one_load_keeps_the_gather():
    builder = ProgramBuilder("diagonal")
    a = builder.array("A", (8, 8), dtype="float64")
    out = builder.array("O", (8,), dtype="float64")
    with builder.loop("i", 0, 7) as i:
        builder.assign(out[i], a[i, i])
    source = emit_python_source_vectorized(builder.build())
    assert "O[i] = A[i, i]" in source and "_np.arange" in source


def test_a_min_lower_bound_contributes_no_fact():
    from repro.codegen.lower import loop_facts
    from repro.polyhedral.parametric import QuasiAffineBound

    backwards = LoopNode("i", QuasiAffineBound("min", (AffineExpr.var("a"), AffineExpr.const(0))), 7)
    assert [str(fact) for fact in loop_facts(backwards)] == ["- i + 7 >= 0"]


# -- seeded bugs: the checks can fail ----------------------------------------------------------
def boundary_program():
    """``i - 1 >= 0`` under ``for i in 0..7``: violated exactly at ``i = 0``."""
    return one_loop(lambda a, i: a[i], guard=Constraint(I - 1))


def test_an_off_by_one_too_strong_negation_is_caught_by_the_enumeration(monkeypatch):
    _source, sound = oracle.recorded_decisions(boundary_program())
    oracle.verify_decisions(boundary_program(), sound)
    monkeypatch.setattr(Constraint, "negate", lambda self: Constraint(-self.expr - 2))
    program = boundary_program()
    _source, decisions = oracle.recorded_decisions(program)
    with pytest.raises(AssertionError, match="dropped i - 1 >= 0 fails at"):
        oracle.verify_decisions(program, decisions)


def test_a_bound_term_dropped_without_proof_is_caught_by_the_enumeration(monkeypatch):
    program = mapped_kernel("matmul", 3, True)
    oracle.verify_decisions(program, oracle.recorded_decisions(program)[1])
    # "the first other term always dominates": true for some loops, not all
    monkeypatch.setattr(Facts, "never_loses", lambda self, term, other, kind: True)
    _source, decisions = oracle.recorded_decisions(program)
    with pytest.raises(AssertionError, match="dropped .* fails at"):
        oracle.verify_decisions(program, decisions)


def half_step_program():
    """``for j in 0..7: for i in j/2 .. j/2: O[j] = A[j]``: one trip at even ``j``, none at odd."""
    builder = ProgramBuilder("half")
    a = builder.array("A", (8,), dtype="float64")
    out = builder.array("O", (8,), dtype="float64")
    half = AffineExpr({"j": Fraction(1, 2)})
    with builder.loop("j", 0, 7) as j:
        with builder.loop("i", half, half):
            builder.assign(out[j], a[j])
    return builder.build()


def test_collapsing_a_loop_over_a_rational_form_is_caught_by_the_enumeration(monkeypatch):
    program = half_step_program()
    assert "for i in range(-(-(j) // 2), (j + 2) // 2):" in emit_python_source(program)
    (reference, _), (scalar, _), (vector, _) = oracle.run_all_python(program)
    assert np.array_equal(reference["O"], scalar["O"])
    assert np.array_equal(reference["O"], vector["O"])
    monkeypatch.setattr(lower, "_is_integral", lambda expr: True)
    _source, decisions = oracle.recorded_decisions(program)
    with pytest.raises(AssertionError, match=r"point loop i = 1/2\*j runs \[\] at"):
        oracle.verify_decisions(program, decisions)


def test_forgetting_the_minus_one_prunes_too_little_and_the_residual_pin_sees_it(monkeypatch):
    # -e >= 0 is the *rational* complement's closure: e = 0 stays feasible, so
    # chains like i >= it >= ip >= 0 no longer refute i < 0.  Sound, but slow.
    monkeypatch.setattr(Constraint, "negate", lambda self: Constraint(-self.expr))
    assert ">= 0" in body_of(emit_python_source_vectorized(mapped_kernel("matmul", 4, True)))
