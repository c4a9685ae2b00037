"""Every guard the lowerings drop and every slice they prove, checked by enumeration.

``lowering_oracle.recorded_decisions`` runs the production emitters and logs
each pruning decision with the loops around it; ``verify_decisions`` runs
those loops and evaluates the dropped conjunct (it must hold) or the sliced
index (it must lie in ``[0, extent)``) at every integer point.  The negative
cases pin what must *not* be pruned or sliced, and two seeded bugs show the
checks can fail: a too-strong integer negation is caught by the enumeration,
a too-weak one (conservative, never wrong) by the zero-residual pin.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import lowering_oracle as oracle
from repro.codegen import emit_python_source, emit_python_source_vectorized
from repro.ir.ast import LoopNode
from repro.ir.builder import ProgramBuilder
from repro.ir.expressions import Iter
from repro.kernels import available_kernels
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint

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
        assert "+= float(_np.sum((l_A[" in source  # and a slice reduction


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
    reference, scalar, vector = oracle.run_all_python(program)
    assert np.array_equal(reference["O"], scalar["O"])
    assert np.array_equal(reference["O"], vector["O"])
    assert not np.array_equal(reference["O"][3:], oracle.seeded_arrays(program)["O"][3:])


def test_a_guard_the_bounds_imply_is_dropped():
    program = one_loop(lambda a, i: a[i], guard=Constraint(I - 3), lower=3)
    assert "if" not in body_of(emit_python_source(program))
    assert "O[_lo:_hi + 1] = A[_lo:_hi + 1]" in emit_python_source_vectorized(program)


def test_an_equality_is_never_dropped_even_when_implied():
    program = one_loop(lambda a, i: a[i], extent=4, guard=Constraint(I - 3, is_equality=True), lower=3)
    assert "if i - 3 == 0:" in emit_python_source(program)
    assert "i = i[(i - 3 == 0)]" in emit_python_source_vectorized(program)


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
    from repro.codegen.emit_py import loop_facts
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


def test_forgetting_the_minus_one_prunes_too_little_and_the_residual_pin_sees_it(monkeypatch):
    # -e >= 0 is the *rational* complement's closure: e = 0 stays feasible, so
    # chains like i >= it >= ip >= 0 no longer refute i < 0.  Sound, but slow.
    monkeypatch.setattr(Constraint, "negate", lambda self: Constraint(-self.expr))
    assert ">= 0" in body_of(emit_python_source_vectorized(mapped_kernel("matmul", 4, True)))
