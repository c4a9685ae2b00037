"""The spot-check a ``measure-py`` backend makes by running the winner.

A spot-checked request on ``measure-py:`` (alone, or as a hybrid's
secondary) decides the would-be winner's ``correct`` from one run of its
memoized ``lower-py-vec`` artifact on seeded inputs at the tuned size,
compared with one run of the *unmapped* program's lowering on the same
inputs.  The interpreter stays the oracle of both lowerings
(``test_lowering_differential.py``); these tests hold the run check to the
interpreted one: the same verdict under the four seeded bugs of
``test_equivalence.py``, a rejection of a bug only the lowered kernel has, no
false rejects, one read-only reference per evaluator, and unchanged cache keys.
"""

import pickle

import numpy as np
import pytest

from repro.autotune import SpaceOptions, autotune
from repro.autotune import evaluate as evaluate_module
from repro.autotune.backends import measured_py, seeded_inputs
from repro.autotune.evaluate import SPOT_CHECKS_TOTAL, ConfigurationEvaluator
from repro.autotune.space import Configuration
from repro.compiler.passes import LowerPyVecPass
from repro.kernels import get_kernel
from repro.polyhedral import parametric
from repro.polyhedral.facts import Facts
from repro.polyhedral.parametric import QuasiAffineBound
from repro.runtime.interpreter import run_program
from repro.telemetry import trace

#: the end-to-end benchmark's cold space and backend
SPACE = SpaceOptions(thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2)
HYBRID = "hybrid:model>measure-py?top=4"
#: the cold-hybrid workload's requests
COLD_HYBRID = {"matmul": {"m": 32, "n": 32, "k": 32}, "jacobi1d": {"size": 1024}}
#: ``test_decisions_unchanged.py``'s sizes, every kernel tuned on one device
SIZES = {
    "matmul": {"m": 32, "n": 32, "k": 32},
    "conv2d": {"height": 16, "width": 16, "kernel": 3},
    "jacobi1d": {"size": 1024},
    "jacobi2d": {"height": 16, "width": 16},
    "distributed-gemm": {"m": 32, "n": 32, "k": 32},
    "mpeg4_me": {"height": 16, "width": 16, "window": 2},
}
#: the fingerprint of the spot-checked hybrid matmul 32³ request, recorded
#: while the interpreter still checked it: the check changed, the key did not
CHECKED_MATMUL_FINGERPRINT = "0a5209e88d402a738d0cf0faf129eb9f207839fb546791bd53529259e196af1f"


def tune(name, backend=HYBRID, check=True):
    kernel = get_kernel(name)
    return autotune(
        kernel.build(**SIZES[name]),
        backend=backend,
        strategy="pruned",
        space_options=SPACE,
        seed=0,
        check_correctness=check,
        check_program=kernel.build_check() if check else None,
    )


@pytest.fixture
def interpreted(monkeypatch):
    """Every program the evaluator interprets, in order."""
    programs = []
    interpret = evaluate_module.run_program
    monkeypatch.setattr(
        evaluate_module,
        "run_program",
        lambda program, **kwargs: programs.append(program) or interpret(program, **kwargs),
    )
    return programs


@pytest.fixture(scope="module")
def winners():
    """The would-be winners of the cold-hybrid workload's spot-checked tunes."""
    reports = {name: tune(name) for name in COLD_HYBRID}
    assert all(report.best.correct is True for report in reports.values())
    return {name: report.best.configuration for name, report in reports.items()}


def verdicts(name, config):
    """``(run, interpreted)`` verdicts of fresh evaluators on ``config``.

    An interpreter that refuses the mapped program (an out-of-bounds write)
    rejects it, so that counts as ``False``."""
    kernel = get_kernel(name)
    program = kernel.build(**SIZES[name])
    run = ConfigurationEvaluator(program, backend=HYBRID, check_correctness=True)
    model = ConfigurationEvaluator(
        program, check_correctness=True, check_program=kernel.build_check()
    )
    try:
        interpreted_verdict = model.spot_check(config)
    except IndexError:
        interpreted_verdict = False
    return run.spot_check(config), interpreted_verdict


# -- the four seeded bugs of test_equivalence.py --------------------------------------------
def drop_a_bound_term(monkeypatch):
    monkeypatch.setattr(Facts, "never_loses", lambda self, term, other, kind: True)


def swap_min_for_max(monkeypatch):
    resolve = parametric.resolve_quasi_affine

    def swapped(bound, context=None):
        if bound.kind == "min":
            bound = QuasiAffineBound("max", bound.exprs)
        return resolve(bound, context)

    monkeypatch.setattr(parametric, "resolve_quasi_affine", swapped)


def hoist_too_deep(monkeypatch):
    from repro.tiling import placement

    hoisted = placement.hoist_level_for_buffer
    monkeypatch.setattr(
        placement,
        "hoist_level_for_buffer",
        lambda spec, loops: min(hoisted(spec, loops) + 1, len(loops)),
    )


def drop_the_copy_out(monkeypatch):
    from repro.scratchpad import manager

    movement = manager.generate_data_movement
    monkeypatch.setattr(
        manager,
        "generate_data_movement",
        lambda spec, generate_copy_in=True, generate_copy_out=True: movement(
            spec, generate_copy_in, False
        ),
    )


@pytest.mark.parametrize(
    "mutation", [drop_a_bound_term, swap_min_for_max, hoist_too_deep, drop_the_copy_out]
)
def test_the_run_check_gives_the_interpreted_verdict_under_each_seeded_bug(
    winners, mutation, monkeypatch
):
    mutation(monkeypatch)
    found = {name: verdicts(name, config) for name, config in winners.items()}
    for name, (run, interpreted_verdict) in found.items():
        assert run is interpreted_verdict, (name, found)
    if mutation is drop_the_copy_out:  # the bug is real: some winner must fail
        assert not all(run for run, _ in found.values()), found


def test_a_bug_only_the_lowered_kernel_has_is_rejected(winners, monkeypatch):
    """A reduction printed as an assignment: the interpreter (which never
    reads the lowering) passes the winner, the run rejects it, and so a
    spot-checked hybrid request finds no correct candidate."""
    lower = LowerPyVecPass.run

    def assigning(self, ctx):
        source = lower(self, ctx)
        assert "] += float(" in source
        return source.replace("] += float(", "] = float(")

    monkeypatch.setattr(LowerPyVecPass, "run", assigning)
    assert verdicts("matmul", winners["matmul"]) == (False, True)
    before = SPOT_CHECKS_TOTAL.value(verdict="fail")
    with pytest.raises(ValueError, match="no feasible \\(and correct\\) configuration"):
        tune("matmul")
    assert SPOT_CHECKS_TOTAL.value(verdict="fail") > before


@pytest.mark.parametrize("name", sorted(SIZES))
def test_the_reference_equals_the_interpreter_under_a_dropped_bound_term(name, monkeypatch):
    """The mutation patches the walker that lowers the unmapped reference
    too.  The kernels' unmapped loops have one-term bounds, so it finds
    nothing to drop there, and at the check size the reference still
    computes what the interpreter does."""
    drop_a_bound_term(monkeypatch)
    program = get_kernel(name).build_check()
    inputs = seeded_inputs(program, 0)
    arrays = measured_py.seeded_arrays(program, inputs)
    source = measured_py.emit_python_source_vectorized(program)
    measured_py.run_lowered(source, program, arrays, program.bound_params())
    interpreted_context = run_program(program, inputs=inputs)
    for array in inputs:
        assert np.allclose(arrays[array], interpreted_context.data(array)), array


def test_one_reference_per_evaluator_still_fails_a_corrupted_candidate(monkeypatch, interpreted):
    """The ``measure-py`` twin of ``test_autotune.py``'s shared interpreted
    reference: built once per evaluator, read-only, dropped on pickle and
    rebuilt by the copy, which still reaches both verdicts."""
    good = Configuration.make(4, 16, {"i": 4, "j": 4, "k": 8})
    bad = Configuration.make(4, 16, {"i": 8, "j": 4, "k": 8})
    lower = LowerPyVecPass.run

    def corrupting(self, ctx):  # the bad candidate's kernel doubles its first array
        source = lower(self, ctx)
        if ctx.options.tile_sizes == bad.tile_dict:
            source = source.replace(
                "    return _blocks", "    next(iter(arrays.values()))[...] *= 2.0\n    return _blocks"
            )
        return source

    references = []
    emit = measured_py.emit_python_source_vectorized
    monkeypatch.setattr(LowerPyVecPass, "run", corrupting)
    monkeypatch.setattr(
        measured_py,
        "emit_python_source_vectorized",
        lambda program: references.append(program.name) or emit(program),
    )

    program = get_kernel("matmul").build(m=16, n=16, k=16)
    evaluator = ConfigurationEvaluator(
        program, backend="measure-py:", check_correctness=True, seed=3
    )
    assert evaluator.spot_check(good) is True
    assert evaluator.spot_check(bad) is False
    assert evaluator.spot_check(good) is True  # the reference was not disturbed
    assert references == [program.name] and interpreted == []
    inputs, expected = evaluator.backend._reference
    assert set(expected) == set(inputs) == {
        a.name for a in program.arrays.values() if not a.is_local
    }
    assert not any(a.flags.writeable for a in (*inputs.values(), *expected.values()))

    # a pool worker's copy runs the reference again and reaches both verdicts
    restored = pickle.loads(pickle.dumps(evaluator))
    assert restored.backend._reference is None and restored._reference is None
    assert restored.spot_check(bad) is False
    assert restored.spot_check(good) is True
    assert references == [program.name] * 2 and interpreted == []


@pytest.mark.parametrize("name", sorted(SIZES))
def test_a_checked_hybrid_tune_crowns_the_unchecked_winner(name, interpreted):
    unchecked = tune(name, check=False)
    with trace.capture_trace() as collector:
        checked = tune(name)
    assert checked.best.configuration == unchecked.best.configuration
    assert checked.best.correct is True
    assert interpreted == []
    methods = [
        span.attrs["method"]
        for span, _depth in trace.iter_spans(collector.roots)
        if span.name == "spot-check"
    ]
    assert methods == ["run"]
    if name == "matmul":
        assert checked.fingerprint == CHECKED_MATMUL_FINGERPRINT


def test_the_model_backend_still_interprets_its_check_program(interpreted):
    with trace.capture_trace() as collector:
        report = tune("matmul", backend="model:")
    assert report.best.correct is True
    methods = [
        span.attrs["method"]
        for span, _depth in trace.iter_spans(collector.roots)
        if span.name == "spot-check"
    ]
    assert methods == ["interpreted"]
    assert len(interpreted) == 2  # the reference, and the winner's mapped check program
