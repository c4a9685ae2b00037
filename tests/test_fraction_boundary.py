"""Hot-path gate: a replay builds ``Fraction`` objects at the API boundary only.

The polyhedral layer computes on integer rows; ``Fraction`` is what the typed
accessors (``coefficient()``, ``constant``) hand to the layers above.  This
test counts the ``Fraction`` objects the program itself constructs during one
``session.replay(config=…)`` of each registered kernel and pins the count: the
handful of accessor reads the passes really make (rank tests, hoisting
placement).  The scanner's loop bounds came as ``Fraction`` coefficients
until it read them off the rows (``fm.row_bounds``): conv2d 128, matmul and
distributed-gemm 97, mpeg4_me 143 before that.  The commit before
expressions were stored as ints constructed 375 – 2 436 per replay itself and
700 – 5 300 counting the results of ``Fraction`` arithmetic.  Those —
constructions ``fractions.py`` makes for its own arithmetic — are not counted
here: from Python 3.12 on they bypass ``__new__``, so only the program's own
calls repeat exactly across versions.

The second half pins what must *not* move when the layer gets faster: per cold
request of ``benchmarks/e2e`` one analysis run per session, the same number of
candidates, and the same winning modelled time, bit for bit.
"""

import fractions
import sys

import pytest

from repro.autotune import autotune
from repro.autotune.space import ConfigurationSpace
from repro.compiler import CompilationSession, counting_stage_runs
from repro.kernels import get_kernel
from test_decisions_unchanged import SIZES, SPACE

#: ``Fraction`` objects the program constructs in one cold replay
BOUNDARY_CONSTRUCTIONS = {
    "conv2d": 72,
    "distributed-gemm": 53,
    "jacobi1d": 4,
    "jacobi2d": 24,
    "matmul": 53,
    "mpeg4_me": 71,
}


@pytest.fixture
def constructions(monkeypatch):
    """``[n]``: how often code outside ``fractions.py`` called ``Fraction(...)``."""
    count = [0]
    original = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        if sys._getframe(1).f_code.co_filename != fractions.__file__:
            count[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    return count


@pytest.mark.parametrize("name", sorted(BOUNDARY_CONSTRUCTIONS))
def test_a_replay_constructs_fractions_at_the_boundary_only(name, constructions):
    program = get_kernel(name).build(**SIZES[name])
    config = ConfigurationSpace(program, space_options=SPACE).seed_configuration()
    session = CompilationSession(program)  # fresh: nothing memoised, analysis included
    constructions[0] = 0
    session.replay(config=config).program  # the copy loops are scanned on this read
    assert constructions[0] == BOUNDARY_CONSTRUCTIONS[name]


#: workload -> (backend, spot-check?, ((kernel, sizes, candidates, winner model_time_ms), ...))
COLD_WORKLOADS = {
    "cold-model": (
        "model:",
        False,
        (
            ("matmul", {"m": 64, "n": 64, "k": 64}, 3, "0x1.4ca1b11ec1a3fp-6"),
            ("mpeg4_me", {"height": 16, "width": 16, "window": 2}, 2, "0x1.096012eec0548p-7"),
            ("jacobi1d", {"size": 1024}, 2, "0x1.0b1940aa4be81p-7"),
        ),
    ),
    "cold-hybrid": (
        "hybrid:model>measure-py?top=4",
        True,
        (
            ("matmul", {"m": 32, "n": 32, "k": 32}, 3, "0x1.3a60ed3118278p-7"),
            ("jacobi1d", {"size": 1024}, 2, "0x1.0b1940aa4be81p-7"),
        ),
    ),
}


@pytest.mark.parametrize("workload", sorted(COLD_WORKLOADS))
def test_cold_requests_analyse_once_and_decide_as_before(workload):
    backend, check, requests = COLD_WORKLOADS[workload]
    for name, sizes, candidates, winner in requests:
        kernel = get_kernel(name)
        with counting_stage_runs() as stages:
            report = autotune(
                kernel.build(**sizes),
                cache=None,
                backend=backend,
                strategy="pruned",
                space_options=SPACE,
                seed=0,
                check_correctness=check,
                check_program=kernel.build_check() if check else None,
            )
        # one analysis per request: the hybrid's spot-check runs the winner's
        # lowering, so no check program is analysed
        assert stages.counts["analysis"] == 1
        assert report.num_evaluations == candidates
        best = min(
            (r.measurement.metadata if r.measurement else {}).get("model_time_ms", r.time_ms)
            for r in report.results
            if r.feasible
        )
        assert best.hex() == winner
