"""How often the lowering and the planner fall back to Fourier–Motzkin, counted.

Both ask their implication and dominance questions of cheap proofs first
(a fact with the same terms, a box around the facts, sampled integer
points) and only then of the exact answer, ``fm.rows_infeasible``.  The
counts below were recorded when this file was written; a change that
makes either side ask the exact answer more often fails here, one that
asks it less lowers the pin.
"""

import contextlib

import pytest

from repro.autotune import SpaceOptions, autotune
from repro.autotune.space import Configuration
from repro.codegen import emit_python_source_vectorized
from repro.compiler import CompilationSession
from repro.kernels import get_kernel
from repro.polyhedral import fourier_motzkin as fm
from repro.polyhedral import parametric

#: (kernel, sizes, tile sizes) -> ``rows_infeasible`` calls lowering it to ``lower-py-vec``,
#: at the cold benchmark's geometry (16 blocks of 64 threads)
LOWERING_CALLS = {
    ("matmul", "i4_j8_k32"): 2,
    ("matmul", "i8_j8_k32"): 2,
    ("matmul", "i8_j8_k16"): 2,
    ("jacobi1d", "i1"): 0,
    ("jacobi1d", "i64"): 1,
}
SIZES = {"matmul": {"m": 32, "n": 32, "k": 32}, "jacobi1d": {"size": 1024}}
#: ``rows_infeasible`` calls made inside the planner's two questions on the
#: mpeg4_me cold request (``test_bound_resolution.py``'s request); 92 when
#: every dominance pair and every context component went to the exact answer
PLANNER_CALLS = 28


@contextlib.contextmanager
def counting_exact_answers(monkeypatch, active=lambda: True):
    calls = []
    original = fm.rows_infeasible

    def counted(*args, **kwargs):
        if active():
            calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fm, "rows_infeasible", counted)
    yield calls


def tiles_of(name):
    return tuple((part[0], int(part[1:])) for part in name.split("_"))


@pytest.mark.parametrize("kernel, tiles", sorted(LOWERING_CALLS))
def test_lowering_a_candidate_asks_the_exact_answer_no_more_often(kernel, tiles, monkeypatch):
    configuration = Configuration(
        num_blocks=16, threads_per_block=64, tile_sizes=tiles_of(tiles)
    )
    session = CompilationSession(get_kernel(kernel).build(**SIZES[kernel]))
    program = session.replay(config=configuration).program  # copy nests spliced
    with counting_exact_answers(monkeypatch) as calls:
        emit_python_source_vectorized(program)
    assert len(calls) <= LOWERING_CALLS[kernel, tiles]


def test_the_planner_asks_the_exact_answer_no_more_often(monkeypatch):
    depth = [0]
    for name in ("_dominant_candidate", "_projected_maximum"):
        original = getattr(parametric, name)

        def inside(*args, _original=original, **kwargs):
            depth[0] += 1
            try:
                return _original(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(parametric, name, inside)
    with counting_exact_answers(monkeypatch, active=lambda: depth[0] > 0) as calls:
        report = autotune(
            get_kernel("mpeg4_me").build(height=16, width=16, window=2),
            cache=None,
            strategy="pruned",
            space_options=SpaceOptions(
                thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
            ),
            seed=1,
        )
    assert len(report.results) >= 2
    assert len(calls) <= PLANNER_CALLS
