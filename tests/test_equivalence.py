"""A stratified subset of the equivalence corpus (``tests/equivalence.py``), and
four seeded bugs it must catch.

The subset has every kernel under both targets, each tile choice twice and
every block and thread count, in 12 configurations, plus the lowering text
of the six kernels under ``lowering_oracle.MAPPINGS``.  jacobi2d's C text is
left to the full check (``python tests/equivalence.py --check``, in CI).
"""

import equivalence
import pytest

from repro.kernels import available_kernels
from repro.polyhedral import parametric
from repro.polyhedral.facts import Facts
from repro.polyhedral.parametric import QuasiAffineBound


def subset():
    points = []
    for k, kernel in enumerate(available_kernels()):
        for t, target in enumerate(equivalence.TARGETS):
            tile = equivalence.TILES[(2 * k + t) % len(equivalence.TILES)]
            blocks = equivalence.BLOCKS[(k + t) % len(equivalence.BLOCKS)]
            threads = equivalence.THREADS[(k + 2 * t) % len(equivalence.THREADS)]
            size = "default" if (k + t) % 2 and kernel != "jacobi2d" else "check"
            points.append((kernel, size, blocks, threads, tile, target))
    return points


def c_text(kernel):
    return kernel != "jacobi2d"


@pytest.fixture(scope="module")
def recorded():
    return equivalence.load()


def check(recorded):
    return equivalence.mismatches(
        recorded, subset(), equivalence.kernel_programs(), c_text=c_text
    )


def test_the_subset_is_stratified(recorded):
    points = subset()
    assert {p[0] for p in points} == set(available_kernels())
    assert {p[5] for p in points} == set(equivalence.TARGETS)
    assert {p[4] for p in points} == set(equivalence.TILES)
    assert {p[2] for p in points} == set(equivalence.BLOCKS)
    assert {p[3] for p in points} == set(equivalence.THREADS)
    assert {p[1] for p in points} == set(equivalence.SIZES)
    grid = equivalence.configuration_grid()
    assert len(grid) == len(recorded["configurations"]) == 1296
    assert {equivalence.configuration_key(*p) for p in grid} == set(recorded["configurations"])


def test_the_subset_matches_the_corpus(recorded):
    assert check(recorded) == []


def test_a_bound_term_dropped_without_proof_moves_the_lowered_text(recorded, monkeypatch):
    programs = list(equivalence.kernel_programs())  # mapped before the bug is seeded
    # "the first other term always dominates": true for some loops, not all
    monkeypatch.setattr(Facts, "never_loses", lambda self, term, other, kind: True)
    moved = equivalence.mismatches(recorded, [], programs)
    assert any("lower-py" in line for line in moved), moved


def test_a_min_swapped_for_a_max_in_a_resolved_hull_bound_moves_the_plan(recorded, monkeypatch):
    resolve = parametric.resolve_quasi_affine

    def swapped(bound, context=None):
        if bound.kind == "min":  # the union's lower bound: the least member bound
            bound = QuasiAffineBound("max", bound.exprs)
        return resolve(bound, context)

    monkeypatch.setattr(parametric, "resolve_quasi_affine", swapped)
    moved = equivalence.mismatches(recorded, subset(), [], c_text=c_text)
    assert any("offsets" in line for line in moved), moved


def test_hoisting_one_level_too_deep_moves_the_workload(recorded, monkeypatch):
    from repro.tiling import placement

    hoisted = placement.hoist_level_for_buffer
    monkeypatch.setattr(
        placement,
        "hoist_level_for_buffer",
        lambda spec, loops: min(hoisted(spec, loops) + 1, len(loops)),
    )
    moved = equivalence.mismatches(recorded, subset(), [], c_text=c_text)
    assert any("workload" in line for line in moved), moved


def test_a_missing_copy_out_moves_the_c_text(recorded, monkeypatch):
    from repro.scratchpad import manager

    movement = manager.generate_data_movement
    monkeypatch.setattr(
        manager,
        "generate_data_movement",
        lambda spec, generate_copy_in=True, generate_copy_out=True: movement(
            spec, generate_copy_in, False
        ),
    )
    moved = equivalence.mismatches(recorded, subset(), [], c_text=c_text)
    assert any(": c," in line or line.endswith(": c") for line in moved), moved
