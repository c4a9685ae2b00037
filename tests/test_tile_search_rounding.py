"""Property-style tests of the Section-4.3 integer rounding.

Whenever the relaxed problem's solver finds a feasible point, the rounded
integer tile vector returned by ``search_tile_sizes`` must itself satisfy
both hard constraints — the scratchpad-capacity bound and the
minimum-parallelism bound — and stay within the loop extents.
"""

from __future__ import annotations

import pytest

from repro.kernels import build_conv2d_program, build_matmul_program
from repro.machine import GEFORCE_8800_GTX
from repro.tiling.cost_model import DataMovementCostModel
from repro.tiling.tile_search import (
    TileSearchProblem,
    candidate_neighbourhood,
    search_tile_sizes,
    solve_relaxed,
)


def _matmul_model(n: int, threads: int) -> DataMovementCostModel:
    return DataMovementCostModel(
        program=build_matmul_program(n, n, n),
        tile_loops=["i", "j", "k"],
        loop_extents={"i": n, "j": n, "k": n},
        threads=threads,
        sync_cost=GEFORCE_8800_GTX.block_sync_cycles,
        transfer_cost=GEFORCE_8800_GTX.dma_cycles_per_element,
    )


def _is_relaxed_feasible(problem: TileSearchProblem, relaxed) -> bool:
    model = problem.cost_model
    return (
        model.footprint_bytes(relaxed) <= problem.memory_limit_bytes + 1e-6
        and model.work_per_tile(relaxed) >= problem.min_parallelism - 1e-6
    )


CASES = [
    (n, limit_kb, threads)
    for n in (32, 64, 128, 256)
    for limit_kb in (2, 4, 8, 16)
    for threads in (32, 128)
]


@pytest.mark.parametrize("n,limit_kb,threads", CASES)
def test_rounded_tiles_satisfy_constraints(n, limit_kb, threads):
    model = _matmul_model(n, threads)
    problem = TileSearchProblem(
        cost_model=model,
        memory_limit_bytes=limit_kb * 1024,
        min_parallelism=threads,
    )
    relaxed = solve_relaxed(problem)
    result = search_tile_sizes(problem)
    if not _is_relaxed_feasible(problem, relaxed):
        pytest.skip("relaxed problem infeasible for this corner")
    assert result.feasible, f"integer rounding lost feasibility at n={n} limit={limit_kb}KB"
    assert result.footprint_bytes <= problem.memory_limit_bytes + 1e-6
    assert model.work_per_tile(result.tile_sizes) >= problem.min_parallelism
    for loop, size in result.tile_sizes.items():
        assert 1 <= size <= model.loop_extents[loop]
        assert isinstance(size, int)


@pytest.mark.parametrize("n", [32, 128])
def test_neighbourhood_contains_relaxed_roundings(n):
    """floor/ceil of every relaxed coordinate appear among the candidates."""
    import math

    model = _matmul_model(n, 64)
    problem = TileSearchProblem(
        cost_model=model, memory_limit_bytes=8 * 1024, min_parallelism=64
    )
    relaxed = solve_relaxed(problem)
    neighbourhood = candidate_neighbourhood(problem, relaxed)
    for loop, value in relaxed.items():
        candidates = neighbourhood[loop]
        for rounding in (math.floor(value), math.ceil(value)):
            clamped = min(max(int(rounding), 1), model.loop_extents[loop])
            assert clamped in candidates


def test_rounded_cost_not_worse_than_extreme_corners():
    """The search never does worse than the trivial all-ones / full-extent tiles."""
    model = _matmul_model(64, 32)
    problem = TileSearchProblem(
        cost_model=model, memory_limit_bytes=16 * 1024, min_parallelism=32
    )
    result = search_tile_sizes(problem)
    assert result.feasible
    for corner in ({"i": 64, "j": 64, "k": 64}, {"i": 64, "j": 1, "k": 1}):
        if (
            model.footprint_bytes(corner) <= problem.memory_limit_bytes
            and model.work_per_tile(corner) >= problem.min_parallelism
        ):
            assert result.cost <= model.movement_cost(corner) + 1e-6


def test_conv2d_rounding_respects_constraints():
    """A second program shape (4-deep nest, partial staging) keeps the invariant."""
    program = build_conv2d_program(64, 64, 3)
    model = DataMovementCostModel(
        program=program,
        tile_loops=["i", "j", "k", "l"],
        loop_extents={"i": 64, "j": 64, "k": 3, "l": 3},
        threads=64,
        sync_cost=GEFORCE_8800_GTX.block_sync_cycles,
        transfer_cost=GEFORCE_8800_GTX.dma_cycles_per_element,
    )
    problem = TileSearchProblem(
        cost_model=model, memory_limit_bytes=8 * 1024, min_parallelism=64
    )
    relaxed = solve_relaxed(problem)
    result = search_tile_sizes(problem)
    if _is_relaxed_feasible(problem, relaxed):
        assert result.feasible
        assert result.footprint_bytes <= problem.memory_limit_bytes + 1e-6
        assert model.work_per_tile(result.tile_sizes) >= problem.min_parallelism
