"""The in-repo §4.3 relaxation against the SLSQP solve it replaced.

For every registered kernel and every launch geometry of the end-to-end
benchmark's cold space and of the default :class:`SpaceOptions`, the relaxed
point of :func:`solve_relaxed` must be feasible whenever the oracle's is, and
the integer winner rounded from it must have an exact ``movement_cost`` no
higher than the one rounded from the oracle's point (``tests/slsqp_oracle.py``,
scipy's SLSQP on finite differences of the exact model).
"""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import slsqp_oracle
from repro.autotune import SpaceOptions
from repro.autotune.space import ConfigurationSpace
from repro.kernels import available_kernels, build_matmul_program, get_kernel
from repro.machine import GEFORCE_8800_GTX
from repro.tiling.cost_model import DataMovementCostModel
from repro.tiling.tile_search import (
    TileSearchProblem,
    candidate_neighbourhood,
    search_tile_sizes,
    solve_relaxed,
)

#: the end-to-end benchmark's cold sizes, the decisions test's for the rest
SIZES = {
    "matmul": {"m": 64, "n": 64, "k": 64},
    "conv2d": {"height": 16, "width": 16, "kernel": 3},
    "jacobi1d": {"size": 1024},
    "jacobi2d": {"height": 16, "width": 16},
    "distributed-gemm": {"m": 32, "n": 32, "k": 32},
    "mpeg4_me": {"height": 16, "width": 16, "window": 2},
}
DEFAULT = SpaceOptions()
#: the cold space's one geometry, then the default space's nine
GEOMETRIES = sorted(
    {(16, 64)} | set(itertools.product(DEFAULT.block_counts, DEFAULT.thread_counts))
)


@functools.lru_cache(maxsize=None)
def _space(name: str) -> ConfigurationSpace:
    return ConfigurationSpace(get_kernel(name).build(**SIZES[name]))


def _feasible(problem: TileSearchProblem, sizes) -> bool:
    model = problem.cost_model
    return (
        model.footprint_bytes(sizes) <= problem.memory_limit_bytes + 1e-6
        and model.work_per_tile(sizes) >= problem.min_parallelism - 1e-6
    )


def _rounded_cost(problem: TileSearchProblem, relaxed) -> float:
    """Exact cost of the best feasible integer vector around *relaxed* (inf: none)."""
    model = problem.cost_model
    neighbourhood = candidate_neighbourhood(problem, relaxed)
    costs = [
        model.movement_cost(sizes)
        for combination in itertools.product(*[neighbourhood[loop] for loop in model.tile_loops])
        for sizes in (dict(zip(model.tile_loops, combination)),)
        if _feasible(problem, sizes)
    ]
    return min(costs, default=float("inf"))


def _check_against_oracle(problem: TileSearchProblem) -> None:
    relaxed, oracle = solve_relaxed(problem), slsqp_oracle.solve_relaxed(problem)
    if _feasible(problem, oracle):
        assert _feasible(problem, relaxed), (relaxed, oracle)
    else:
        assert _feasible(problem, relaxed) or set(relaxed.values()) == {1.0}
    result = search_tile_sizes(problem)
    winner = result.cost if result.feasible else float("inf")
    assert winner <= _rounded_cost(problem, oracle) + 1e-9, (result, oracle)


@pytest.mark.parametrize("name", available_kernels())
@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: f"b{g[0]}t{g[1]}")
def test_relaxation_is_feasible_and_rounds_no_worse_than_slsqp(name, geometry):
    space = _space(name)
    num_blocks, threads = geometry
    problem = TileSearchProblem(
        cost_model=space.cost_model(num_blocks, threads),
        memory_limit_bytes=float(space.memory_limit(num_blocks)),
        min_parallelism=threads,
    )
    _check_against_oracle(problem)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([16, 24, 48, 64, 96, 128]),
    limit_kb=st.integers(min_value=1, max_value=16),
    threads=st.sampled_from([16, 32, 64, 128, 256]),
)
def test_matmul_capacity_sweep(n, limit_kb, threads):
    """Scratchpad limits from 1 KB up bind the memory constraint at every size."""
    model = DataMovementCostModel(
        program=build_matmul_program(n, n, n),
        tile_loops=["i", "j", "k"],
        loop_extents={"i": n, "j": n, "k": n},
        threads=threads,
        sync_cost=GEFORCE_8800_GTX.block_sync_cycles,
        transfer_cost=GEFORCE_8800_GTX.dma_cycles_per_element,
    )
    _check_against_oracle(
        TileSearchProblem(
            cost_model=model, memory_limit_bytes=limit_kb * 1024, min_parallelism=threads
        )
    )
