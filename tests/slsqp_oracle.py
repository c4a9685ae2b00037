"""Test oracle for the Section-4.3 relaxation: the SLSQP solve it replaced.

``solve_relaxed`` below is, verbatim, the relaxation ``repro.tiling.
tile_search`` used to run through ``scipy.optimize.minimize(method="SLSQP")``
with finite-difference gradients of the exact (ceil-occurrence) model.
``test_tile_search_oracle`` checks the in-repo solver against it: its relaxed
point must be feasible and its rounded integer winner must cost no more than
the one rounded from this oracle's point.

scipy is a test-only dependency; not collected by pytest (no ``test_``
prefix); never import it from ``src/``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

import numpy as np
from scipy import optimize

from repro.tiling.tile_search import TileSearchProblem


def solve_relaxed(
    problem: TileSearchProblem,
    initial: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """The SLSQP relaxation alone: best feasible real-valued tile sizes.

    Exposed separately from :func:`search_tile_sizes` so that the autotuner
    (:mod:`repro.autotune.space`) can seed its configuration space from the
    relaxed optimum and its integer neighbourhood without committing to the
    single rounded vector the one-shot search returns.  Falls back to all-ones
    when no feasible relaxed point is found.
    """
    model = problem.cost_model
    loops = model.tile_loops
    extents = [model.loop_extents[loop] for loop in loops]

    def unpack(vector: np.ndarray) -> Dict[str, float]:
        return {loop: float(max(value, 1.0)) for loop, value in zip(loops, vector)}

    def objective(vector: np.ndarray) -> float:
        return model.movement_cost(unpack(vector))

    def memory_slack(vector: np.ndarray) -> float:
        return problem.memory_limit_bytes - model.footprint_bytes(unpack(vector))

    def work_slack(vector: np.ndarray) -> float:
        return model.work_per_tile(unpack(vector)) - problem.min_parallelism

    bounds = [(1.0, float(extent)) for extent in extents]
    constraints = [
        {"type": "ineq", "fun": memory_slack},
        {"type": "ineq", "fun": work_slack},
    ]

    starts: List[np.ndarray] = []
    if initial is not None:
        starts.append(np.array([float(initial[loop]) for loop in loops]))
    starts.append(np.array([max(extent / 4.0, 1.0) for extent in extents]))
    starts.append(np.array([min(16.0, extent) for extent in extents]))
    starts.append(np.array([float(extent) for extent in extents]))

    best_relaxed: Optional[np.ndarray] = None
    best_relaxed_cost = math.inf
    for start in starts:
        result = optimize.minimize(
            objective,
            start,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 200, "ftol": 1e-6},
        )
        if not np.all(np.isfinite(result.x)):
            continue
        candidate = np.clip(result.x, [b[0] for b in bounds], [b[1] for b in bounds])
        feasible = memory_slack(candidate) >= -1e-6 and work_slack(candidate) >= -1e-6
        cost = objective(candidate)
        if feasible and cost < best_relaxed_cost:
            best_relaxed_cost = cost
            best_relaxed = candidate
    if best_relaxed is None:
        # No feasible relaxed point found; fall back to the smallest tiles.
        best_relaxed = np.array([1.0 for _ in loops])
    return unpack(best_relaxed)
