"""Tile-size search under a scratchpad-capacity constraint — paper Section 4.3.

The search minimises the data-movement cost model over real-valued tile sizes
by sequential quadratic programming, as the paper proposes, subject to

* ``0 < t_i <= N_i`` for every tiled loop,
* ``Σ_i M_i(t) <= M_up`` (the scratchpad capacity available to the process),
* ``t_1 · t_2 · ... · t_m >= P_low`` (enough work to keep the inner-level
  processes busy),

then rounds the relaxed solution to integers: a small neighbourhood of
divisor/power-of-two candidates around the relaxed optimum is evaluated
exactly and the best feasible integer vector is returned.  The relaxation runs
in ``x = log t`` (the work bound becomes linear) on the model's closed-form
gradients (:meth:`DataMovementCostModel.relaxation`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.tiling.cost_model import DataMovementCostModel

#: SQP iterations per start, and its feasibility / stationarity tolerance
_SQP_ITERATIONS = 100
_TOLERANCE = 1e-10
#: how far inside ``log N_i`` the relaxation's box ends (the final snap undoes it)
_INSIDE = 1e-10


@dataclass
class TileSearchProblem:
    """Inputs of the tile-size optimisation."""

    cost_model: DataMovementCostModel
    memory_limit_bytes: float
    min_parallelism: int
    #: optional explicit candidate tile sizes per loop (e.g. powers of two);
    #: derived from the relaxed optimum when omitted.
    candidates: Optional[Dict[str, Sequence[int]]] = None

    def __post_init__(self) -> None:
        if self.memory_limit_bytes <= 0:
            raise ValueError("memory_limit_bytes must be positive")
        if self.min_parallelism <= 0:
            raise ValueError("min_parallelism must be positive")


@dataclass
class TileSearchResult:
    """Outcome of the search."""

    tile_sizes: Dict[str, int]
    cost: float
    footprint_bytes: float
    feasible: bool
    relaxed_solution: Dict[str, float] = field(default_factory=dict)
    evaluated_candidates: int = 0

    def __str__(self) -> str:
        sizes = ", ".join(f"{k}={v}" for k, v in self.tile_sizes.items())
        status = "feasible" if self.feasible else "INFEASIBLE"
        return f"tile sizes [{sizes}] cost={self.cost:.1f} footprint={self.footprint_bytes:.0f}B ({status})"


def solve_relaxed(
    problem: TileSearchProblem,
    initial: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """The relaxation alone: best feasible real-valued tile sizes.

    Exposed separately from :func:`search_tile_sizes` so that the autotuner
    (:mod:`repro.autotune.space`) can seed its configuration space from the
    relaxed optimum and its integer neighbourhood without committing to the
    single rounded vector the one-shot search returns.  Starts run in order of
    their objective, each abandoned once it cannot beat the best so far.
    Falls back to all-ones when no feasible relaxed point is found.
    """
    model = problem.cost_model
    loops = model.tile_loops
    extents = np.array([float(model.loop_extents[loop]) for loop in loops])
    limit, work = problem.memory_limit_bytes, problem.min_parallelism
    # a hair inside N_i: where a bound is clipped at the loop's extent, the
    # derivative seen is the one of shrinking the tile, not the flat clip
    upper = np.log(extents) - _INSIDE
    log_work = math.log(work) - len(loops) * _INSIDE

    def evaluate(x: np.ndarray) -> _Point:
        sizes = np.exp(x)
        cost, cost_gradient, footprint, footprint_gradient = model.relaxation(sizes)
        constraints = np.array([1.0 - footprint / limit, x.sum() - log_work])
        jacobian = np.vstack([-sizes * footprint_gradient / limit, np.ones(len(x))])
        objective = (math.log(cost), sizes * cost_gradient / cost) if cost > 0 else (0.0, 0.0 * x)
        return _Point(x, *objective, constraints, jacobian, np.maximum(-constraints, 0.0).sum())

    starts = [np.maximum(extents / 4.0, 1.0), np.minimum(16.0, extents), extents]
    if initial is not None:
        starts.insert(0, np.array([float(initial[loop]) for loop in loops]))
    logs = [np.minimum(np.log(np.clip(start, 1.0, extents)), upper) for start in starts]
    unique = dict.fromkeys(tuple(x) for x in logs)
    best, relaxed = math.inf, np.ones(len(loops))
    for point in sorted((evaluate(np.array(x)) for x in unique), key=lambda p: p.objective):
        point = _sqp(evaluate, point, upper, best)
        if point is None or point.objective >= best:
            continue
        # a bound or an integer optimum lands within rounding of an integer: make it one
        sizes = np.exp(point.x)
        sizes = np.where(abs(sizes - np.round(sizes)) <= 1e-9 * sizes, np.round(sizes), sizes)
        named = dict(zip(loops, sizes.tolist()))
        feasible = model.footprint_bytes(named) <= limit + 1e-6
        if feasible and model.work_per_tile(named) >= work - 1e-6:
            best, relaxed = point.objective, sizes
    return {loop: float(max(value, 1.0)) for loop, value in zip(loops, relaxed)}


class _Point(NamedTuple):
    """An iterate ``x = log t``: objective ``log C`` and its gradient, the
    constraints ``1 - M(t)/M_up >= 0``, ``Σ x_i - log P_low >= 0`` and their
    Jacobian, and by how much the point violates them."""

    x: np.ndarray
    objective: float
    gradient: np.ndarray
    constraints: np.ndarray
    jacobian: np.ndarray
    violation: float


def _sqp(evaluate, point: _Point, upper: np.ndarray, incumbent: float) -> Optional[_Point]:
    """Sequential quadratic programming from *point* within ``0 <= x <= upper``.

    Each step solves the quadratic model (damped-BFGS Hessian of the
    Lagrangian, constraints linearised) with :func:`_solve_qp` and backtracks
    on the ℓ1 merit function.  ``None`` when a model has no feasible step or
    once a feasible iterate's model predicts it cannot get below *incumbent*.
    """
    n = len(point.x)
    hessian, penalty, rows = np.eye(n), 1.0, np.vstack([point.jacobian, np.eye(n), -np.eye(n)])
    for _ in range(_SQP_ITERATIONS):
        rows[:2] = point.jacobian
        lows = np.concatenate([-point.constraints, -point.x, point.x - upper])
        solved = _solve_qp(hessian, point.gradient, rows, lows)
        if solved is None:
            return None
        step, multipliers = solved[0], solved[1][:2]
        predicted = point.gradient @ step + 0.5 * step @ hessian @ step
        if point.violation <= _TOLERANCE and -predicted <= _TOLERANCE:
            return point
        if point.violation <= _TOLERANCE and point.objective + predicted >= incumbent:
            return None
        penalty = max(penalty, 1.5 * multipliers.max())
        merit = point.objective + penalty * point.violation
        slope, length = predicted - penalty * point.violation, 1.0
        while True:
            trial = evaluate(np.clip(point.x + length * step, 0.0, upper))
            if trial.objective + penalty * trial.violation <= merit + 1e-4 * length * slope:
                break
            length *= 0.5
            if length < 1e-6:
                return point if point.violation <= _TOLERANCE else None
        moved, pushed = trial.x - point.x, hessian @ (trial.x - point.x)
        change = trial.gradient - point.gradient - (trial.jacobian - point.jacobian).T @ multipliers
        curvature = moved @ pushed
        if curvature > 0:
            if moved @ change < 0.2 * curvature:  # Powell's damping: stay positive definite
                theta = 0.8 * curvature / (curvature - moved @ change)
                change = theta * change + (1.0 - theta) * pushed
            hessian += np.outer(change, change) / (moved @ change)
            hessian -= np.outer(pushed, pushed) / curvature
        point = trial
    return point if point.violation <= _TOLERANCE else None


def _solve_qp(
    hessian: np.ndarray, gradient: np.ndarray, rows: np.ndarray, lows: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``min ½ dᵀHd + gᵀd`` subject to ``rows @ d >= lows``, ``H`` positive definite.

    Goldfarb and Idnani's dual active-set method: from the unconstrained
    minimum, add the most violated constraint by a step that keeps every
    active multiplier non-negative, dropping a constraint whose multiplier
    reaches zero on the way.  ``(step, multipliers)``, or ``None`` when the
    constraints are inconsistent.
    """
    inverse = np.linalg.inv(hessian)
    step, multipliers, active = -inverse @ gradient, np.zeros(len(lows)), []
    for _ in range(8 * len(lows)):
        slack = rows @ step - lows
        slack[active] = np.inf
        violated = int(np.argmin(slack))
        if slack[violated] >= -1e-12:
            break
        while True:
            normal, projected = rows[violated], rows[active] @ inverse
            gram = projected @ rows[active].T
            dual = np.linalg.solve(gram, projected @ normal) if active else np.zeros(0)
            direction = inverse @ normal - projected.T @ dual
            blocking = [(multipliers[j] / r, at) for at, (j, r) in enumerate(zip(active, dual))
                        if r > 1e-12]
            dual_step, drop = min(blocking, default=(math.inf, 0))
            curvature = direction @ normal
            primal_step = math.inf
            if curvature > 1e-12:
                primal_step = (lows[violated] - normal @ step) / curvature
            length = min(dual_step, primal_step)
            if length == math.inf:
                return None
            step, multipliers[violated] = step + length * direction, multipliers[violated] + length
            multipliers[active] -= length * dual
            if primal_step <= dual_step:
                active.append(violated)
                break
            multipliers[active[drop]] = 0.0
            del active[drop]
    return step, multipliers


def search_tile_sizes(
    problem: TileSearchProblem,
    initial: Optional[Mapping[str, float]] = None,
) -> TileSearchResult:
    """Run the relaxed optimisation followed by integer rounding."""
    model = problem.cost_model
    loops = model.tile_loops
    relaxed = solve_relaxed(problem, initial)
    candidate_sets = candidate_neighbourhood(problem, relaxed)
    best: Optional[Tuple[Dict[str, int], float, float]] = None
    evaluated = 0
    for combination in itertools.product(*[candidate_sets[loop] for loop in loops]):
        sizes = dict(zip(loops, combination))
        evaluated += 1
        if model.work_per_tile(sizes) < problem.min_parallelism:
            continue
        footprint = model.footprint_bytes(sizes)
        if footprint > problem.memory_limit_bytes:
            continue
        cost = model.movement_cost(sizes)
        if best is None or cost < best[1] or (cost == best[1] and footprint < best[2]):
            best = (sizes, cost, footprint)

    if best is None:
        # Nothing feasible among the integer candidates: report the smallest
        # tile sizes with the infeasibility flagged.
        sizes = {loop: 1 for loop in loops}
        return TileSearchResult(
            tile_sizes=sizes,
            cost=model.movement_cost(sizes),
            footprint_bytes=model.footprint_bytes(sizes),
            feasible=False,
            relaxed_solution=relaxed,
            evaluated_candidates=evaluated,
        )
    sizes, cost, footprint = best
    return TileSearchResult(
        tile_sizes=sizes,
        cost=cost,
        footprint_bytes=footprint,
        feasible=True,
        relaxed_solution=relaxed,
        evaluated_candidates=evaluated,
    )


def candidate_neighbourhood(
    problem: TileSearchProblem, relaxed: Mapping[str, float]
) -> Dict[str, List[int]]:
    """Integer candidates per loop around the relaxed optimum.

    The neighbourhood mixes floor/ceil of the relaxed value, the nearest
    powers of two, their halvings/doublings, the extremes 1 and the full
    extent, and the nearest divisors of the extent (whose copy counts
    ``⌈N_i/t_i⌉`` the relaxation's ``N_i/t_i`` cannot tell from their
    neighbours'); explicit ``problem.candidates`` override the derivation per loop.
    The autotuner enumerates products of these sets as its tile axis.
    """
    model = problem.cost_model
    sets: Dict[str, List[int]] = {}
    for loop in model.tile_loops:
        extent = model.loop_extents[loop]
        if problem.candidates and loop in problem.candidates:
            values = sorted({int(v) for v in problem.candidates[loop] if 1 <= v <= extent})
            sets[loop] = values or [min(extent, 1)]
            continue
        value = relaxed[loop]
        candidates = {
            1,
            extent,
            int(math.floor(value)),
            int(math.ceil(value)),
            _power_of_two_at_most(value),
            _power_of_two_at_least(value, extent),
        }
        candidates |= {c * 2 for c in list(candidates)} | {max(c // 2, 1) for c in candidates}
        divisors = [d for d in range(1, extent + 1) if extent % d == 0]
        candidates |= {max((d for d in divisors if d <= value), default=1)}
        candidates |= {min((d for d in divisors if d >= value), default=extent)}
        sets[loop] = sorted({c for c in candidates if 1 <= c <= extent})
    return sets


def _power_of_two_at_most(value: float) -> int:
    return max(1, 2 ** int(math.floor(math.log2(max(value, 1.0)))))


def _power_of_two_at_least(value: float, cap: int) -> int:
    power = 2 ** int(math.ceil(math.log2(max(value, 1.0))))
    return min(max(power, 1), cap)
