"""Test oracle: point evaluation on ``Fraction``s.

These are the bodies ``AffineExpr.evaluate``, ``Constraint.satisfied_by``,
``Polyhedron.contains``, ``QuasiAffineBound.evaluate``/``evaluate_int``,
``ir.ast.evaluate_bound`` and ``DataMovementCostModel._binding`` /
``_hull_volume`` / ``buffer_details`` / ``footprint_bytes`` / ``movement_cost``
had before point evaluation became an integer routine, moved here verbatim as
free functions.  They read expressions only through ``terms()``/``constant``
and hulls through ``member_bounds``, so they share no evaluation code with
``src/`` and ``tests/test_eval_kernel.py`` can require equal values — and, for
the cost model, identical ``float.hex()``.  Not collected by pytest (no
``test_`` prefix); never import it from ``src/``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping

from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.parametric import QuasiAffineBound
from repro.tiling.cost_model import SIZE_SUFFIX, _to_fraction
from repro.utils.frac import as_fraction, fraction_ceil, fraction_floor


# -- polyhedral/ ---------------------------------------------------------------------------
def evaluate(expr: AffineExpr, binding) -> Fraction:
    total = expr.constant
    for name, coeff in expr.terms():
        total += coeff * as_fraction(binding[name])
    return total


def satisfied_by(constraint, binding) -> bool:
    value = evaluate(constraint.expr, binding)
    return value == 0 if constraint.is_equality else value >= 0


def contains(polyhedron, binding) -> bool:
    return all(satisfied_by(c, binding) for c in polyhedron.constraints)


def bound_evaluate(bound: QuasiAffineBound, binding) -> Fraction:
    values = [evaluate(expr, binding) for expr in bound.exprs]
    return min(values) if bound.kind == "min" else max(values)


def bound_evaluate_int(bound: QuasiAffineBound, binding) -> int:
    value = bound_evaluate(bound, binding)
    return fraction_ceil(value) if bound.kind == "max" else fraction_floor(value)


# -- ir/ast.py -------------------------------------------------------------------------------
def evaluate_bound(value, binding, *, is_lower: bool) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, QuasiAffineBound):
        result = bound_evaluate(value, binding)
    elif isinstance(value, AffineExpr):
        result = evaluate(value, binding)
    else:
        raise TypeError(f"unsupported bound type {type(value).__name__}")
    return fraction_ceil(result) if is_lower else fraction_floor(result)


# -- tiling/cost_model.py --------------------------------------------------------------------
def binding_for(model, tile_sizes: Mapping[str, float]) -> Dict[str, Fraction]:
    binding: Dict[str, Fraction] = {
        name: _to_fraction(value) for name, value in model.problem_params.items()
    }
    for name, value in model._representative_origins.items():
        binding[name] = _to_fraction(value)
    for loop in model.tile_loops:
        binding[f"{loop}{SIZE_SUFFIX}"] = _to_fraction(float(tile_sizes[loop]))
    return binding


def hull_volume(hull, binding: Mapping[str, Fraction]) -> float:
    if hull is None:
        return 0.0
    volume = 1.0
    member_bounds = hull.member_bounds
    for dim in hull.dims:
        lows: List[float] = []
        highs: List[float] = []
        for bounds in member_bounds:
            low = max(float(evaluate(e, binding)) for e in bounds[dim].lower.exprs)
            high = min(float(evaluate(e, binding)) for e in bounds[dim].upper.exprs)
            if high >= low:
                lows.append(low)
                highs.append(high)
        if not lows:
            return 0.0
        volume *= max(max(highs) - min(lows) + 1.0, 0.0)
    return volume


def occurrences(model, descriptor, tile_sizes: Mapping[str, float]) -> float:
    loops = model.tile_loops
    if model.hoisting:
        loops = [l for l in loops if l in descriptor.dependent_loops]
    count = 1.0
    for loop in loops:
        size = max(float(tile_sizes[loop]), 1.0)
        count *= math.ceil(model.loop_extents[loop] / size)
    return count


def buffer_details(model, tile_sizes: Mapping[str, float]) -> List[Dict[str, float]]:
    binding = binding_for(model, tile_sizes)
    details: List[Dict[str, float]] = []
    for descriptor in model.descriptors:
        footprint = hull_volume(descriptor.hull, binding)
        volume_in = hull_volume(descriptor.read_hull, binding)
        volume_out = hull_volume(descriptor.write_hull, binding)
        details.append(
            {
                "buffer": descriptor.buffer_name,
                "array": descriptor.array_name,
                "footprint_elements": footprint,
                "footprint_bytes": footprint * descriptor.element_size,
                "volume_in": volume_in,
                "volume_out": volume_out,
                "occurrences": occurrences(model, descriptor, tile_sizes),
            }
        )
    return details


def footprint_bytes(model, tile_sizes: Mapping[str, float]) -> float:
    binding = binding_for(model, tile_sizes)
    return sum(hull_volume(d.hull, binding) * d.element_size for d in model.descriptors)


def movement_cost(model, tile_sizes: Mapping[str, float]) -> float:
    total = 0.0
    for entry in buffer_details(model, tile_sizes):
        per_occurrence = 0.0
        if entry["volume_in"] > 0:
            per_occurrence += (
                model.threads * model.sync_cost
                + entry["volume_in"] * model.transfer_cost / model.threads
            )
        if entry["volume_out"] > 0:
            per_occurrence += (
                model.threads * model.sync_cost
                + entry["volume_out"] * model.transfer_cost / model.threads
            )
        total += entry["occurrences"] * per_occurrence
    return total
