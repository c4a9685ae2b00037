"""Test oracle: the dict-of-``Fraction`` Fourier–Motzkin elimination.

This is the implementation ``repro.polyhedral.fourier_motzkin`` shipped before
its core became an integer-row kernel, moved here verbatim.  It only uses the
public ``AffineExpr``/``Constraint`` arithmetic, so it shares no code with the
kernel and ``tests/test_fm_kernel.py`` can require the kernel's results to be
*equal element by element* (same constraints, same order) to what this file
returns.  Not collected by pytest (no ``test_`` prefix); never import it from
``src/``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint


def remove_redundant(constraints: Iterable[Constraint]) -> List[Constraint]:
    """Cheap syntactic redundancy removal.

    * drops constraints that are trivially true,
    * deduplicates normalised constraints,
    * among inequalities sharing the same coefficient vector keeps only the
      tightest one (smallest constant), and
    * keeps a single trivially false constraint if one exists (so emptiness
      remains detectable).
    """
    result: List[Constraint] = []
    seen = set()
    tightest: Dict[Tuple, Constraint] = {}
    falsum: Constraint = None
    for constraint in constraints:
        if constraint.is_trivially_false():
            falsum = constraint
            continue
        if constraint.is_trivially_true():
            continue
        if constraint.is_equality:
            if constraint not in seen:
                seen.add(constraint)
                result.append(constraint)
            continue
        key = tuple(sorted(constraint.expr.coefficients.items()))
        existing = tightest.get(key)
        if existing is None or constraint.expr.constant < existing.expr.constant:
            tightest[key] = constraint
    result.extend(tightest.values())
    if falsum is not None:
        return [falsum]
    return result


def _substitute_equality(
    constraints: Sequence[Constraint], equality: Constraint, name: str
) -> List[Constraint]:
    """Use ``equality`` (which involves *name*) to eliminate *name* everywhere."""
    coeff = equality.coefficient(name)
    # name = -(expr - coeff*name) / coeff
    rest = equality.expr - AffineExpr({name: coeff})
    replacement = rest * (Fraction(-1) / coeff)
    substituted = []
    for constraint in constraints:
        if constraint is equality:
            continue
        if constraint.coefficient(name) != 0:
            substituted.append(constraint.substitute({name: replacement}))
        else:
            substituted.append(constraint)
    return substituted


def eliminate_variable(constraints: Sequence[Constraint], name: str) -> List[Constraint]:
    """Project the constraint system onto the variables other than *name*."""
    constraints = list(constraints)
    # Prefer substitution through an equality: it is exact and cheap.
    for constraint in constraints:
        if constraint.is_equality and constraint.coefficient(name) != 0:
            reduced = _substitute_equality(constraints, constraint, name)
            return remove_redundant(reduced)

    lower: List[Constraint] = []   # positive coefficient on `name`
    upper: List[Constraint] = []   # negative coefficient on `name`
    unrelated: List[Constraint] = []
    for constraint in constraints:
        coeff = constraint.coefficient(name)
        if coeff > 0:
            lower.append(constraint)
        elif coeff < 0:
            upper.append(constraint)
        else:
            unrelated.append(constraint)

    combined: List[Constraint] = list(unrelated)
    for low in lower:
        a = low.coefficient(name)
        for up in upper:
            b = up.coefficient(name)  # b < 0
            # a*name + r1 >= 0  and  b*name + r2 >= 0
            # =>  (-b)*r1 + a*r2 >= 0
            expr = (low.expr - AffineExpr({name: a})) * (-b) + (
                up.expr - AffineExpr({name: b})
            ) * a
            combined.append(Constraint(expr, is_equality=False))
    return remove_redundant(combined)


def eliminate(constraints: Sequence[Constraint], names: Iterable[str]) -> List[Constraint]:
    """Eliminate every variable in *names* from the system.

    Variables are eliminated cheapest-first (fewest lower×upper combinations)
    which in practice keeps intermediate systems near-minimal.
    """
    remaining = list(dict.fromkeys(names))
    system = remove_redundant(constraints)
    while remaining:
        def cost(candidate: str) -> int:
            lows = sum(1 for c in system if c.coefficient(candidate) > 0)
            ups = sum(1 for c in system if c.coefficient(candidate) < 0)
            return lows * ups

        remaining.sort(key=cost)
        name = remaining.pop(0)
        system = eliminate_variable(system, name)
        # Early exit once the system is plainly infeasible.
        if any(c.is_trivially_false() for c in system):
            return [c for c in system if c.is_trivially_false()][:1]
    return system


def is_rationally_infeasible(constraints: Sequence[Constraint]) -> bool:
    """True if the system has no rational solution.

    All variables are eliminated; the system is infeasible exactly when a
    trivially false constant constraint remains.
    """
    variables: List[str] = []
    for constraint in constraints:
        for name in constraint.variables:
            if name not in variables:
                variables.append(name)
    residual = eliminate(constraints, variables)
    return any(c.is_trivially_false() for c in residual)


def bounds_for_variable(
    constraints: Sequence[Constraint], name: str, keep: Iterable[str]
) -> Tuple[List[Tuple[AffineExpr, Fraction]], List[Tuple[AffineExpr, Fraction]]]:
    """Lower/upper bound expressions for *name* in terms of the *keep* variables.

    All variables other than *name* and those in *keep* are eliminated first.
    Each returned entry is a pair ``(expr, coeff)`` meaning
    ``name >= expr / coeff`` (lower bounds) or ``name <= expr / coeff`` (upper
    bounds) with ``coeff > 0``.
    """
    keep_set = set(keep) | {name}
    variables: List[str] = []
    for constraint in constraints:
        for var in constraint.variables:
            if var not in keep_set and var not in variables:
                variables.append(var)
    projected = eliminate(constraints, variables)
    lowers: List[Tuple[AffineExpr, Fraction]] = []
    uppers: List[Tuple[AffineExpr, Fraction]] = []
    for constraint in projected:
        for ineq in constraint.as_pair_of_inequalities():
            coeff = ineq.coefficient(name)
            if coeff == 0:
                continue
            rest = ineq.expr - AffineExpr({name: coeff})
            if coeff > 0:
                # coeff*name + rest >= 0  =>  name >= -rest/coeff
                lowers.append((-rest, coeff))
            else:
                # coeff*name + rest >= 0  =>  name <= rest/(-coeff)
                uppers.append((rest, -coeff))
    return lowers, uppers
