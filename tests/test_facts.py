"""The facts context's shortcuts answer what the exact fallback answers.

:class:`repro.polyhedral.facts.Facts` decides a question by a fact with the
same terms, a rational box or a sampled integer point before it asks
Fourier–Motzkin.  On small random systems, pushed one variable at a time as
the lowering's loops push them, every verdict of every shortcut must be the
rational answer of ``tests/fm_oracle.py``, and so must the context's final
answer.  On chains — each variable bounded by constants or equal to an
earlier one plus a constant, the tile chains the planner and the walker see
— the box is exact, which a box that forgets an equality's second sign is
not.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

import fm_oracle as oracle
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.facts import Facts, _Component, _holds_over

NAMES = ("x", "y", "z")


@st.composite
def pushed_systems(draw):
    """Per variable, in order, 1–3 facts over it and the variables before it."""
    groups = []
    for position, name in enumerate(NAMES[: draw(st.integers(1, 3))]):
        group = []
        for _ in range(draw(st.integers(1, 3))):
            coeffs = {other: draw(st.integers(-2, 2)) for other in NAMES[:position]}
            coeffs[name] = draw(st.sampled_from((-2, -1, 1, 2)))
            expr = AffineExpr(coeffs, draw(st.integers(-6, 6)))
            group.append(Constraint(expr, is_equality=draw(st.integers(0, 4)) == 0))
        groups.append(group)
    return groups


@st.composite
def exprs(draw, names=NAMES):
    return AffineExpr({name: draw(st.integers(-2, 2)) for name in names}, draw(st.integers(-6, 6)))


@contextlib.contextmanager
def pushed(groups):
    facts = Facts()
    with contextlib.ExitStack() as stack:
        for group in groups:
            stack.enter_context(facts.assuming(facts.entries(group)))
        yield facts


def oracle_implies(system, claim):
    if claim.expr.is_constant():
        return claim.is_trivially_true()
    return oracle.is_rationally_infeasible([*system, claim.negate()])


@settings(max_examples=300, deadline=None)
@given(pushed_systems(), st.lists(exprs(), min_size=1, max_size=4))
def test_every_shortcut_verdict_is_the_oracles(groups, claims):
    system = [fact for group in groups for fact in group]
    with pushed(groups) as facts:
        assert facts.empty() == oracle.is_rationally_infeasible(system)
        if facts.empty():
            return  # an untouched infeasible component would decide: the planner's rule
        for expr in claims:
            claim = Constraint(expr)
            expected = oracle_implies(system, claim)
            touched = facts._touched(claim.variables)
            if len(touched) == 1:
                (component,) = touched
                _one, terms, constant = claim.expr.int_form()
                for point in component.points:
                    assert all(fact.satisfied_by(point) for fact in component.facts), point
                    if component.names >= set(claim.variables) and not claim.satisfied_by(point):
                        assert not expected, ("a point refutes", point)
                if component.shifts.get(frozenset(terms), constant + 1) <= constant:
                    assert expected, "same terms prove it"
                if _holds_over(component.box, terms, constant):
                    assert expected, ("the box proves it", component.box)
            assert facts.implied(claim) == expected, claim


@settings(max_examples=200, deadline=None)
@given(pushed_systems(), exprs(), exprs(), st.sampled_from(("min", "max")))
def test_never_loses_is_the_oracles_implication(groups, term, other, kind):
    system = [fact for group in groups for fact in group]
    with pushed(groups) as facts:
        if facts.empty():
            return
        difference = term - other if kind == "max" else other - term
        expected = oracle_implies(system, Constraint(difference))
        assert facts.never_loses(term, other, kind) == expected


@st.composite
def chains(draw):
    """Each variable bounded by constants, or equal to ``±`` an earlier one plus a constant."""
    system = []
    for position, name in enumerate(NAMES[: draw(st.integers(2, 3))]):
        var = AffineExpr.var(name)
        if position and draw(st.booleans()):
            earlier = AffineExpr.var(draw(st.sampled_from(NAMES[:position])))
            sign = draw(st.sampled_from((-1, 1)))
            system.append(Constraint.equals(var, earlier * sign + draw(st.integers(-3, 3))))
        else:
            low = draw(st.integers(-4, 4))
            system.extend(Constraint.bounds(name, low, low + draw(st.integers(0, 5))))
    return system


def assert_the_box_is_exact(system):
    facts = Facts.scanning(system, NAMES)
    for name in sorted({v for fact in system for v in fact.variables}):
        (component,) = facts._touched([name])
        lowers, uppers = oracle.bounds_for_variable(system, name, [])
        exact = [
            max(expr.constant / coeff for expr, coeff in lowers),
            min(expr.constant / coeff for expr, coeff in uppers),
        ]
        assert component.box.get(name) == exact, (name, component.box, system)


@settings(max_examples=100, deadline=None)
@given(chains())
def test_the_box_of_a_chain_is_exact(system):
    assert_the_box_is_exact(system)


def test_a_box_that_forgets_an_equalitys_second_sign_is_not_exact(monkeypatch):
    x, y = AffineExpr.var("x"), AffineExpr.var("y")
    chain = [*Constraint.bounds("x", 0, 3), Constraint.equals(y, x + 2)]
    assert_the_box_is_exact(chain)
    box = _Component.box

    def one_sided(component):
        facts = component.facts
        component.facts = tuple(Constraint(f.expr) if f.is_equality else f for f in facts)
        try:
            return box.fget(component)
        finally:
            component.facts = facts

    monkeypatch.setattr(_Component, "box", property(one_sided))
    with pytest.raises(AssertionError):
        assert_the_box_is_exact(chain)
