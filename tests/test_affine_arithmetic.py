"""The integer-row ``AffineExpr`` / ``Constraint`` against the ``Fraction`` oracle.

``affine_oracle`` is the dict-of-``Fraction`` arithmetic the package used
before expressions were stored as ``(denominator, {name: int}, int)``.  Over
hypothesis-generated rational expressions every operation must give the same
expression — same values, same *order* of the coefficient dictionary (loop
bounds and emitted code are read off that order), same text, same equality —
and the stored form must stay in lowest terms.  The second half holds the
boundary: what the typed accessors hand out is ``Fraction``, so arithmetic on
it is exact and never float, in unit cases and in every expression of the
mapped artifacts of the registered kernels.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import affine_oracle as oracle
from affine_oracle import OracleExpr
from repro.autotune.space import ConfigurationSpace
from repro.compiler import CompilationSession
from repro.ir.ast import GuardNode, LoopNode
from repro.kernels import get_kernel
from repro.polyhedral import fourier_motzkin as fm
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.parametric import QuasiAffineBound
from test_decisions_unchanged import SIZES, SPACE

NAMES = ["a", "b", "c", "d"]

#: ints and small rationals, zero included (a zero coefficient must vanish)
rationals = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6])),
)
nonzero = rationals.filter(lambda value: value != 0)


@st.composite
def expressions(draw):
    """The same expression, built by the package and by the oracle."""
    coeffs = draw(st.dictionaries(st.sampled_from(NAMES), rationals, max_size=len(NAMES)))
    constant = draw(rationals)
    return AffineExpr(coeffs, constant), OracleExpr(coeffs, constant)


def agree(new: AffineExpr, old: OracleExpr) -> None:
    assert list(new.coefficients.items()) == list(old.coefficients.items())
    assert new.constant == old.constant
    assert str(new) == str(old)
    denominator, terms, constant = new.int_form()
    assert denominator > 0 and all(value for _, value in terms)
    assert gcd(denominator, constant, *(value for _, value in terms)) == 1
    assert all(type(value) is int for value in (denominator, constant, *dict(terms).values()))


class TestEqualToTheFractionOracle:
    @given(expressions())
    def test_construction_and_negation(self, pair):
        new, old = pair
        agree(new, old)
        agree(-new, -old)

    @given(expressions(), expressions())
    def test_sum_and_difference_of_expressions(self, first, second):
        agree(first[0] + second[0], first[1] + second[1])
        agree(first[0] - second[0], first[1] - second[1])

    @given(expressions(), rationals)
    def test_sum_and_difference_with_a_scalar(self, pair, scalar):
        new, old = pair
        agree(new + scalar, old + scalar)
        agree(scalar + new, scalar + old)
        agree(new - scalar, old - scalar)
        agree(scalar - new, scalar - old)

    @given(expressions(), rationals)
    def test_product(self, pair, scalar):
        agree(pair[0] * scalar, pair[1] * scalar)
        agree(scalar * pair[0], scalar * pair[1])

    @given(expressions(), nonzero)
    def test_quotient(self, pair, scalar):
        agree(pair[0] / scalar, pair[1] / scalar)

    @given(expressions())
    def test_division_by_zero(self, pair):
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                pair[0] / zero

    @settings(max_examples=200)
    @given(
        expressions(),
        st.dictionaries(st.sampled_from(NAMES), st.one_of(rationals, expressions()), max_size=3),
    )
    def test_substitute(self, pair, replacements):
        new_binding = {k: v[0] if isinstance(v, tuple) else v for k, v in replacements.items()}
        old_binding = {k: v[1] if isinstance(v, tuple) else v for k, v in replacements.items()}
        agree(pair[0].substitute(new_binding), pair[1].substitute(old_binding))

    @given(expressions(), st.dictionaries(st.sampled_from(NAMES), st.sampled_from(NAMES + ["z"])))
    def test_rename_merges_and_cancels(self, pair, mapping):
        agree(pair[0].rename(mapping), pair[1].rename(mapping))

    @given(expressions(), expressions())
    def test_equality_and_hash(self, first, second):
        assert (first[0] == second[0]) == (first[1] == second[1])
        if first[0] == second[0]:
            assert hash(first[0]) == hash(second[0])
        # however it was reached, one value has one stored form
        detour = (first[0] * 6 + second[0]) / 6 - second[0] / 6
        assert detour == first[0] and hash(detour) == hash(first[0])
        assert detour.int_form()[0] == first[0].int_form()[0]

    @given(expressions(), st.fixed_dictionaries({name: rationals for name in NAMES}))
    def test_point_evaluation(self, pair, point):
        new, old = pair
        assert new.evaluate(point) == old.evaluate(point)
        assert type(new.evaluate(point)) is Fraction
        assert new.floor_at(point) == old.floor_at(point)
        assert new.ceil_at(point) == old.ceil_at(point)

    @given(expressions(), st.booleans())
    def test_constraint_normal_form(self, pair, is_equality):
        new, old = pair
        constraint = Constraint(new, is_equality)
        normal = oracle.normalise(old, is_equality)
        agree(constraint.expr, normal)
        assert constraint.expr.int_form()[0] == 1
        names, rows = fm.rows_of([constraint])
        assert rows == [(is_equality, *oracle.normal_row(normal, tuple(names)))]
        # the row is the constraint: back from it, nothing is normalised again
        assert Constraint.from_normal_row(names, rows[0][1], rows[0][2], is_equality) == constraint
        assert Constraint(constraint.expr, is_equality).expr is constraint.expr


# -- where Fraction begins --------------------------------------------------------------------
class TestTheBoundaryIsFraction:
    EXPR = AffineExpr({"i": 3, "j": Fraction(-1, 2)}, 7)

    def test_accessors_hand_out_fractions(self):
        expr = self.EXPR
        handed_out = [expr.constant, expr.coefficient("i"), expr.coefficient("zz")]
        handed_out += list(expr.coefficients.values()) + [value for _, value in expr.terms()]
        handed_out += expr.coefficients_vector(["j", "i", "zz"])
        assert all(type(value) is Fraction for value in handed_out)
        assert expr.coefficients == {"i": Fraction(3), "j": Fraction(-1, 2)}

    @pytest.mark.parametrize("divisor", [2, 3, Fraction(5, 2)])
    def test_quotients_of_accessor_results_stay_exact(self, divisor):
        expr = self.EXPR
        for value in (expr.constant, expr.coefficient("i"), AffineExpr.const(7).constant):
            assert type(value / divisor) is Fraction
            assert value / divisor * divisor == value

    def test_bound_coefficients_are_fractions(self):
        i, n = AffineExpr.var("i"), AffineExpr.var("N")
        system = [Constraint.greater_equal(2 * i, 1), Constraint.less_equal(3 * i, n + 7)]
        lowers, uppers = fm.bounds_for_variable(system, "i", ["N"])
        for expr, coeff in lowers + uppers:
            assert type(coeff) is Fraction and type(expr.constant / coeff) is Fraction
        assert [expr.constant / coeff for expr, coeff in lowers] == [Fraction(1, 2)]
        assert [expr.constant / coeff for expr, coeff in uppers] == [Fraction(7, 3)]


def _expressions_of(mapped):
    """Every affine expression the mapped artifacts of one kernel carry."""
    program = mapped.program
    constraints, bounds = [], list(program.symbol_definitions.values())
    for statement in program.statement_list:
        constraints.extend(statement.domain.constraints)
        for load in statement.read_loads() + [statement.write_load()]:
            bounds.extend(load.indices)
        for dim in statement.domain.dims:
            lowers, uppers = fm.bounds_for_variable(
                statement.domain.constraints, dim, statement.domain.params
            )
            for expr, coeff in lowers + uppers:
                assert type(coeff) is Fraction
                bounds.append(expr)
    for node in program.body.walk():
        if isinstance(node, LoopNode):
            bounds.extend((node.lower, node.upper))
        elif isinstance(node, GuardNode):
            constraints.extend(node.constraints)
    for spec in mapped.plan.specs() if mapped.plan else ():
        bounds.extend(spec.offsets)
        bounds.extend(spec.offset_definitions.values())
        for member in spec.hull.member_bounds:
            for bound in member.values():
                bounds.extend((bound.lower, bound.upper))
    for bound in bounds:
        yield from bound.exprs if isinstance(bound, QuasiAffineBound) else (bound,)
    for constraint in constraints:
        yield constraint.expr


@pytest.mark.parametrize("name", sorted(SIZES))
def test_no_float_anywhere_in_a_mapped_kernel(name):
    program = get_kernel(name).build(**SIZES[name])
    config = ConfigurationSpace(program, space_options=SPACE).seed_configuration()
    seen = 0
    for expr in _expressions_of(CompilationSession(program).replay(config=config)):
        denominator, terms, constant = expr.int_form()
        assert all(type(value) is int for value in (denominator, constant, *dict(terms).values()))
        assert type(expr.constant) is Fraction
        assert all(type(value) is Fraction for value in expr.coefficients.values())
        seen += 1
    assert seen > 20
