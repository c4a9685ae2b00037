"""The integer-row Fourier–Motzkin kernel against two independent references.

* ``fm_oracle`` — the dict-of-``Fraction`` implementation the kernel replaced.
  Results must be equal *element by element*: same constraints in the same
  order, because loop bounds, hulls and emitted code are read off that order.
* brute-force enumeration of integer points, on difference-constraint systems
  inside the box ``[-4, 4]^n`` — there every bound has unit coefficients, so
  the rational answers Fourier–Motzkin gives coincide with the integer ones.
"""

import itertools

from hypothesis import given, settings, strategies as st

import fm_oracle as oracle
import fm_rows
from repro.polyhedral import fourier_motzkin as fm
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.polyhedron import Polyhedron

NAMES = ["a", "b", "c", "d", "e"]


@st.composite
def constraints(draw, names=NAMES):
    # an empty or all-zero coefficient dict gives the trivially true/false rows
    coeffs = draw(
        st.dictionaries(st.sampled_from(names), st.integers(-4, 4), max_size=len(names))
    )
    expr = AffineExpr(coeffs, draw(st.integers(-6, 6)))
    return Constraint(expr, is_equality=draw(st.booleans()))


@st.composite
def systems(draw, names=NAMES):
    system = draw(st.lists(constraints(names), max_size=7))
    if system:
        for index in draw(st.lists(st.integers(0, len(system) - 1), max_size=2)):
            system.append(system[index])  # exact duplicates, the same object
    return system


#: three disjoint name groups: a system over each shares no column with the others
GROUPS = [[f"{name}{group}" for name in NAMES[:3]] for group in range(3)]
GROUP_NAMES = [name for names in GROUPS for name in names]


@st.composite
def block_systems(draw):
    """Two or three independent :func:`systems` over disjoint name groups, interleaved."""
    system = []
    for names in GROUPS[: draw(st.integers(2, 3))]:
        system.extend(draw(systems(names)))
    return draw(st.permutations(system))


#: names to eliminate: repeats allowed, "zz" never occurs in a system
eliminated = st.lists(st.sampled_from(NAMES + ["zz"]), max_size=5)


class TestEqualToTheFractionOracle:
    @given(systems())
    def test_remove_redundant(self, system):
        assert fm_rows.remove_redundant(system) == oracle.remove_redundant(system)

    @given(systems(), st.sampled_from(NAMES + ["zz"]))
    def test_eliminate_variable(self, system, name):
        assert fm_rows.eliminate_variable(system, name) == oracle.eliminate_variable(system, name)

    @settings(max_examples=300)
    @given(systems(), eliminated)
    def test_eliminate(self, system, names):
        assert fm_rows.eliminate(system, names) == oracle.eliminate(system, names)

    @given(systems(), st.sampled_from(NAMES + ["zz"]), st.lists(st.sampled_from(NAMES), max_size=3))
    def test_bounds_for_variable(self, system, name, keep):
        assert fm_rows.bounds_for_variable(system, name, keep) == oracle.bounds_for_variable(
            system, name, keep
        )

    @given(systems())
    def test_is_rationally_infeasible(self, system):
        assert fm_rows.is_rationally_infeasible(system) == oracle.is_rationally_infeasible(system)

    @given(block_systems())
    def test_is_rationally_infeasible_one_component_at_a_time(self, system):
        assert fm_rows.is_rationally_infeasible(system) == oracle.is_rationally_infeasible(system)

    @settings(max_examples=50)
    @given(
        block_systems(),
        st.sampled_from(GROUP_NAMES),
        st.lists(st.sampled_from(GROUP_NAMES), max_size=4),
    )
    def test_bounds_for_variable_of_a_block_system(self, system, name, keep):
        assert fm_rows.bounds_for_variable(system, name, keep) == oracle.bounds_for_variable(
            system, name, keep
        )

    @settings(max_examples=50)
    @given(block_systems())
    def test_row_components_partition_the_rows(self, system):
        _, rows = fm.rows_of(system)
        parts = fm.row_components(rows)
        assert sorted(row for part in parts for row in part) == sorted(rows)
        used = [{i for row in part for i, value in enumerate(row[1]) if value} for part in parts]
        for part, columns in zip(parts, used):
            if not columns:
                assert len(part) == 1  # a constant row stands alone
                continue
            assert part == [row for row in rows if row in part]  # in input order
            assert len(fm.row_components(part)) == 1  # and connected
        for first, second in itertools.combinations(used, 2):
            assert not first & second  # no column is shared across parts
        polyhedron = Polyhedron(GROUP_NAMES, system)
        assert polyhedron.facts.empty() == polyhedron.is_empty()

    def test_returns_the_callers_objects_when_nothing_is_derived(self):
        low, high = Constraint.bounds("a", 0, 5)
        kept = fm_rows.remove_redundant([low, high, Constraint.less_equal(AffineExpr.var("a"), 9)])
        assert kept[0] is low and kept[1] is high


# -- brute force -----------------------------------------------------------------------
BOX = range(-4, 5)


@st.composite
def difference_systems(draw):
    """``(dims, constraints)``: a box in [-4, 4]^n cut by ``x - y >= c`` / ``x == y + c``."""
    dims = NAMES[: draw(st.integers(1, 3))]
    system = []
    for dim in dims:
        low = draw(st.integers(-4, 4))
        high = draw(st.integers(-4, 4))  # high < low gives an empty box
        system.extend(Constraint.bounds(dim, low, high))
    if len(dims) > 1:
        pairs = st.tuples(st.sampled_from(dims), st.sampled_from(dims)).filter(
            lambda pair: pair[0] != pair[1]
        )
        for (x, y), offset, is_equality in draw(
            st.lists(st.tuples(pairs, st.integers(-4, 4), st.booleans()), max_size=3)
        ):
            difference = AffineExpr.var(x) - AffineExpr.var(y) - offset
            system.append(Constraint(difference, is_equality=is_equality))
    return dims, system


def integer_points(dims, system):
    return {
        point
        for point in itertools.product(BOX, repeat=len(dims))
        if all(c.satisfied_by(dict(zip(dims, point))) for c in system)
    }


class TestAgainstIntegerEnumeration:
    @given(difference_systems())
    def test_emptiness(self, case):
        dims, system = case
        assert fm_rows.is_rationally_infeasible(system) == (not integer_points(dims, system))
        assert Polyhedron(dims, system).is_empty() == (not integer_points(dims, system))

    @given(difference_systems(), st.data())
    def test_projection(self, case, data):
        dims, system = case
        dropped = data.draw(st.lists(st.sampled_from(dims), unique=True, max_size=len(dims)))
        kept = [d for d in dims if d not in dropped]
        shadow = {
            tuple(value for d, value in zip(dims, point) if d in kept)
            for point in integer_points(dims, system)
        }
        projected = fm_rows.eliminate(system, dropped)
        assert all(set(c.variables) <= set(kept) for c in projected)
        assert integer_points(kept, projected) == shadow

    @given(difference_systems())
    def test_bounds_are_the_extremes_of_each_dimension(self, case):
        dims, system = case
        points = integer_points(dims, system)
        if not points:
            return
        for position, dim in enumerate(dims):
            lowers, uppers = fm_rows.bounds_for_variable(system, dim, [])
            values = [point[position] for point in points]
            assert max(expr.constant / coeff for expr, coeff in lowers) == min(values)
            assert min(expr.constant / coeff for expr, coeff in uppers) == max(values)
