"""Unit tests for constraints, Fourier–Motzkin elimination and polyhedra."""

import pytest

import fm_rows
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.polyhedron import Polyhedron

i, j, N = AffineExpr.var("i"), AffineExpr.var("j"), AffineExpr.var("N")


class TestConstraint:
    def test_normalisation_gcd(self):
        c = Constraint.greater_equal(4 * i, 8)
        assert c.coefficient("i") == 1 and c.expr.constant == -2

    def test_equality_canonical_sign(self):
        a = Constraint.equals(i - j)
        b = Constraint.equals(j - i)
        assert a == b

    def test_trivially_true_false(self):
        assert Constraint.greater_equal(AffineExpr.const(3)).is_trivially_true()
        assert Constraint.greater_equal(AffineExpr.const(-1)).is_trivially_false()
        assert Constraint.equals(AffineExpr.const(1)).is_trivially_false()

    def test_satisfied_by(self):
        c = Constraint.less_equal(i, 5)
        assert c.satisfied_by({"i": 5}) and not c.satisfied_by({"i": 6})

    def test_negate_integer_semantics(self):
        c = Constraint.greater_equal(i, 3)          # i >= 3
        negated = c.negate()                        # i <= 2
        assert negated.satisfied_by({"i": 2}) and not negated.satisfied_by({"i": 3})

    def test_negate_equality_raises(self):
        with pytest.raises(ValueError):
            Constraint.equals(i, 3).negate()

    def test_bounds_pair(self):
        low, high = Constraint.bounds("i", 0, N - 1)
        assert low.satisfied_by({"i": 0, "N": 4}) and high.satisfied_by({"i": 3, "N": 4})


class TestFourierMotzkin:
    def test_eliminate_variable_simple(self):
        system = [Constraint.greater_equal(i, 1), Constraint.less_equal(i, j)]
        result = fm_rows.eliminate(system, ["i"])
        # 1 <= i <= j implies j >= 1
        assert any(c.satisfied_by({"j": 1}) and not c.satisfied_by({"j": 0}) for c in result)

    def test_eliminate_through_equality(self):
        system = [Constraint.equals(i, j + 2), Constraint.less_equal(i, 5)]
        result = fm_rows.eliminate(system, ["i"])
        assert any(not c.satisfied_by({"j": 4}) for c in result)  # j <= 3

    def test_infeasible_detected(self):
        system = [Constraint.greater_equal(i, 5), Constraint.less_equal(i, 3)]
        assert fm_rows.is_rationally_infeasible(system)

    def test_feasible(self):
        assert not fm_rows.is_rationally_infeasible([Constraint.greater_equal(i, 5)])

    def test_remove_redundant_keeps_tightest(self):
        loose = Constraint.less_equal(i, 10)
        tight = Constraint.less_equal(i, 5)
        kept = fm_rows.remove_redundant([loose, tight])
        assert kept == [tight]

    def test_bounds_for_variable(self):
        system = [Constraint.greater_equal(i, 2), Constraint.less_equal(i, N)]
        lowers, uppers = fm_rows.bounds_for_variable(system, "i", ["N"])
        assert lowers and uppers


class TestPolyhedron:
    def test_duplicate_dims_rejected(self):
        with pytest.raises(ValueError):
            Polyhedron(["i", "i"])

    def test_unknown_name_in_constraint_rejected(self):
        with pytest.raises(ValueError):
            Polyhedron(["i"], [Constraint.greater_equal(j, 0)])

    def test_from_bounds_contains(self):
        box = Polyhedron.from_bounds({"i": (0, 3), "j": (1, 2)})
        assert box.contains({"i": 0, "j": 2})
        assert not box.contains({"i": 4, "j": 2})

    def test_empty_and_universe(self):
        assert Polyhedron.empty(["i"]).is_empty()
        assert not Polyhedron.universe(["i"]).is_empty()

    def test_intersection_emptiness(self):
        a = Polyhedron.from_bounds({"i": (0, 3)})
        b = Polyhedron.from_bounds({"i": (5, 8)})
        assert a.intersect(b).is_empty()
        assert not a.intersects(b)

    def test_intersect_dim_mismatch(self):
        with pytest.raises(ValueError):
            Polyhedron.universe(["i"]).intersect(Polyhedron.universe(["j"]))

    def test_project_out(self):
        box = Polyhedron.from_bounds({"i": (0, 3), "j": (0, 5)})
        projected = box.project_out(["j"])
        assert projected.dims == ("i",)
        assert projected.contains({"i": 2}) and not projected.contains({"i": 4})

    def test_project_onto_order(self):
        box = Polyhedron.from_bounds({"i": (0, 3), "j": (0, 5)})
        assert box.project_onto(["j"]).dims == ("j",)

    def test_bounding_box(self):
        box = Polyhedron.from_bounds({"i": (0, 3), "j": (2, 5)})
        assert box.bounding_box() == {"i": (0, 3), "j": (2, 5)}

    def test_bounding_box_unbounded_raises(self):
        half = Polyhedron(["i"], [Constraint.greater_equal(i, 0)])
        with pytest.raises(ValueError):
            half.bounding_box()

    def test_specialize_parameters(self):
        poly = Polyhedron(["i"], list(Constraint.bounds("i", 0, N - 1)), params=["N"])
        concrete = poly.specialize({"N": 4})
        assert concrete.params == ()
        assert concrete.bounding_box() == {"i": (0, 3)}

    def test_rename_dims(self):
        poly = Polyhedron.from_bounds({"i": (0, 3)}).rename_dims({"i": "x"})
        assert poly.dims == ("x",) and poly.contains({"x": 1})

    def test_subset_and_equality(self):
        small = Polyhedron.from_bounds({"i": (1, 2)})
        large = Polyhedron.from_bounds({"i": (0, 3)})
        assert small.is_subset_of(large)
        assert not large.is_subset_of(small)
        assert small.equals(Polyhedron.from_bounds({"i": (1, 2)}))

    def test_sample_integer_point(self):
        poly = Polyhedron.from_bounds({"i": (2, 2), "j": (4, 6)})
        point = poly.sample_integer_point()
        assert point is not None and point["i"] == 2 and 4 <= point["j"] <= 6

    def test_sample_empty_returns_none(self):
        assert Polyhedron.empty(["i"]).sample_integer_point() is None

    def test_has_integer_point_with_params(self):
        poly = Polyhedron(["i"], list(Constraint.bounds("i", 0, N)), params=["N"])
        assert poly.has_integer_point({"N": 0})

    def test_count_points(self):
        tri = Polyhedron(
            ["i", "j"],
            list(Constraint.bounds("i", 0, 3)) + [Constraint.less_equal(j, i), Constraint.greater_equal(j, 0)],
        )
        # sum_{i=0..3} (i+1) = 10
        assert tri.count_points() == 10

    def test_integer_points_order(self):
        box = Polyhedron.from_bounds({"i": (0, 1), "j": (0, 1)})
        points = list(box.integer_points())
        assert points[0] == {"i": 0, "j": 0} and len(points) == 4
