"""Unit tests for images, counting, hulls, parametric bounds and dependences."""

import pytest

from repro.polyhedral.affine import AffineExpr, AffineFunction
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.counting import (
    bounding_box_point_count,
    count_integer_points,
    enumerate_integer_points,
    intersection_point_count,
    union_point_count,
)
from repro.polyhedral.dependence import AccessDescriptor, DependenceAnalyzer
from repro.polyhedral.hull import rectangular_hull
from repro.polyhedral.image import image_of_polyhedron, preimage_of_polyhedron
from repro.polyhedral.parametric import (
    QuasiAffineBound,
    parametric_bounds,
    resolve_quasi_affine,
)
from repro.polyhedral.polyhedron import Polyhedron

i, j, k = AffineExpr.var("i"), AffineExpr.var("j"), AffineExpr.var("k")
N, iT = AffineExpr.var("N"), AffineExpr.var("iT")


class TestImage:
    def test_shifted_identity(self):
        dom = Polyhedron.from_bounds({"i": (10, 14)})
        fn = AffineFunction(["i"], [i + 1])
        img = image_of_polyhedron(dom, fn, ["d0"])
        assert img.bounding_box() == {"d0": (11, 15)}

    def test_rank_deficient_image(self):
        dom = Polyhedron.from_bounds({"i": (0, 4), "j": (0, 9)})
        fn = AffineFunction(["i", "j"], [i])
        img = image_of_polyhedron(dom, fn, ["d0"])
        assert img.count_points() == 5

    def test_sum_access(self):
        dom = Polyhedron.from_bounds({"i": (10, 14), "j": (10, 14)})
        fn = AffineFunction(["i", "j"], [i + j, j + 1])
        img = image_of_polyhedron(dom, fn, ["a", "b"])
        assert img.bounding_box() == {"a": (20, 28), "b": (11, 15)}

    def test_output_name_clash_rejected(self):
        dom = Polyhedron.from_bounds({"i": (0, 1)})
        with pytest.raises(ValueError):
            image_of_polyhedron(dom, AffineFunction(["i"], [i]), ["i"])

    def test_preimage(self):
        data = Polyhedron.from_bounds({"d": (5, 8)})
        fn = AffineFunction(["i"], [i + 3])
        pre = preimage_of_polyhedron(data, fn)
        assert pre.bounding_box() == {"i": (2, 5)}


class TestCounting:
    def test_count_matches_enumeration(self):
        poly = Polyhedron.from_bounds({"i": (0, 3), "j": (0, 2)})
        assert count_integer_points(poly) == len(list(enumerate_integer_points(poly))) == 12

    def test_unbound_params_rejected(self):
        poly = Polyhedron(["i"], list(Constraint.bounds("i", 0, N)), params=["N"])
        with pytest.raises(ValueError):
            count_integer_points(poly)
        assert count_integer_points(poly, {"N": 3}) == 4

    def test_union_counts_each_point_once(self):
        a = Polyhedron.from_bounds({"i": (0, 5)})
        b = Polyhedron.from_bounds({"i": (3, 8)})
        assert union_point_count([a, b]) == 9

    def test_intersection_count(self):
        a = Polyhedron.from_bounds({"i": (0, 5)})
        b = Polyhedron.from_bounds({"i": (3, 8)})
        assert intersection_point_count(a, b) == 3

    def test_bounding_box_point_count(self):
        tri = Polyhedron(
            ["i", "j"],
            list(Constraint.bounds("i", 0, 3))
            + [Constraint.greater_equal(j, 0), Constraint.less_equal(j, i)],
        )
        assert bounding_box_point_count(tri) == 16  # 4x4 box over-approximates 10 points


class TestParametricBounds:
    def test_concrete(self):
        poly = Polyhedron.from_bounds({"i": (2, 9)})
        bound = parametric_bounds(poly, "i")
        assert bound.evaluate({}) == (2, 9) and bound.extent({}) == 8

    def test_parametric_in_n(self):
        poly = Polyhedron(["i"], list(Constraint.bounds("i", 1, N)), params=["N"])
        bound = parametric_bounds(poly, "i")
        assert bound.evaluate({"N": 10}) == (1, 10)

    def test_unbounded_raises(self):
        poly = Polyhedron(["i"], [Constraint.greater_equal(i, 0)])
        with pytest.raises(ValueError):
            parametric_bounds(poly, "i")

    def test_quasi_affine_bound_eval(self):
        bound = QuasiAffineBound("min", (iT + 31, N - 1))
        assert bound.evaluate_int({"iT": 0, "N": 16}) == 15
        assert bound.evaluate_int({"iT": 0, "N": 100}) == 31

    def test_resolve_constant_difference(self):
        bound = QuasiAffineBound("max", (iT, iT - 2))
        assert resolve_quasi_affine(bound) == iT

    def test_resolve_with_context(self):
        context = Polyhedron(["iT"], [Constraint.greater_equal(iT, 0)])
        bound = QuasiAffineBound("max", (iT, AffineExpr.const(0)))
        assert resolve_quasi_affine(bound, context) == iT

    def test_resolve_unresolvable(self):
        bound = QuasiAffineBound("max", (iT, N))
        result = resolve_quasi_affine(bound)
        assert isinstance(result, QuasiAffineBound)


class TestHull:
    def test_union_box_fig1(self):
        dom = Polyhedron.from_bounds({"i": (10, 14), "j": (10, 14), "k": (11, 20)})
        spaces = [
            image_of_polyhedron(dom, AffineFunction(["i", "j", "k"], [i, j + 1]), ["d0", "d1"]),
            image_of_polyhedron(dom, AffineFunction(["i", "j", "k"], [i + j, j + 1]), ["d0", "d1"]),
            image_of_polyhedron(dom, AffineFunction(["i", "j", "k"], [i, k]), ["d0", "d1"]),
        ]
        hull = rectangular_hull(spaces)
        assert hull.evaluate_box() == {"d0": (10, 28), "d1": (11, 20)}
        assert hull.footprint() == 19 * 10

    def test_parametric_tile_hull(self):
        constraints = [
            Constraint.greater_equal(i, iT),
            Constraint.greater_equal(i, 0),
            Constraint.less_equal(i, iT + 31),
            Constraint.less_equal(i, N - 1),
        ]
        dom = Polyhedron(["i"], constraints, params=["iT", "N"])
        context = Polyhedron(
            ["iT", "N"],
            [Constraint.greater_equal(iT, 0), Constraint.less_equal(iT, N - 1),
             Constraint.greater_equal(N, 32)],
        )
        spaces = [
            image_of_polyhedron(dom, AffineFunction(["i"], [i - 1]), ["d0"]),
            image_of_polyhedron(dom, AffineFunction(["i"], [i + 1]), ["d0"]),
        ]
        hull = rectangular_hull(spaces, context)
        offset = hull.resolved_lower_bound("d0")
        assert offset == iT - 1
        assert hull.allocation_extent("d0", offset) == 34

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            rectangular_hull(
                [Polyhedron.from_bounds({"a": (0, 1)}), Polyhedron.from_bounds({"b": (0, 1)})]
            )


class TestDependence:
    def _jacobi_accesses(self):
        domain = Polyhedron.from_bounds({"t": (0, 3), "i": (1, 6)}, dim_order=["t", "i"])
        t, ii = AffineExpr.var("t"), AffineExpr.var("i")
        write = AccessDescriptor("S", "A", AffineFunction(["t", "i"], [t + 1, ii]), domain, True, 0)
        read = AccessDescriptor("S", "A", AffineFunction(["t", "i"], [t, ii + 1]), domain, False, 0)
        return write, read

    def test_flow_dependence_found(self):
        write, read = self._jacobi_accesses()
        deps = DependenceAnalyzer([write, read]).flow_dependences()
        assert deps, "expected a flow dependence between time steps"
        assert all(d.level == 1 for d in deps)

    def test_distance_vector(self):
        write, read = self._jacobi_accesses()
        deps = DependenceAnalyzer([write, read]).flow_dependences()
        distances = deps[0].distance_vector()
        assert distances[0] == 1 and distances[1] == -1

    def test_negative_component_detected(self):
        write, read = self._jacobi_accesses()
        dep = DependenceAnalyzer([write, read]).flow_dependences()[0]
        assert dep.allows_negative_component("i")
        assert not dep.allows_negative_component("t")

    def test_no_dependence_between_different_arrays(self):
        domain = Polyhedron.from_bounds({"i": (0, 3)})
        a = AccessDescriptor("S", "A", AffineFunction(["i"], [i]), domain, True, 0)
        b = AccessDescriptor("S", "B", AffineFunction(["i"], [i]), domain, False, 0)
        assert DependenceAnalyzer([a, b]).dependences() == []

    def test_parallel_loop_detection(self):
        domain = Polyhedron.from_bounds({"i": (0, 3)})
        write = AccessDescriptor("S", "A", AffineFunction(["i"], [i]), domain, True, 0)
        read = AccessDescriptor("S", "A", AffineFunction(["i"], [i]), domain, False, 0)
        analyzer = DependenceAnalyzer([write, read])
        assert analyzer.is_loop_parallel("i")
