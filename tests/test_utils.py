"""Unit tests for repro.utils (fractions, naming, validation, components)."""

from fractions import Fraction

import pytest

from repro.utils import (
    NameGenerator,
    as_fraction,
    connected_components,
    fraction_ceil,
    fraction_floor,
    fresh_name,
    require,
    require_positive,
    require_type,
)


class TestAsFraction:
    def test_int(self):
        assert as_fraction(7) == Fraction(7)

    def test_fraction_passthrough(self):
        value = Fraction(3, 4)
        assert as_fraction(value) is value

    def test_string(self):
        assert as_fraction("2/3") == Fraction(2, 3)

    def test_exact_float(self):
        assert as_fraction(0.5) == Fraction(1, 2)

    def test_inexact_float_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(0.1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(float("nan"))

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_fraction(True)

    def test_other_type_rejected(self):
        with pytest.raises(TypeError):
            as_fraction(object())


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(Fraction(7, 2), 3), (Fraction(-7, 2), -4), (Fraction(4), 4), (Fraction(0), 0)],
    )
    def test_floor(self, value, expected):
        assert fraction_floor(value) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [(Fraction(7, 2), 4), (Fraction(-7, 2), -3), (Fraction(4), 4), (Fraction(0), 0)],
    )
    def test_ceil(self, value, expected):
        assert fraction_ceil(value) == expected


class TestNameGenerator:
    def test_fresh_avoids_reserved(self):
        gen = NameGenerator(["x"])
        assert gen.fresh("x") == "x0"

    def test_fresh_unreserved(self):
        gen = NameGenerator()
        assert gen.fresh("y") == "y"
        assert gen.fresh("y") == "y0"

    def test_fresh_sequence_distinct(self):
        gen = NameGenerator()
        names = gen.fresh_sequence("c", 5)
        assert len(set(names)) == 5

    def test_contains(self):
        gen = NameGenerator()
        gen.reserve("a")
        assert "a" in gen

    def test_module_level_fresh_name_unique(self):
        assert fresh_name("t") != fresh_name("t")


class TestValidation:
    def test_require_ok(self):
        require(True, "fine")

    def test_require_fails(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_require_type_ok(self):
        require_type(3, int, "x")

    def test_require_type_fails(self):
        with pytest.raises(TypeError, match="x must be"):
            require_type("3", int, "x")

    def test_require_positive(self):
        require_positive(1, "n")
        with pytest.raises(ValueError):
            require_positive(0, "n")


class TestConnectedComponents:
    def test_isolated_nodes_are_their_own_components(self):
        assert connected_components(3, []) == [[0], [1], [2]]
        assert connected_components(0, []) == []

    def test_components_are_sorted_and_ordered_by_first_member(self):
        # the edge order (and direction) must not matter, only the edge set
        edges = [(5, 1), (4, 2), (3, 5), (2, 0)]
        expected = [[0, 2, 4], [1, 3, 5]]
        assert connected_components(6, edges) == expected
        assert connected_components(6, [(b, a) for a, b in reversed(edges)]) == expected

    def test_chain_collapses_to_one_component(self):
        assert connected_components(5, [(3, 4), (1, 2), (2, 3), (0, 1)]) == [[0, 1, 2, 3, 4]]
