"""The integer point-evaluation kernel against the ``Fraction`` code it replaced.

``eval_oracle`` holds the previous bodies of ``AffineExpr.evaluate`` and of
everything built on it.  Exact results must be *equal*; the §4.3 cost model's
floats must have identical ``float.hex()`` — the tile ranking and every
fingerprint downstream depend on the last bit.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import eval_oracle as oracle
from repro.autotune.space import ConfigurationSpace
from repro.ir.ast import evaluate_bound
from repro.kernels import available_kernels, get_kernel
from repro.polyhedral.affine import AffineExpr, scaled_binding
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.parametric import QuasiAffineBound
from repro.polyhedral.polyhedron import Polyhedron

NAMES = ["a", "b", "c", "d"]

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
coefficients = st.one_of(st.integers(-5, 5), rationals)
#: ints, Fractions and floats that are exact small rationals — what ``as_fraction`` accepts
values = st.one_of(
    st.integers(-9, 9),
    rationals,
    st.sampled_from([0.5, -0.25, 3.0, 1.125, -7.75]),
)


@st.composite
def expressions(draw):
    coeffs = draw(st.dictionaries(st.sampled_from(NAMES), coefficients, max_size=len(NAMES)))
    return AffineExpr(coeffs, draw(coefficients))


@st.composite
def int_bindings(draw):
    return {name: draw(st.integers(-9, 9)) for name in NAMES}


@st.composite
def mixed_bindings(draw):
    return {name: draw(values) for name in NAMES}


@st.composite
def quasi_bounds(draw):
    return QuasiAffineBound(
        draw(st.sampled_from(["min", "max"])),
        tuple(draw(st.lists(expressions(), min_size=1, max_size=4))),
    )


class TestEqualToTheFractionOracle:
    @given(expressions(), mixed_bindings())
    def test_evaluate(self, expr, binding):
        value = expr.evaluate(binding)
        assert isinstance(value, Fraction)
        assert value == oracle.evaluate(expr, binding)

    @given(expressions(), int_bindings())
    def test_evaluate_on_integer_points(self, expr, binding):
        assert expr.evaluate(binding) == oracle.evaluate(expr, binding)

    @given(expressions(), mixed_bindings())
    def test_ratio_floor_ceil_truncate(self, expr, binding):
        exact = oracle.evaluate(expr, binding)
        numerator, denominator = expr.evaluate_ratio(binding)
        assert denominator > 0 and Fraction(numerator, denominator) == exact
        assert expr.floor_at(binding) == exact.numerator // exact.denominator
        assert expr.ceil_at(binding) == -(-exact.numerator // exact.denominator)
        assert expr.truncate_at(binding) == int(exact)

    @given(expressions(), mixed_bindings())
    def test_a_point_scaled_once_prices_like_the_point(self, expr, binding):
        ints, scale = scaled_binding(binding)
        assert all(type(v) is int for v in ints.values())
        numerator, denominator = expr.evaluate_ratio(ints, scale)
        assert Fraction(numerator, denominator) == oracle.evaluate(expr, binding)
        # int / int and float(Fraction) round the same exact rational
        assert (numerator / denominator).hex() == float(oracle.evaluate(expr, binding)).hex()

    @given(expressions(), st.booleans(), mixed_bindings())
    def test_satisfied_by(self, expr, is_equality, binding):
        constraint = Constraint(expr, is_equality=is_equality)
        assert constraint.satisfied_by(binding) == oracle.satisfied_by(constraint, binding)

    @given(st.lists(expressions(), max_size=5), int_bindings())
    def test_contains(self, exprs, point):
        polyhedron = Polyhedron(NAMES, [Constraint(e) for e in exprs])
        assert polyhedron.contains(point) == oracle.contains(polyhedron, point)

    @given(quasi_bounds(), mixed_bindings())
    def test_quasi_affine_bound(self, bound, binding):
        assert bound.evaluate(binding) == oracle.bound_evaluate(bound, binding)
        # lower (max) bounds round up, upper (min) bounds round down
        assert bound.evaluate_int(binding) == oracle.bound_evaluate_int(bound, binding)

    @given(st.one_of(expressions(), quasi_bounds(), st.integers(-9, 9)), int_bindings())
    def test_evaluate_bound(self, value, binding):
        for is_lower in (True, False):
            assert evaluate_bound(value, binding, is_lower=is_lower) == oracle.evaluate_bound(
                value, binding, is_lower=is_lower
            )


class TestRejectedInputs:
    EXPR = AffineExpr({"a": Fraction(1, 2), "b": -3}, 1)

    @pytest.mark.parametrize(
        "evaluate",
        [
            EXPR.evaluate,
            EXPR.floor_at,
            Constraint(EXPR).satisfied_by,
            QuasiAffineBound("max", (EXPR,)).evaluate,
            QuasiAffineBound("max", (EXPR,)).evaluate_int,
            lambda binding: evaluate_bound(TestRejectedInputs.EXPR, binding, is_lower=True),
        ],
    )
    def test_missing_bool_and_inexact_values(self, evaluate):
        with pytest.raises(KeyError):
            evaluate({"a": 1})
        with pytest.raises(TypeError):
            evaluate({"a": 1, "b": True})
        with pytest.raises(ValueError):
            evaluate({"a": 1, "b": 0.1})

    def test_names_the_expression_does_not_mention_are_not_read(self):
        assert self.EXPR.evaluate({"a": 2, "b": 1, "zz": True}) == -1

    def test_the_integer_form_is_what_is_stored_and_survives_pickling(self):
        import pickle

        assert self.EXPR.int_form() == (2, (("a", 1), ("b", -6)), 2)
        # lowest terms whatever it was built from: (2a - 12b + 4) / 4 is the same expression
        assert (AffineExpr({"a": 2, "b": -12}, 4) / 4).int_form() == self.EXPR.int_form()
        clone = pickle.loads(pickle.dumps(self.EXPR))
        assert clone == self.EXPR and clone.evaluate({"a": 3, "b": 1}) == Fraction(-1, 2)


# -- the §4.3 cost model ---------------------------------------------------------------------
def _model(name):
    kernel = get_kernel(name)
    space = ConfigurationSpace(kernel.build_check())
    return space.cost_model(num_blocks=4, threads=16)


@pytest.fixture(scope="module", params=available_kernels())
def model(request):
    return _model(request.param)


def _probes(model):
    """Tile vectors a solver visits: iterates, forward differences, clipped ends."""
    loops = model.tile_loops
    extents = [float(model.loop_extents[loop]) for loop in loops]
    iterates = [
        [max(extent / 4.0, 1.0) for extent in extents],
        [min(16.0, extent) for extent in extents],
        [max(extent / 3.0, 1.0) + 0.123456789 for extent in extents],
        [1.0 for _ in extents],
        list(extents),
    ]
    vectors = []
    for iterate in iterates:
        vectors.append(iterate)
        for index in range(len(loops)):
            probe = list(iterate)
            probe[index] = min(probe[index] + 1.49e-8 * max(1.0, abs(probe[index])), extents[index])
            vectors.append(probe)
    return [dict(zip(loops, vector)) for vector in vectors]


def _hexed(details):
    return [
        {key: value.hex() if isinstance(value, float) else value for key, value in entry.items()}
        for entry in details
    ]


class TestCostModelFloatsAreBitIdentical:
    def test_every_kernel_has_buffers_to_price(self, model):
        assert model.descriptors

    def test_movement_cost_footprint_and_details(self, model):
        for sizes in _probes(model):
            cost = model.movement_cost(sizes)
            footprint = model.footprint_bytes(sizes)
            assert isinstance(cost, float) and isinstance(footprint, float)
            assert cost.hex() == oracle.movement_cost(model, sizes).hex()
            assert footprint.hex() == oracle.footprint_bytes(model, sizes).hex()
            assert _hexed(model.buffer_details(sizes)) == _hexed(
                oracle.buffer_details(model, sizes)
            )

    def test_integer_candidates(self, model):
        # the rounding step prices plain-int tile vectors
        for size in (1, 2, 3, 8):
            sizes = {loop: min(size, model.loop_extents[loop]) for loop in model.tile_loops}
            assert model.movement_cost(sizes).hex() == oracle.movement_cost(model, sizes).hex()
            assert model.footprint_bytes(sizes).hex() == oracle.footprint_bytes(model, sizes).hex()

    def test_buffer_details_hands_out_copies(self, model):
        sizes = _probes(model)[0]
        first = model.buffer_details(sizes)
        first[0]["footprint_bytes"] = -1.0
        assert model.buffer_details(sizes)[0]["footprint_bytes"] >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_tile_vectors(self, data):
        model = _MATMUL
        sizes = {
            loop: data.draw(st.floats(1.0, float(model.loop_extents[loop]), allow_nan=False))
            for loop in model.tile_loops
        }
        assert model.movement_cost(sizes).hex() == oracle.movement_cost(model, sizes).hex()
        assert model.footprint_bytes(sizes).hex() == oracle.footprint_bytes(model, sizes).hex()


_MATMUL = _model("matmul")
