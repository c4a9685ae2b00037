"""Algorithm 2's bound resolution and the rectangular hull against brute force.

On difference-constraint contexts inside ``[-4, 4]^n`` every vertex is an
integer point, so the rational answers Fourier–Motzkin gives must coincide
with what enumerating the integer points gives.  The same file pins the
once-per-request memo under ``resolve_quasi_affine`` / ``_max_over_context``:
equal answers, no second elimination, nothing kept after the request.
Questions are asked over the context components they touch: an independent
component — feasible or not — changes no answer, and one request's
elimination work is counted.  Last, the planner's block context plans exactly
what a context with every level's tile origins plans, on every kernel.
"""

import itertools
import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.autotune import SpaceOptions, autotune
from repro.kernels import available_kernels, get_kernel
from repro.polyhedral import fourier_motzkin as fm
from repro.polyhedral import parametric
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.facts import Facts
from repro.polyhedral.hull import rectangular_hull
from repro.polyhedral.parametric import (
    QuasiAffineBound,
    _max_over_context,
    resolve_quasi_affine,
    shared_resolutions,
)
from repro.polyhedral.polyhedron import Polyhedron

NAMES = ["p", "q", "r"]
BOX = range(-4, 5)


@st.composite
def contexts(draw):
    """A box in [-4, 4]^n cut by a few difference constraints ``x - y <= c``."""
    names = NAMES[: draw(st.integers(1, 3))]
    constraints = []
    for name in names:
        low = draw(st.integers(-4, 4))
        high = draw(st.integers(low, 4))
        constraints.extend(Constraint.bounds(name, low, high))
    for _ in range(draw(st.integers(0, 2))):
        x, y = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        if x != y:
            difference = AffineExpr.var(x) - AffineExpr.var(y)
            constraints.append(Constraint.less_equal(difference, draw(st.integers(-3, 6))))
    return Polyhedron(names, constraints)


def points_of(context):
    return [
        dict(zip(context.dims, values))
        for values in itertools.product(BOX, repeat=len(context.dims))
        if context.contains(dict(zip(context.dims, values)))
    ]


@st.composite
def expressions(draw, names):
    coeffs = {name: draw(st.integers(-2, 2)) for name in names}
    return AffineExpr(coeffs, draw(st.integers(-4, 4)))


@st.composite
def resolution_queries(draw):
    context = draw(contexts())
    kind = draw(st.sampled_from(["min", "max"]))
    exprs = draw(st.lists(expressions(context.dims), min_size=2, max_size=3))
    return QuasiAffineBound(kind, tuple(exprs)), context


def _every_component(facts, variables):
    """:meth:`Facts._touched` without the split: every question sees the whole context."""
    return list({id(c): c for c in facts._components[facts.state].values()}.values())


class TestResolutionAgainstEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(resolution_queries())
    def test_a_resolved_bound_is_the_pointwise_extreme(self, query):
        bound, context = query
        resolved = resolve_quasi_affine(bound, context)
        if isinstance(resolved, QuasiAffineBound):
            assert resolved == bound  # unresolved: handed back as is
            return
        assert resolved in bound.exprs
        pick = min if bound.kind == "min" else max
        for point in points_of(context):
            assert resolved.evaluate(point) == pick(e.evaluate(point) for e in bound.exprs)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_max_over_context_is_the_enumerated_maximum(self, data):
        context = data.draw(contexts())
        points = points_of(context)
        assume(points)
        expr = data.draw(expressions(context.dims))
        assert _max_over_context(expr, context) == max(expr.evaluate(p) for p in points)

    def test_an_infeasible_component_the_question_does_not_touch(self, monkeypatch):
        """Over an empty context every question has the whole context's answer,
        though the component the subject touches (``p``) alone is feasible."""
        p, q = AffineExpr.var("p"), AffineExpr.var("q")
        context = Polyhedron(
            ["p", "q"], [*Constraint.bounds("p", 0, 3), *Constraint.bounds("q", 2, 1)]
        )
        assert context.is_empty() and len(context.facts._touched(["p", "q"])) == 2
        bound = QuasiAffineBound("max", (p, 2 - p))
        asked = resolve_quasi_affine(bound, context), _max_over_context(p, context)
        # vacuously dominant: the first candidate; no upper bound survives the projection
        assert asked == (p, None)
        # and exactly what asking over the whole context gives
        monkeypatch.setattr(Facts, "_touched", _every_component)
        assert (resolve_quasi_affine(bound, context), _max_over_context(p, context)) == asked
        # whereas over {p} alone neither candidate dominates and p reaches 3
        alone = Polyhedron(["p"], Constraint.bounds("p", 0, 3))
        assert resolve_quasi_affine(bound, alone) == bound
        assert _max_over_context(p, alone) == 3

    @settings(max_examples=100, deadline=None)
    @given(resolution_queries(), contexts(), st.data())
    def test_an_independent_component_changes_no_answer(self, query, other, data):
        """Next to a second box over other names (feasible or not), every answer
        is the whole context's, and while that box is feasible it is the first one's."""
        bound, context = query
        other = other.rename_dims({"p": "u", "q": "v", "r": "w"})
        widened = Polyhedron(context.dims + other.dims, [*context.constraints, *other.constraints])
        expr = data.draw(expressions(context.dims))
        asked = resolve_quasi_affine(bound, widened), _max_over_context(expr, widened)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Facts, "_touched", _every_component)
            assert (resolve_quasi_affine(bound, widened), _max_over_context(expr, widened)) == asked
        if not other.is_empty():
            assert asked == (resolve_quasi_affine(bound, context), _max_over_context(expr, context))

    def test_names_outside_the_context_do_not_resolve(self):
        context = Polyhedron(["p"], Constraint.bounds("p", 0, 3))
        stray = AffineExpr.var("p") + AffineExpr.var("zz")
        assert _max_over_context(stray, context) is None
        bound = QuasiAffineBound("max", (AffineExpr.var("p"), stray))
        assert resolve_quasi_affine(bound, context) == bound


# -- the once-per-request memo ---------------------------------------------------------------
@pytest.fixture
def fm_calls(monkeypatch):
    """Counts every elimination the Fourier–Motzkin module is asked for."""
    calls = []
    for name in ("eliminate_rows", "rows_infeasible", "row_bounds"):
        original = getattr(fm, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(fm, name, counted)
    return calls


def _tile_context():
    origin, size = AffineExpr.var("o"), AffineExpr.var("s")
    return Polyhedron(
        ["o", "s"],
        [
            Constraint.greater_equal(origin, 0),
            Constraint.less_equal(origin, 15),
            Constraint.greater_equal(size, 1),
            Constraint.less_equal(size, 8),
        ],
    )


class TestResolutionMemo:
    def test_a_repeated_query_costs_no_further_elimination(self, fm_calls):
        origin, size = AffineExpr.var("o"), AffineExpr.var("s")
        memo = {}
        for attempt in range(2):
            # equal by value, not the same objects: the memo is value-keyed
            bound = QuasiAffineBound("max", (origin, origin + size - 1, origin - 2))
            context = _tile_context()
            before = len(fm_calls)
            with shared_resolutions(memo):
                resolved = resolve_quasi_affine(bound, context)
                highest = _max_over_context(origin + size - 1, context)
            spent = len(fm_calls) - before
            assert resolved == origin + size - 1
            assert highest == 22
            if attempt == 0:
                assert "eliminate_rows" in fm_calls and spent > 0
            else:
                # Polyhedron() itself only reduces its rows (not counted)
                assert spent == 0
        assert len(memo) == 2

    def test_an_unbounded_answer_is_remembered_too(self, fm_calls):
        context = Polyhedron(["o"], [Constraint.greater_equal(AffineExpr.var("o"), 0)])
        with shared_resolutions({}):
            assert _max_over_context(AffineExpr.var("o"), context) is None
            spent = len(fm_calls)
            assert _max_over_context(AffineExpr.var("o"), context) is None
            assert len(fm_calls) == spent

    def test_nothing_is_remembered_outside_a_block_or_on_another_thread(self, fm_calls):
        import threading

        context, expr = _tile_context(), AffineExpr.var("o") + AffineExpr.var("s")
        memo = {}
        with shared_resolutions(memo):
            with shared_resolutions({}):  # blocks nest; the outer memo comes back
                _max_over_context(expr, context)
            assert not memo
            worker = threading.Thread(target=_max_over_context, args=(expr, context))
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive() and not memo  # the block is per thread
            _max_over_context(expr, context)
            assert len(memo) == 1
        spent = len(fm_calls)
        assert _max_over_context(expr, context) == 23
        assert len(fm_calls) > spent and len(memo) == 1

    def test_the_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(parametric, "RESOLUTIONS_LIMIT", 4)
        context, memo = _tile_context(), {}
        with shared_resolutions(memo):
            for constant in range(10):
                _max_over_context(AffineExpr.var("o") + constant, context)
                assert 0 < len(memo) <= 4

    def test_one_request_resolves_each_question_once(self, monkeypatch):
        computed = {"_dominant_candidate": [], "_projected_maximum": []}
        for name, log in computed.items():
            original = getattr(parametric, name)

            def logged(first, context, _original=original, _log=log):
                _log.append((first, context))
                return _original(first, context)

            monkeypatch.setattr(parametric, name, logged)
        kernel = get_kernel("mpeg4_me")
        # the benchmark's cold space (benchmarks/e2e/workloads.py COLD_SPACE)
        report = autotune(
            kernel.build(height=16, width=16, window=2),
            cache=None,
            strategy="pruned",
            space_options=SpaceOptions(
                thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
            ),
            seed=1,
        )
        assert len(report.results) >= 2
        for log in computed.values():
            assert len(log) == len(set(log)), "a question was resolved twice in one request"
        assert 0 < len(computed["_dominant_candidate"]) <= 20
        assert 0 < len(computed["_projected_maximum"]) <= 30

    def test_one_request_eliminates_few_rows(self, monkeypatch):
        """The same request's Fourier–Motzkin work, counted instead of timed: the rows
        every column elimination is handed.  15 330 when each question eliminated the
        whole all-levels context, 5 432 over the whole block context, 3 730 over the
        components a question touches."""
        handed = []
        original = fm._eliminate_column

        def counted(rows, col):
            handed.append(len(rows))
            return original(rows, col)

        monkeypatch.setattr(fm, "_eliminate_column", counted)
        report = autotune(
            get_kernel("mpeg4_me").build(height=16, width=16, window=2),
            cache=None,
            strategy="pruned",
            space_options=SpaceOptions(
                thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
            ),
            seed=1,
        )
        assert len(report.results) >= 2
        assert 0 < sum(handed) <= 4500

    def test_a_session_family_shares_one_memo_and_takes_it_along(self):
        from repro.compiler import CompilationSession

        session = CompilationSession(get_kernel("matmul").build_check())
        session.compile()
        assert session._resolutions  # Algorithm 2 asked something
        derived = session.with_passes(session.manager.passes)
        assert derived._resolutions is session._resolutions
        # the memo is the session's: another session starts empty, and it
        # pickles (keys re-hash in the worker) so a pool worker starts warm
        assert not CompilationSession(get_kernel("matmul").build_check())._resolutions
        clone = pickle.loads(pickle.dumps(session))
        assert clone._resolutions == session._resolutions


# -- the rectangular hull ----------------------------------------------------------------------
@st.composite
def parametric_members(draw):
    """1–3 polyhedra over (x, y) whose bounds shift with one parameter ``n``."""
    n = AffineExpr.var("n")
    members = []
    for _ in range(draw(st.integers(1, 3))):
        constraints = []
        for name in ("x", "y"):
            low = draw(st.integers(-4, 2))
            high = draw(st.integers(low, 4))
            shift = draw(st.integers(-1, 1))
            constraints.extend(Constraint.bounds(name, n * shift + low, n * shift + high))
        if draw(st.booleans()):
            difference = AffineExpr.var("x") - AffineExpr.var("y")
            constraints.append(Constraint.less_equal(difference, draw(st.integers(0, 4))))
        members.append(Polyhedron(["x", "y"], constraints, params=["n"]))
    return members


class TestHullAgainstEnumeration:
    @settings(max_examples=100, deadline=None)
    @given(parametric_members(), st.integers(0, 3))
    def test_box_extents_and_footprint(self, members, n):
        hull = rectangular_hull(members)
        points = [
            (x, y)
            for x, y in itertools.product(range(-8, 9), repeat=2)
            if any(m.contains({"x": x, "y": y, "n": n}) for m in members)
        ]
        box = hull.evaluate_box({"n": n})
        if not points:
            assert hull.footprint({"n": n}) == 0
            return
        for index, dim in enumerate(("x", "y")):
            # per-member boxes are exact only for non-empty members; an empty
            # member (x - y cut) may still widen the box, never shrink it
            low, high = box[dim]
            assert low <= min(p[index] for p in points)
            assert high >= max(p[index] for p in points)
        if all(
            any(m.contains({"x": x, "y": y, "n": n}) for x, y in points) for m in members
        ):
            assert box == {
                "x": (min(p[0] for p in points), max(p[0] for p in points)),
                "y": (min(p[1] for p in points), max(p[1] for p in points)),
            }
            assert hull.footprint({"n": n}) == (
                (box["x"][1] - box["x"][0] + 1) * (box["y"][1] - box["y"][0] + 1)
            )

    @settings(max_examples=100, deadline=None)
    @given(parametric_members())
    def test_resolved_offset_and_allocation_cover_every_accessed_point(self, members):
        context = Polyhedron(["n"], Constraint.bounds("n", 0, 3))
        hull = rectangular_hull(members, context)
        for index, dim in enumerate(("x", "y")):
            offset = hull.resolved_lower_bound(dim)
            extent = hull.allocation_extent(dim, offset)
            assert extent is not None  # the context bounds every difference
            for n in range(4):
                base = (
                    offset.floor_at({"n": n})
                    if isinstance(offset, QuasiAffineBound)
                    else offset.evaluate({"n": n})
                )
                for x, y in itertools.product(range(-8, 9), repeat=2):
                    if any(m.contains({"x": x, "y": y, "n": n}) for m in members):
                        position = (x, y)[index] - base
                        assert 0 <= position < extent

    def test_member_bounds_are_shared_and_read_only(self):
        members = [Polyhedron(["x"], Constraint.bounds("x", 0, AffineExpr.var("n")), params=["n"])]
        hull = rectangular_hull(members)
        assert hull.member_bounds is hull.member_bounds
        with pytest.raises(TypeError):
            hull.member_bounds[0]["x"] = None
        clone = pickle.loads(pickle.dumps(hull))
        assert clone.evaluate_box({"n": 5}) == {"x": (0, 5)}
        with pytest.raises(TypeError):
            clone.member_bounds[0]["x"] = None

    def test_equal_polyhedra_hash_equal_and_the_hash_is_kept(self):
        low, high = Constraint.bounds("x", 0, 7)
        first, second = Polyhedron(["x"], [low, high]), Polyhedron(["x"], [high, low])
        assert first == second and hash(first) == hash(second)
        assert first._hash == hash(first)
        # str hashes are per process: a pickled polyhedron re-hashes where it lands
        clone = pickle.loads(pickle.dumps(first))
        assert clone == first and clone._hash is None and hash(clone) == hash(first)


# -- the block context ---------------------------------------------------------------------
def all_levels_context(tiled):
    """The planner context with the tile iterators of *every* level, thread level
    included, built from ``tiled.levels`` with :func:`tile_program`'s constraints."""
    from repro.tiling.multilevel import _extract_perfect_nest

    def expr(bound):
        return bound if isinstance(bound, AffineExpr) else AffineExpr.const(bound)

    loops, _ = _extract_perfect_nest(tiled.original)
    chains = {loop.iterator: (expr(loop.lower), [expr(loop.upper)]) for loop in loops}
    dims, constraints = [], []
    for level in tiled.levels:
        for name, (origin, size) in level.iterators.items():
            lower, uppers = chains[name]
            dims.append(origin)
            constraints.append(Constraint.greater_equal(AffineExpr.var(origin), lower))
            constraints.extend(Constraint.less_equal(AffineExpr.var(origin), u) for u in uppers)
            chains[name] = (AffineExpr.var(origin), [*uppers, AffineExpr.var(origin) + (size - 1)])
    return Polyhedron(dims, constraints, tiled.original.params)


#: per kernel, the benchmark's size (``test_decisions_unchanged.SIZES``) or its check size
EQUIVALENCE_SIZES = {
    "matmul": {"m": 32, "n": 32, "k": 32},
    "conv2d": {"height": 16, "width": 16, "kernel": 3},
    "jacobi1d": {"size": 1024},
    "jacobi2d": {"height": 8, "width": 8},
    "distributed-gemm": {"m": 8, "n": 8, "k": 8},
    "mpeg4_me": {"height": 16, "width": 16, "window": 2},
}
#: launch geometry (blocks, threads) × memory tile size on every tiled loop × target
EQUIVALENCE_GRID = [
    (geometry, scale, target)
    for geometry in ((4, 32), (16, 64))
    for scale in (1, 16)
    for target in ("gpu", "cell")
]


def _compiled(program, options, with_c):
    """What a compile hands on: the plan, its offsets, the workload, geometry and C text."""
    from repro.compiler import CompilationSession
    from repro.ir.printer import program_to_c

    mapped = CompilationSession(program, options=options).compile()
    specs = mapped.plan.specs()
    return (
        mapped.plan.summary(),
        [spec.offsets for spec in specs],
        [spec.offset_definitions for spec in specs],
        mapped.workload,
        mapped.geometry,
        program_to_c(mapped.program) if with_c else None,
    )


class TestBlockContext:
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_SIZES))
    def test_the_block_context_plans_what_the_all_levels_context_planned(self, name, monkeypatch):
        from repro.compiler import passes
        from repro.core.options import MappingOptions

        assert set(EQUIVALENCE_SIZES) == set(available_kernels())
        kernel = get_kernel(name)
        program = kernel.build(**EQUIVALENCE_SIZES[name])
        block_tile_program = passes.tile_program

        def all_levels_tile_program(*args, **kwargs):
            tiled = block_tile_program(*args, **kwargs)
            tiled.context = all_levels_context(tiled)
            return tiled

        for (blocks, threads), scale, target in EQUIVALENCE_GRID:
            options = MappingOptions(
                num_blocks=blocks,
                threads_per_block=threads,
                tile_sizes={loop: scale for loop in kernel.tile_loops},
                target=target,
                hoisting=target == "gpu",
            )
            # jacobi2d's copy loops are slow to scan at any tile size: one C text there
            with_c = name != "jacobi2d" or (blocks, scale, target) == (16, 16, "gpu")
            block = _compiled(program, options, with_c)
            monkeypatch.setattr(passes, "tile_program", all_levels_tile_program)
            assert _compiled(program, options, with_c) == block, options
            monkeypatch.setattr(passes, "tile_program", block_tile_program)

    def test_the_block_context_is_the_projection_of_the_all_levels_one(self):
        from repro.compiler import CompilationSession

        session = CompilationSession(get_kernel("mpeg4_me").build(height=16, width=16, window=2))
        tiled = session.compile().tiled
        full = all_levels_context(tiled)
        assert set(full.dims) - set(tiled.context.dims) == {"it", "jt"}
        assert full.project_onto(tiled.context.dims).equals(tiled.context)
