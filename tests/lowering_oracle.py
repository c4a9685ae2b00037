"""Test oracle for the executable-Python lowerings.

Three independent things live here, shared by ``test_lowering_differential``
and ``test_lowering_guards``:

* **executors** — one program run through the reference interpreter, the
  ``lower-py`` source, the ``lower-py-vec`` source and (optionally) the compiled
  C harness, on the same seeded inputs;
* **a hypothesis strategy over small affine programs** — 1–3 nested loops,
  extents 1–9, affine indices with coefficients in {-1, 0, 1, 2} whose offsets
  and array extents are sized by interval arithmetic so every access is in
  range, every reduction, the four intrinsics, triangular bounds, non-unit
  steps, guards (implied, not implied, equalities), a parametric extent, a
  loop-carried read of the output — and over mapping configurations (tile
  sizes that do and do not divide the extents, scratchpad on/off) for the
  rectangular ones;
* **an enumeration check of every pruning decision** — the production
  emitters, subclassed only to *log* each conjunct they dropped and each slice
  they proved together with the loops around it; :func:`verify_decisions`
  then walks the integer points of those loops (no Fourier–Motzkin, no
  polyhedra: it runs the loops) and evaluates the dropped conjunct / the
  sliced index at each.

Not collected by pytest (no ``test_`` prefix); never import it from ``src/``.
"""

from __future__ import annotations

import functools
import re
import subprocess
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.autotune.space import Configuration
from repro.codegen import emit_c_harness, emit_python_source, emit_python_source_vectorized
from repro.codegen.emit_py import _Emitter, loop_facts, render_module
from repro.codegen.emit_py_vec import _VecEmitter
from repro.compiler import CompilationSession
from repro.ir.ast import BlockNode, GuardNode, LoopNode, StatementNode
from repro.ir.builder import ProgramBuilder
from repro.ir.expressions import AffineValue, Call, Expr, Iter
from repro.ir.program import Program
from repro.kernels import get_kernel
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.parametric import QuasiAffineBound
from repro.polyhedral.polyhedron import Polyhedron
from repro.runtime.interpreter import run_program


# -- executors -----------------------------------------------------------------------------
def seeded_arrays(program: Program, seed: int = 0) -> Dict[str, np.ndarray]:
    """Random global arrays and cleared scratchpad buffers, all float64."""
    rng = np.random.default_rng(seed)
    binding = program.bound_params()
    return {
        array.name: np.zeros(array.concrete_shape(binding))
        if array.is_local
        else rng.random(array.concrete_shape(binding))
        for array in program.arrays.values()
    }


def run_interpreter(program: Program, arrays: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    context = run_program(program, inputs=arrays, count_accesses=False)
    return {name: context.data(name) for name in arrays}


def run_source(source: str, program: Program, arrays: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<lowered:{program.name}>", "exec"), namespace)
    copies = {name: value.copy() for name, value in arrays.items()}
    namespace["kernel"](copies, program.bound_params())
    return copies


def run_all_python(program: Program, seed: int = 0) -> Tuple[Dict[str, np.ndarray], ...]:
    """``(interpreter, lower-py, lower-py-vec)`` arrays after one run each."""
    arrays = seeded_arrays(program, seed)
    with np.errstate(over="ignore", invalid="ignore"):  # a long product may overflow
        return (
            run_interpreter(program, arrays),
            run_source(emit_python_source(program), program, arrays),
            run_source(emit_python_source_vectorized(program), program, arrays),
        )


def lcg_arrays(program: Program, seed: int) -> Dict[str, np.ndarray]:
    """The arrays exactly as the C harness's ``init_arrays(seed)`` fills them."""
    mask = (1 << 64) - 1
    state = 0x9E3779B97F4A7C15 ^ seed
    binding = program.bound_params()
    arrays: Dict[str, np.ndarray] = {}
    for array in program.arrays.values():
        flat = np.zeros(int(np.prod(array.concrete_shape(binding))))
        if not array.is_local:
            for position in range(flat.size):
                state = (state * 6364136223846793005 + 1442695040888963407) & mask
                flat[position] = ((state >> 11) & 0xFFFFFF) / 16777216.0
        arrays[array.name] = flat.reshape(array.concrete_shape(binding))
    return arrays


def c_checksum(program: Program, compiler: str, workdir, seed: int) -> float:
    """Compile the C harness and return the checksum of one run of it."""
    source = workdir / "harness.c"
    binary = workdir / "harness"
    source.write_text(emit_c_harness(program, seed=seed, warmup=0, repeat=1))
    subprocess.run([compiler, "-O0", "-o", str(binary), str(source), "-lm"], check=True)
    done = subprocess.run([str(binary)], check=True, capture_output=True, text=True)
    return float(re.search(r"checksum (\S+)", done.stderr).group(1))


# -- the program strategy ------------------------------------------------------------------
ITERATORS = ("i", "j", "k")
REDUCTIONS = (None, "+", "*", "min", "max")


@dataclass
class _Shape:
    """Interval arithmetic over the loop box: sizes an array so an index fits."""

    ranges: Dict[str, Tuple[int, int]]

    def span(self, coeffs: Mapping[str, int]) -> Tuple[int, int]:
        low = sum(c * self.ranges[v][0 if c > 0 else 1] for v, c in coeffs.items())
        high = sum(c * self.ranges[v][1 if c > 0 else 0] for v, c in coeffs.items())
        return low, high


@st.composite
def _indices(draw, shape: _Shape, names: Sequence[str], tame: bool) -> List[Tuple[AffineExpr, int]]:
    """``(index, extent)`` per dimension of a 1-D or 2-D access within ``[0, extent)``.

    ``tame`` accesses are the ones a slice can express: no negative
    coefficient, the innermost iterator in one dimension only.
    """
    dims = draw(st.integers(1, 2))
    carrier = draw(st.integers(0, dims - 1))
    result = []
    for dim in range(dims):
        usable = names[:-1] if tame and dim != carrier else names
        choices = (0, 1, 1, 2) if tame else (-1, 0, 1, 1, 2)
        coeffs = {name: draw(st.sampled_from(choices)) for name in usable}
        low, high = shape.span(coeffs)
        result.append((AffineExpr(coeffs, -low), high - low + 1))
    return result


@st.composite
def programs(draw, mappable: bool = False) -> Program:
    """A small affine program.

    ``mappable`` keeps what the tiling pass supports — a rectangular perfect
    nest with unit steps, no loop-carried read — and expresses guards as extra
    *domain* conjuncts; otherwise bounds may be triangular, steps non-unit,
    guards are :class:`GuardNode`s and the outermost extent may be a parameter.
    """
    # three tiled loops under a guard can take the scratchpad planner seconds;
    # the registered kernels cover depth 3 under mapping
    depth = draw(st.integers(1, 2 if mappable else 3))
    names = ITERATORS[:depth]
    builder = ProgramBuilder("generated")
    parametric = not mappable and draw(st.integers(0, 3)) == 0
    tame = draw(st.booleans())
    ranges: Dict[str, Tuple[int, int]] = {}
    bounds: List[Tuple[object, object, int]] = []
    for level, name in enumerate(names):
        extent = draw(st.integers(1, 9))
        lower: object = 0
        upper: object = extent - 1
        if level == 0 and parametric:
            upper = builder.param("N") - 1
            builder.set_default_params(N=extent)
        elif level > 0 and not mappable:
            outer = names[draw(st.integers(0, level - 1))]
            shape = draw(st.sampled_from(("box", "box", "lower", "upper")))
            if shape == "lower":  # name = outer .. extent - 1
                lower = AffineExpr.var(outer)
            elif shape == "upper":  # name = 0 .. outer
                upper = AffineExpr.var(outer)
                extent = ranges[outer][1] + 1
        step = 1 if mappable else draw(st.sampled_from((1, 1, 2, 3)))
        ranges[name] = (0, extent - 1)
        bounds.append((lower, upper, step))
    shape = _Shape(ranges)

    out_index = draw(_indices(shape, names, tame))
    carried = not mappable and draw(st.integers(0, 4)) == 0
    pad = 1 if carried else 0  # room for the read one element to either side
    out = builder.array(
        "O", [extent + 2 * pad for _, extent in out_index], dtype="float64"
    )
    lhs = out[tuple(index + pad for index, _ in out_index)]
    inputs = []
    for array_name in ("A", "B"):
        index = draw(_indices(shape, names, tame))
        array = builder.array(array_name, [extent for _, extent in index], dtype="float64")
        inputs.append(array[tuple(expr for expr, _ in index)])
    a, b = inputs

    arithmetic = (a, a * b, a + 2.0, a - b, (a + b) / 3.0)
    rhs: Expr = draw(
        st.sampled_from(
            (
                *arithmetic,
                *arithmetic,  # the forms the vectoriser accepts, at twice the weight
                a + Iter(names[-1]),
                a * AffineValue(AffineExpr({names[0]: 2, names[-1]: -1}, 1)),
                Call("abs", (a - b,)),
                Call("min", (a, b)),
                Call("max", (a, b * 2.0)),
                Call("sqrt", (a,)),
            )
        )
    )
    if carried:
        shift = draw(st.sampled_from((-1, 0, 1)))
        rhs = rhs + out[tuple(index + pad + shift for index, _ in out_index)]
    # accumulating a read of the output doubles it per iteration: overflow, not a test
    reduction = draw(st.sampled_from((None, "min", "max") if carried else REDUCTIONS))

    guards = [
        Constraint(
            AffineExpr(
                {name: draw(st.sampled_from((-1, 0, 1))) for name in names},
                draw(st.integers(-3, 6)),
            ),
            is_equality=draw(st.integers(0, 5)) == 0,
        )
        for _ in range(draw(st.sampled_from((0, 0, 1, 2))))
    ]

    def nest(level: int) -> None:
        if level == depth:
            builder.assign(lhs, rhs, reduction=reduction)
            return
        lower, upper, step = bounds[level]
        with builder.loop(names[level], lower, upper, step=step):
            nest(level + 1)

    nest(0)
    program = builder.build()
    if guards:
        guard_the_statement(program, guards, as_domain=mappable)
    return program


def guard_the_statement(program: Program, guards: Sequence[Constraint], as_domain: bool) -> None:
    """Put ``guards`` on the program's single statement, in its domain or as a node."""
    (statement,) = program.statements.values()
    block, position = next(
        (node, position)
        for node in program.body.walk()
        if isinstance(node, BlockNode)
        for position, child in enumerate(node.body)
        if isinstance(child, StatementNode)
    )
    if not as_domain:
        block.body[position] = GuardNode(tuple(guards), BlockNode([block.body[position]]))
        return
    domain = statement.domain
    guarded = statement.with_domain(
        Polyhedron(domain.dims, [*domain.constraints, *guards], domain.params)
    )
    program.statements[statement.name] = guarded
    block.body[position].statement = guarded


@st.composite
def configurations(draw, program: Program) -> Configuration:
    """A mapping of ``program``: tile sizes that need not divide, scratchpad on/off."""
    loops = [node.iterator for node in program.body.walk() if isinstance(node, LoopNode)]
    return Configuration(
        num_blocks=draw(st.sampled_from((1, 2, 4))),
        threads_per_block=draw(st.sampled_from((1, 2, 4))),
        tile_sizes=tuple((name, draw(st.sampled_from((1, 2, 3, 4, 5, 8)))) for name in loops),
        use_scratchpad=draw(st.booleans()),
    )


def mapped_program(program: Program, configuration: Configuration) -> Optional[Program]:
    """The program after tiling → scratchpad → mapping, or ``None`` if refused."""
    try:
        return CompilationSession(program).replay(config=configuration).program
    except ValueError:
        return None  # the machine cannot execute this mapping: not a lowering question


#: (tile size for every loop, scratchpad): dividing and non-dividing, staged and not
MAPPINGS = ((4, True), (3, True), (5, False))


@functools.lru_cache(maxsize=None)
def mapped_kernel(name: str, tile: int, scratchpad: bool) -> Program:
    """A registered kernel's check program under one of :data:`MAPPINGS`.

    Cached: mapping ``jacobi2d`` takes over a second, and nothing here mutates
    the result.
    """
    program = get_kernel(name).build_check()
    loops = [node.iterator for node in program.body.walk() if isinstance(node, LoopNode)]
    configuration = Configuration(
        num_blocks=4,
        threads_per_block=4,
        tile_sizes=tuple((loop, tile) for loop in loops),
        use_scratchpad=scratchpad,
    )
    mapped = mapped_program(program, configuration)
    assert mapped is not None, configuration
    return mapped


# -- logging every pruning decision, then checking it by enumeration ---------------------------
@dataclass
class Decision:
    """One thing an emitter concluded instead of testing it at run time."""

    loops: List[LoopNode]
    facts: List[Constraint]
    #: conjuncts dropped because the facts imply them
    must_hold: List[Constraint] = field(default_factory=list)
    #: ``(index, extent)`` pairs proven to satisfy ``0 <= index < extent``
    in_range: List[Tuple[AffineExpr, object]] = field(default_factory=list)


class _Recording:
    """Mixin over a production emitter: same output, plus a log of decisions."""

    def __init__(self, program: Program, check_domains: bool = True) -> None:
        super().__init__(program, check_domains)
        self.loops: List[LoopNode] = []
        self.decisions: List[Decision] = []

    def _decision(self, **what) -> None:
        self.decisions.append(
            Decision(list(self.loops), [fact for fact, _names, _number in self._facts], **what)
        )

    def emit_node(self, node, depth, bound) -> None:
        if not isinstance(node, LoopNode):
            return super().emit_node(node, depth, bound)
        self.loops.append(node)
        try:
            super().emit_node(node, depth, bound)
        finally:
            self.loops.pop()

    def _residual(self, constraints):
        constraints = list(constraints)
        residual = super()._residual(constraints)
        self._decision(must_hold=[c for c in constraints if c not in residual])
        return residual


class RecordingScalar(_Recording, _Emitter):
    pass


class RecordingVector(_Recording, _VecEmitter):
    def _slices_proven(self, statement, iterator) -> bool:
        proven = super()._slices_proven(statement, iterator)
        if proven:
            self._decision(
                in_range=[
                    (index, extent)
                    for load in (statement.lhs, *statement.rhs.loads())
                    for index, extent in zip(load.indices, load.array.shape)
                    if iterator in index.variables
                ]
            )
        return proven


def recorded_decisions(program: Program) -> Tuple[str, List[Decision]]:
    """The vectorised source and every decision either emitter made on the way."""
    scalar = RecordingScalar(program)
    render_module(scalar, program, "kernel")
    vector = RecordingVector(program)
    source = render_module(vector, program, "kernel", prelude=("import numpy as _np",))
    return source, scalar.decisions + vector.decisions


def _points(program: Program, loops: Sequence[LoopNode]) -> Iterator[Dict[str, int]]:
    """Every binding the loop nest visits, derived symbols included."""
    symbols = dict(program.symbol_definitions or {})

    def define(binding: Dict[str, int]) -> None:
        for name, definition in symbols.items():
            try:
                if isinstance(definition, QuasiAffineBound):
                    binding[name] = definition.evaluate_int(binding)
                else:
                    binding[name] = definition.truncate_at(binding)
            except KeyError:
                binding.pop(name, None)  # a free variable is not in scope yet

    def visit(level: int, binding: Dict[str, int]) -> Iterator[Dict[str, int]]:
        define(binding)
        if level == len(loops):
            yield binding
            return
        node = loops[level]
        for value in node.iterate(binding):
            yield from visit(level + 1, {**binding, node.iterator: value})

    return visit(0, dict(program.bound_params()))


def verify_decisions(program: Program, decisions: Sequence[Decision]) -> int:
    """Check each decision at every integer point of its loops; returns points checked."""
    checked = 0
    binding = program.bound_params()
    by_nest: Dict[Tuple[int, ...], List[Decision]] = {}
    for decision in decisions:
        if decision.must_hold or decision.in_range:
            by_nest.setdefault(tuple(map(id, decision.loops)), []).append(decision)
    for group in by_nest.values():  # one walk of a loop nest serves every decision under it
        loops = group[0].loops
        from_loops = [fact for node in loops for fact in loop_facts(node)]
        guards = [[fact for fact in d.facts if fact not in from_loops] for d in group]
        for point in _points(program, loops):
            for fact in from_loops:
                assert fact.satisfied_by(point), f"loop fact {fact} fails at {point}"
            for decision, from_guards in zip(group, guards):
                if not all(fact.satisfied_by(point) for fact in from_guards):
                    continue  # an enclosing guard keeps this point from the node
                checked += 1
                for conjunct in decision.must_hold:
                    assert conjunct.satisfied_by(point), f"dropped {conjunct} fails at {point}"
                for index, extent in decision.in_range:
                    size = AffineExpr.coerce(extent).truncate_at(binding)
                    value = index.truncate_at(point)
                    assert 0 <= value < size, (
                        f"sliced index {index} = {value} leaves [0, {size}) at {point}"
                    )
    return checked
