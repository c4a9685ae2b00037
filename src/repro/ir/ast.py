"""Loop-structure AST shared by original, transformed and generated programs.

The AST makes control structure explicit — which loops surround which
statements, which loops are parallel and at which level (thread blocks vs.
threads), where copy code and synchronisation points sit — while statements
keep their polyhedral domains for analysis.  The same interpreter
(:mod:`repro.runtime.interpreter`) executes any AST, and the machine model
(:mod:`repro.machine`) walks it to account execution cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.ir.statements import Statement
from repro.polyhedral.affine import AffineExpr
from repro.polyhedral.constraints import Constraint
from repro.polyhedral.parametric import QuasiAffineBound

BoundValue = Union[int, AffineExpr, QuasiAffineBound]

# Parallelism levels a loop can be mapped to.
SEQUENTIAL = None
BLOCK_PARALLEL = "blocks"     # outer level: MIMD units / CUDA thread blocks
THREAD_PARALLEL = "threads"   # inner level: SIMD units / CUDA threads

# Statement roles.
COMPUTE = "compute"
COPY_IN = "copy_in"
COPY_OUT = "copy_out"


def evaluate_bound(value: BoundValue, binding: Mapping[str, int], *, is_lower: bool) -> int:
    """Evaluate a loop bound at a parameter/iterator binding.

    Lower bounds round up, upper bounds round down, so loops over
    rational-coefficient bounds still visit exactly the integer points of the
    underlying polyhedron.
    """
    if isinstance(value, int):
        return value
    if not isinstance(value, (QuasiAffineBound, AffineExpr)):
        raise TypeError(f"unsupported bound type {type(value).__name__}")
    return value.ceil_at(binding) if is_lower else value.floor_at(binding)


def bound_to_str(value: BoundValue) -> str:
    return str(value)


class Node:
    """Base class for AST nodes."""

    def children(self) -> Tuple["Node", ...]:
        return ()

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of the subtree rooted at this node."""
        yield self
        for child in self.children():
            yield from child.walk()

    def statements(self) -> List[Statement]:
        """All statements contained in the subtree, in textual order."""
        return [node.statement for node in self.walk() if isinstance(node, StatementNode)]


@dataclass
class BlockNode(Node):
    """A sequence of nodes executed in order."""

    body: List[Node] = field(default_factory=list)

    def children(self) -> Tuple[Node, ...]:
        return tuple(self.body)

    def append(self, node: Node) -> None:
        self.body.append(node)

    def extend(self, nodes: Iterable[Node]) -> None:
        self.body.extend(nodes)


@dataclass
class LoopNode(Node):
    """A counted loop ``for iterator = lower .. upper step step``.

    ``parallel`` records the level of parallelism the loop is mapped to
    (``None`` = sequential, ``"blocks"`` = outer level, ``"threads"`` = inner
    level).  Parallel loops are still *executed* sequentially by the
    functional interpreter; the machine model uses the annotation to divide
    work across parallel units.
    """

    iterator: str
    lower: BoundValue
    upper: BoundValue
    body: BlockNode = field(default_factory=BlockNode)
    step: int = 1
    parallel: Optional[str] = SEQUENTIAL

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError(f"loop {self.iterator}: step must be positive")
        if self.parallel not in (SEQUENTIAL, BLOCK_PARALLEL, THREAD_PARALLEL):
            raise ValueError(f"loop {self.iterator}: bad parallel level {self.parallel!r}")
        if isinstance(self.body, list):
            self.body = BlockNode(list(self.body))

    def children(self) -> Tuple[Node, ...]:
        return (self.body,)

    def bounds_at(self, binding: Mapping[str, int]) -> Tuple[int, int]:
        """Concrete (lower, upper) bounds at a binding of outer iterators/params."""
        low = evaluate_bound(self.lower, binding, is_lower=True)
        high = evaluate_bound(self.upper, binding, is_lower=False)
        return low, high

    def trip_count(self, binding: Mapping[str, int]) -> int:
        low, high = self.bounds_at(binding)
        if high < low:
            return 0
        return (high - low) // self.step + 1

    def iterate(self, binding: Mapping[str, int]) -> Iterator[int]:
        low, high = self.bounds_at(binding)
        return iter(range(low, high + 1, self.step))


@dataclass
class GuardNode(Node):
    """Execute the body only when all constraints hold at the current binding."""

    constraints: Tuple[Constraint, ...]
    body: BlockNode = field(default_factory=BlockNode)

    def __post_init__(self) -> None:
        self.constraints = tuple(self.constraints)
        if isinstance(self.body, list):
            self.body = BlockNode(list(self.body))

    def children(self) -> Tuple[Node, ...]:
        return (self.body,)

    def holds_at(self, binding: Mapping[str, int]) -> bool:
        return all(c.satisfied_by(binding) for c in self.constraints)


@dataclass
class StatementNode(Node):
    """Occurrence of a statement in the loop structure.

    ``kind`` distinguishes compute statements from data-movement statements
    generated by the scratchpad framework; the machine model charges DMA cost
    for the latter.
    """

    statement: Statement
    kind: str = COMPUTE

    def __post_init__(self) -> None:
        if self.kind not in (COMPUTE, COPY_IN, COPY_OUT):
            raise ValueError(f"unknown statement kind {self.kind!r}")

    @property
    def is_copy(self) -> bool:
        return self.kind in (COPY_IN, COPY_OUT)


@dataclass
class SyncNode(Node):
    """A synchronisation point.

    ``scope="threads"`` is a barrier among the inner-level processes of one
    outer-level unit (CUDA ``__syncthreads``); ``scope="blocks"`` is a global
    synchronisation across outer-level units (kernel relaunch on the GPU of
    the paper).
    """

    scope: str = "threads"

    def __post_init__(self) -> None:
        if self.scope not in ("threads", "blocks"):
            raise ValueError(f"unknown sync scope {self.scope!r}")


def find_loops(root: Node) -> List[LoopNode]:
    """All loop nodes of the subtree in pre-order."""
    return [node for node in root.walk() if isinstance(node, LoopNode)]


def find_loop(root: Node, iterator: str) -> Optional[LoopNode]:
    """The first loop with the given iterator name, or ``None``."""
    for node in root.walk():
        if isinstance(node, LoopNode) and node.iterator == iterator:
            return node
    return None


def enclosing_loops(root: Node, target: Node) -> List[LoopNode]:
    """Loops surrounding *target* within *root*, outermost first."""
    path: List[LoopNode] = []

    def visit(node: Node, stack: List[LoopNode]) -> bool:
        if node is target:
            path.extend(stack)
            return True
        if isinstance(node, LoopNode):
            stack = stack + [node]
        for child in node.children():
            if visit(child, stack):
                return True
        return False

    visit(root, [])
    return path
