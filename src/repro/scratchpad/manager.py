"""The scratchpad data-management framework façade (paper Section 3).

:class:`ScratchpadManager` applies the whole Section-3 pipeline to a program
block: it decides which accessed data regions to stage in the scratchpad,
allocates local buffers, rewrites the block's references, and wraps the block
with copy-in / copy-out code.  The result is a new
:class:`~repro.ir.program.Program` that computes exactly the same values as
the input (checked by the test suite via the reference interpreter) while
performing its compute-loop accesses on local buffers.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.ir.arrays import Array
from repro.ir.ast import (
    BlockNode,
    GuardNode,
    LoopNode,
    Node,
    StatementNode,
    SyncNode,
)
from repro.ir.program import Program
from repro.ir.statements import Statement
from repro.polyhedral.polyhedron import Polyhedron
from repro.scratchpad.allocation import LocalBufferSpec, allocate_local_buffer
from repro.scratchpad.data_space import ReferenceDataSpace, compute_reference_data_spaces
from repro.scratchpad.liveness import CopyClassification, classify_copies
from repro.scratchpad.movement import DataMovementCode, generate_data_movement
from repro.scratchpad.partition import partition_overlapping
from repro.scratchpad.remap import build_remap_table, remap_statement
from repro.scratchpad.reuse import DEFAULT_DELTA, ReuseDecision, evaluate_reuse

TARGET_GPU = "gpu"
TARGET_CELL = "cell"


@dataclass
class ScratchpadOptions:
    """Policy knobs of the data-management framework.

    Attributes
    ----------
    delta:
        Overlap-volume threshold of Algorithm 1 (the paper fixes 30 %).
    target:
        ``"gpu"`` stages only partitions with beneficial reuse (global memory
        remains accessible during compute); ``"cell"`` stages every partition
        (compute may only touch local memory).
    context:
        Optional polyhedron over the block parameters (tile origins, problem
        sizes) used to resolve buffer bounds and extents.
    param_binding:
        Parameter values used for volume estimates (Algorithm 1's constant
        reuse test and copy-volume reporting).
    liveness:
        Enable the Section-3.1.4 copy minimisation (extension; off by default
        to match the paper's implemented system).
    live_out:
        With ``liveness=True``: names of arrays whose values are needed after
        the block.  ``None`` means "all written arrays".
    """

    delta: float = DEFAULT_DELTA
    target: str = TARGET_GPU
    context: Optional[Polyhedron] = None
    param_binding: Optional[Mapping[str, int]] = None
    liveness: bool = False
    live_out: Optional[Sequence[str]] = None
    #: Allocate a single buffer covering all data spaces of each array instead
    #: of one buffer per non-overlapping partition.  The paper's Fig. 1 shows
    #: this variant (one ``LA[19][10]`` even though the accessed regions of
    #: ``A`` fall into two disjoint groups); the algorithm text prescribes
    #: per-partition buffers, which is the default here.
    single_buffer_per_array: bool = False

    def __post_init__(self) -> None:
        if self.target not in (TARGET_GPU, TARGET_CELL):
            raise ValueError(f"target must be 'gpu' or 'cell', got {self.target!r}")


@dataclass
class BufferPlan:
    """One staged partition: buffer, movement code and the reuse decision."""

    spec: LocalBufferSpec
    movement: DataMovementCode
    decision: ReuseDecision

    @property
    def local_array(self) -> Array:
        return self.spec.local


@dataclass
class ScratchpadPlan:
    """Complete staging plan for a program block."""

    buffers: List[BufferPlan] = field(default_factory=list)
    skipped: List[Tuple[str, ReuseDecision]] = field(default_factory=list)
    classification: Optional[CopyClassification] = None

    def specs(self) -> List[LocalBufferSpec]:
        return [plan.spec for plan in self.buffers]

    def total_footprint_bytes(self) -> int:
        """Scratchpad bytes needed when all buffers are live simultaneously."""
        return sum(plan.spec.footprint_bytes() for plan in self.buffers)

    def volume_in(self, param_binding: Optional[Mapping[str, int]] = None) -> int:
        return sum(plan.movement.volume_in(param_binding) for plan in self.buffers)

    def volume_out(self, param_binding: Optional[Mapping[str, int]] = None) -> int:
        return sum(plan.movement.volume_out(param_binding) for plan in self.buffers)

    def summary(self) -> str:
        lines = [f"scratchpad plan: {len(self.buffers)} buffer(s)"]
        for plan in self.buffers:
            lines.append(
                f"  {plan.spec} — {plan.spec.footprint_bytes()} bytes, {plan.decision}"
            )
        for array_name, decision in self.skipped:
            lines.append(f"  skipped {array_name}: {decision}")
        return "\n".join(lines)


class ScratchpadManager:
    """Applies automatic scratchpad data management to a program block."""

    def __init__(self, options: Optional[ScratchpadOptions] = None) -> None:
        self.options = options or ScratchpadOptions()

    # -- planning ------------------------------------------------------------------
    def plan(self, program: Program) -> ScratchpadPlan:
        """Run Algorithms 1 and 2 for every array: buffers, offsets and the
        directions each one moves (its copy loops are scanned on first use)."""
        statements = program.statement_list
        data_spaces = compute_reference_data_spaces(statements)
        param_binding = self.options.param_binding
        if param_binding is None and program.default_params:
            # Fall back to the program's default parameter values for volume
            # estimates and extent computations.
            param_binding = dict(program.default_params)
        classification: Optional[CopyClassification] = None
        if self.options.liveness:
            classification = classify_copies(
                statements, live_out=self.options.live_out, data_spaces=data_spaces
            )

        plan = ScratchpadPlan(classification=classification)
        buffer_counter: Dict[str, int] = {}
        for array_name in sorted(data_spaces):
            spaces = data_spaces[array_name]
            array = spaces[0].array
            if self.options.single_buffer_per_array:
                partitions = [list(spaces)]
            else:
                partitions = partition_overlapping(spaces)
            for partition in partitions:
                decision = evaluate_reuse(
                    partition,
                    delta=self.options.delta,
                    param_binding=param_binding,
                )
                stage = decision.beneficial or self.options.target == TARGET_CELL
                if not stage:
                    plan.skipped.append((array_name, decision))
                    continue
                index = buffer_counter.get(array_name, 0)
                buffer_counter[array_name] = index + 1
                suffix = "" if index == 0 else f"_{index}"
                spec = allocate_local_buffer(
                    array,
                    partition,
                    context=self.options.context,
                    param_binding=param_binding,
                    name=f"l_{array_name}{suffix}",
                )
                generate_in = True
                generate_out = True
                if classification is not None:
                    generate_in = classification.needs_copy_in(array_name)
                    generate_out = classification.needs_copy_out(array_name)
                movement = generate_data_movement(
                    spec,
                    generate_copy_in=generate_in,
                    generate_copy_out=generate_out,
                )
                plan.buffers.append(BufferPlan(spec=spec, movement=movement, decision=decision))
        return plan

    # -- transformation -----------------------------------------------------------------
    def transform(self, program: Program, plan: Optional[ScratchpadPlan] = None) -> Program:
        """Produce the scratchpad-managed version of *program*.

        The transformed program declares the local buffers, performs copy-in,
        runs the original loop structure with accesses redirected to the
        buffers, and performs copy-out.
        """
        if plan is None:
            plan = self.plan(program)
        specs = plan.specs()
        table = build_remap_table(specs)
        remapped: Dict[str, Statement] = {
            statement.name: remap_statement(statement, table)
            for statement in program.statement_list
        }

        transformed = Program(
            name=f"{program.name}_spm",
            params=tuple(program.params),
            default_params=dict(program.default_params),
        )
        for array in program.arrays.values():
            transformed.add_array(array)
        for plan_entry in plan.buffers:
            transformed.add_array(plan_entry.local_array)
        transformed.symbol_definitions.update(program.symbol_definitions)
        for spec in specs:
            transformed.symbol_definitions.update(spec.offset_definitions)

        body = BlockNode()
        for plan_entry in plan.buffers:
            body.extend(_copy_block(plan_entry.movement.copy_in).body)
            for statement in plan_entry.movement.copy_in.statements():
                transformed.add_statement(statement)
        body.append(_clone_with_statements(program.body, remapped))
        for statement in remapped.values():
            transformed.add_statement(statement)
        for plan_entry in plan.buffers:
            body.extend(_copy_block(plan_entry.movement.copy_out).body)
            for statement in plan_entry.movement.copy_out.statements():
                transformed.add_statement(statement)
        transformed.body = body
        transformed.validate()
        return transformed

    def apply(self, program: Program) -> Tuple[Program, ScratchpadPlan]:
        """Plan and transform in one call, returning both results."""
        plan = self.plan(program)
        return self.transform(program, plan), plan


def _copy_block(node: BlockNode) -> BlockNode:
    return _copy.deepcopy(node)


def _clone_with_statements(node: Node, mapping: Mapping[str, Statement]) -> Node:
    """Deep-copy an AST, swapping each statement for its remapped version."""
    if isinstance(node, BlockNode):
        return BlockNode([_clone_with_statements(child, mapping) for child in node.body])
    if isinstance(node, LoopNode):
        return LoopNode(
            iterator=node.iterator,
            lower=node.lower,
            upper=node.upper,
            body=_clone_with_statements(node.body, mapping),
            step=node.step,
            parallel=node.parallel,
        )
    if isinstance(node, GuardNode):
        return GuardNode(
            constraints=node.constraints,
            body=_clone_with_statements(node.body, mapping),
        )
    if isinstance(node, StatementNode):
        replacement = mapping.get(node.statement.name, node.statement)
        return StatementNode(replacement, kind=node.kind)
    if isinstance(node, SyncNode):
        return SyncNode(scope=node.scope)
    raise TypeError(f"cannot clone node of type {type(node).__name__}")
