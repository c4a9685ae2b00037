"""Rewriting references to target local buffers (paper Section 3.1.2).

For a reference ``A[F(y)]`` whose data space belongs to a partition with local
buffer ``L`` and offset vector ``g``, the rewritten reference is
``L[F'(y) − g]``.  Because our local buffers keep every dimension of the
original array (possibly with extent 1), ``F' = F`` and the rewrite is a pure
per-dimension translation — exactly the ``LA[i − 10][j + 1 − 11]`` form of the
paper's Fig. 1.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.ir.expressions import Expr, Load
from repro.ir.statements import Statement
from repro.scratchpad.allocation import LocalBufferSpec

#: Key identifying one access of one statement.
RemapKey = Tuple[str, Load, bool]


def build_remap_table(specs: Iterable[LocalBufferSpec]) -> Dict[RemapKey, LocalBufferSpec]:
    """Map (statement name, load, is_write) to the buffer that covers the access."""
    table: Dict[RemapKey, LocalBufferSpec] = {}
    for spec in specs:
        for space in spec.partition:
            key = (space.statement.name, space.load, space.is_write)
            existing = table.get(key)
            if existing is not None and existing is not spec:
                raise ValueError(
                    f"access {space.load} of statement {space.statement.name!r} is "
                    f"claimed by two buffers ({existing.local.name} and {spec.local.name})"
                )
            table[key] = spec
    return table


def remap_load(load: Load, spec: LocalBufferSpec) -> Load:
    """``A[F(y)]`` becomes ``L[F(y) − g]``."""
    if load.array.name != spec.original.name:
        raise ValueError(
            f"load targets array {load.array.name!r}, buffer {spec.local.name!r} "
            f"covers {spec.original.name!r}"
        )
    new_indices = tuple(
        index - offset for index, offset in zip(load.indices, spec.offsets)
    )
    return Load(spec.local, new_indices)


def remap_statement(
    statement: Statement, table: Dict[RemapKey, LocalBufferSpec]
) -> Statement:
    """Rewrite every access of *statement* that has a covering buffer.

    Accesses without an entry in the table (partitions deemed not beneficial,
    or arrays not handled) are left untouched — on GPU-like targets they keep
    reading global memory directly, as the paper prescribes.
    """

    def transform(load: Load) -> Expr:
        for is_write in (False, True):
            spec = table.get((statement.name, load, is_write))
            if spec is not None:
                return remap_load(load, spec)
        return load

    def transform_lhs(load: Load) -> Load:
        spec = table.get((statement.name, load, True)) or table.get(
            (statement.name, load, False)
        )
        if spec is not None:
            return remap_load(load, spec)
        return load

    remapped = statement.map_loads(
        lambda load: transform_lhs(load) if load == statement.lhs else transform(load)
    )
    return remapped
