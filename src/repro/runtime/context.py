"""Execution context: concrete array storage, parameter bindings and counters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.ir.arrays import Array


@dataclass
class AccessCounters:
    """Dynamic access statistics collected while interpreting a program.

    The split between global and local (scratchpad) accesses, and between
    compute accesses and copy (DMA) traffic, is exactly the information the
    paper's cost model needs: copy volumes, number of copy occurrences and the
    residual global traffic of computation that was not redirected to the
    scratchpad.
    """

    global_reads: int = 0
    global_writes: int = 0
    local_reads: int = 0
    local_writes: int = 0
    copy_in_elements: int = 0
    copy_out_elements: int = 0
    copy_in_occurrences: int = 0
    copy_out_occurrences: int = 0
    statement_instances: int = 0
    thread_syncs: int = 0
    block_syncs: int = 0
    per_array_reads: Dict[str, int] = field(default_factory=dict)
    per_array_writes: Dict[str, int] = field(default_factory=dict)

    def record_read(self, array: Array) -> None:
        if array.is_local:
            self.local_reads += 1
        else:
            self.global_reads += 1
        self.per_array_reads[array.name] = self.per_array_reads.get(array.name, 0) + 1

    def record_write(self, array: Array) -> None:
        if array.is_local:
            self.local_writes += 1
        else:
            self.global_writes += 1
        self.per_array_writes[array.name] = self.per_array_writes.get(array.name, 0) + 1

    def summary(self) -> Dict[str, int]:
        """Flat dictionary view used by reports and tests."""
        return {
            "global_reads": self.global_reads,
            "global_writes": self.global_writes,
            "local_reads": self.local_reads,
            "local_writes": self.local_writes,
            "copy_in_elements": self.copy_in_elements,
            "copy_out_elements": self.copy_out_elements,
            "copy_in_occurrences": self.copy_in_occurrences,
            "copy_out_occurrences": self.copy_out_occurrences,
            "statement_instances": self.statement_instances,
            "thread_syncs": self.thread_syncs,
            "block_syncs": self.block_syncs,
        }


_DTYPE_MAP = {
    "float32": np.float32,
    "float64": np.float64,
    "int32": np.int64,   # interpret integer data in wide arithmetic
    "int64": np.int64,
}


class ExecutionContext:
    """Holds concrete numpy storage for every array touched by a program."""

    def __init__(
        self,
        param_binding: Optional[Mapping[str, int]] = None,
        count_accesses: bool = True,
    ) -> None:
        self.params: Dict[str, int] = {k: int(v) for k, v in (param_binding or {}).items()}
        self.counters = AccessCounters()
        self.count_accesses = count_accesses
        self._storage: Dict[str, np.ndarray] = {}
        self._arrays: Dict[str, Array] = {}

    # -- storage management ------------------------------------------------------
    def bind_array(self, array: Array, data: np.ndarray) -> None:
        """Register externally provided storage for an array (input data)."""
        expected = array.concrete_shape(self.params)
        if tuple(data.shape) != expected:
            raise ValueError(
                f"array {array.name}: provided data has shape {tuple(data.shape)}, "
                f"expected {expected}"
            )
        self._arrays[array.name] = array
        self._storage[array.name] = np.asarray(data, dtype=_DTYPE_MAP.get(array.dtype, np.float64))

    def allocate(self, array: Array) -> np.ndarray:
        """Allocate zero-initialised storage for an array (idempotent)."""
        if array.name not in self._storage:
            shape = array.concrete_shape(self.params)
            dtype = _DTYPE_MAP.get(array.dtype, np.float64)
            self._storage[array.name] = np.zeros(shape, dtype=dtype)
            self._arrays[array.name] = array
        return self._storage[array.name]

    def data(self, name: str) -> np.ndarray:
        """Raw storage of an array by name."""
        try:
            return self._storage[name]
        except KeyError:
            raise KeyError(f"array {name!r} has no storage in this context") from None

    # -- element access ------------------------------------------------------------
    def read(self, array: Array, indices: Tuple[int, ...]) -> float:
        storage = self.allocate(array)
        try:
            value = storage[indices]
        except IndexError:
            raise IndexError(
                f"read out of bounds: {array.name}{list(indices)} with shape {storage.shape}"
            ) from None
        if any(i < 0 for i in indices):
            raise IndexError(
                f"negative index in read of {array.name}{list(indices)}"
            )
        if self.count_accesses:
            self.counters.record_read(array)
        return float(value)

    def write(self, array: Array, indices: Tuple[int, ...], value: float) -> None:
        storage = self.allocate(array)
        if any(i < 0 for i in indices):
            raise IndexError(
                f"negative index in write of {array.name}{list(indices)}"
            )
        try:
            storage[indices] = value
        except IndexError:
            raise IndexError(
                f"write out of bounds: {array.name}{list(indices)} with shape {storage.shape}"
            ) from None
        if self.count_accesses:
            self.counters.record_write(array)
