"""Analytical performance model of the two-level GPU-like machine.

The model prices one kernel launch from a per-block workload descriptor:

* compute cycles: statement instances are spread over the multiprocessor's
  SIMD units (8 lanes), so a block with ``W`` instances needs roughly
  ``W · c / simd`` cycles of arithmetic;
* global traffic issued from compute code costs
  ``global_access_cycles`` per access per lane (uncoalesced pattern, the
  situation the scratchpad transformation removes);
* scratchpad traffic costs ``shared_access_cycles``;
* copy-in / copy-out (DMA) traffic is performed cooperatively by the block's
  threads at ``dma_cycles_per_element`` per element and pays one intra-block
  synchronisation per occurrence;
* blocks execute in waves: the number of concurrently resident blocks is
  limited by the scratchpad footprint per block (``X / M``) and by the number
  of multiprocessors;
* kernels that need synchronisation across thread blocks pay a device-wide
  synchronisation per round (modelled as a kernel relaunch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.machine.memory import MemoryModel
from repro.machine.spec import GEFORCE_8800_GTX, GPUSpec
from repro.tiling.mapping import LaunchGeometry, occupancy_limited_blocks


@dataclass
class BlockWorkload:
    """What one thread block (outer-level tile) executes."""

    #: number of compute statement instances executed by the block
    compute_instances: float
    #: global-memory accesses per compute instance (after remapping)
    global_accesses_per_instance: float
    #: scratchpad accesses per compute instance (after remapping)
    shared_accesses_per_instance: float
    #: total elements copied into the scratchpad by the block (all occurrences)
    copy_in_elements: float = 0.0
    #: total elements copied out of the scratchpad by the block
    copy_out_elements: float = 0.0
    #: number of copy "waves" (each pays one intra-block synchronisation)
    copy_occurrences: float = 0.0
    #: additional intra-block synchronisations (e.g. between sub-tiles)
    extra_block_syncs: float = 0.0
    element_size: int = 4


@dataclass
class KernelLaunch:
    """A kernel launch: per-block workload plus launch geometry."""

    workload: BlockWorkload
    geometry: LaunchGeometry
    #: number of device-wide synchronisation rounds (kernel relaunches); 1 for
    #: kernels with no cross-block synchronisation
    global_sync_rounds: int = 1


class GPUPerformanceModel:
    """Prices kernel launches on a :class:`GPUSpec`."""

    def __init__(self, spec: GPUSpec = GEFORCE_8800_GTX) -> None:
        self.spec = spec
        self.memory = MemoryModel(spec)

    # -- per-block -----------------------------------------------------------------
    def block_cycles(self, workload: BlockWorkload, threads_per_block: int) -> float:
        """Cycles one multiprocessor spends executing one block."""
        spec = self.spec
        lanes = spec.simd_units_per_multiprocessor
        threads = max(min(threads_per_block, spec.max_threads_per_block), 1)

        compute = workload.compute_instances * spec.compute_cycles_per_instance / lanes
        global_traffic = (
            workload.compute_instances
            * workload.global_accesses_per_instance
            * spec.global_access_cycles
            / lanes
        )
        shared_traffic = (
            workload.compute_instances
            * workload.shared_accesses_per_instance
            * spec.shared_access_cycles
            / lanes
        )
        dma = self.memory.dma_cycles(
            int(workload.copy_in_elements + workload.copy_out_elements), threads
        )
        syncs = (
            (workload.copy_occurrences + workload.extra_block_syncs)
            * spec.block_sync_cycles
            * math.ceil(threads / spec.warp_size)
        )
        return compute + global_traffic + shared_traffic + dma + syncs

    # -- whole launch -----------------------------------------------------------------
    def concurrent_blocks(self, geometry: LaunchGeometry) -> int:
        per_mp = occupancy_limited_blocks(
            geometry.shared_memory_per_block_bytes,
            self.spec.shared_memory_per_multiprocessor,
            self.spec.max_blocks_per_multiprocessor,
        )
        if per_mp == 0:
            raise ValueError(
                f"a block needs {geometry.shared_memory_per_block_bytes} bytes of "
                f"scratchpad but a multiprocessor only has "
                f"{self.spec.shared_memory_per_multiprocessor}"
            )
        return min(geometry.num_blocks, per_mp * self.spec.multiprocessors)

    def execution_time_us(self, launch: KernelLaunch) -> float:
        """Modelled wall-clock time of the launch in microseconds.

        Throughput is bounded by the number of multiprocessors: blocks resident
        on the same multiprocessor share its issue bandwidth, so the number of
        execution "waves" is ``num_blocks / min(multiprocessors, resident)``.
        The scratchpad-capacity check (``concurrent_blocks``) still rejects
        blocks whose buffers do not fit at all.
        """
        geometry = launch.geometry
        concurrent = self.concurrent_blocks(geometry)
        parallel_units = max(
            1, min(geometry.num_blocks, self.spec.multiprocessors, concurrent)
        )
        waves = math.ceil(geometry.num_blocks / parallel_units)
        per_block = self.block_cycles(launch.workload, geometry.threads_per_block)
        cycles = waves * per_block
        cycles += max(launch.global_sync_rounds - 1, 0) * self.spec.global_sync_cycles
        time_us = cycles / self.spec.cycles_per_us
        time_us += launch.global_sync_rounds * self.spec.kernel_launch_overhead_us
        return time_us

    def execution_time_ms(self, launch: KernelLaunch) -> float:
        return self.execution_time_us(launch) / 1000.0

    def breakdown(self, launch: KernelLaunch) -> Dict[str, float]:
        """Cycle breakdown of one block, for reports and tests."""
        spec = self.spec
        workload = launch.workload
        lanes = spec.simd_units_per_multiprocessor
        threads = launch.geometry.threads_per_block
        return {
            "compute": workload.compute_instances * spec.compute_cycles_per_instance / lanes,
            "global": workload.compute_instances
            * workload.global_accesses_per_instance
            * spec.global_access_cycles
            / lanes,
            "shared": workload.compute_instances
            * workload.shared_accesses_per_instance
            * spec.shared_access_cycles
            / lanes,
            "dma": self.memory.dma_cycles(
                int(workload.copy_in_elements + workload.copy_out_elements), threads
            ),
            "sync": (workload.copy_occurrences + workload.extra_block_syncs)
            * spec.block_sync_cycles
            * math.ceil(threads / spec.warp_size),
        }
