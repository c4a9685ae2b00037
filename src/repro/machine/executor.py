"""Simulation entry points and reports.

``simulate_gpu`` / ``simulate_cpu`` wrap the performance models with a common
report structure used by the benchmark harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.machine.cpu import CPUPerformanceModel, CPUWorkload
from repro.machine.gpu import BlockWorkload, GPUPerformanceModel, KernelLaunch
from repro.machine.spec import CPUSpec, GPUSpec, GEFORCE_8800_GTX, REFERENCE_CPU
from repro.tiling.mapping import LaunchGeometry


@dataclass
class SimulationReport:
    """Result of pricing one kernel configuration on one machine."""

    label: str
    time_ms: float
    machine: str
    breakdown: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.label}: {self.time_ms:.3f} ms on {self.machine}"


def simulate_gpu(
    label: str,
    workload: BlockWorkload,
    geometry: LaunchGeometry,
    global_sync_rounds: int = 1,
    spec: GPUSpec = GEFORCE_8800_GTX,
) -> SimulationReport:
    """Price a GPU kernel launch and return a report."""
    model = GPUPerformanceModel(spec)
    launch = KernelLaunch(
        workload=workload, geometry=geometry, global_sync_rounds=global_sync_rounds
    )
    time_ms = model.execution_time_ms(launch)
    return SimulationReport(
        label=label,
        time_ms=time_ms,
        machine=spec.name,
        breakdown=model.breakdown(launch),
        details={
            "num_blocks": geometry.num_blocks,
            "threads_per_block": geometry.threads_per_block,
            "shared_bytes_per_block": geometry.shared_memory_per_block_bytes,
            "concurrent_blocks": model.concurrent_blocks(geometry),
            "global_sync_rounds": global_sync_rounds,
        },
    )


def simulate_cpu(
    label: str,
    workload: CPUWorkload,
    spec: CPUSpec = REFERENCE_CPU,
) -> SimulationReport:
    """Price the sequential CPU baseline and return a report."""
    model = CPUPerformanceModel(spec)
    return SimulationReport(
        label=label,
        time_ms=model.execution_time_ms(workload),
        machine=spec.name,
        breakdown=model.breakdown(workload),
    )
