"""Machine models — the substitute for the paper's GPU testbed.

The paper evaluates on an NVIDIA GeForce 8800 GTX with CUDA; this environment
has no GPU, so the evaluation target is replaced by analytical performance
models of a two-level parallel machine with explicitly managed scratchpads
(:mod:`repro.machine.gpu`) and of a cached single-core CPU
(:mod:`repro.machine.cpu`).  The models consume *workload descriptors*
derived from the code our compiler actually generates (access counts per
statement instance after remapping, copy volumes and occurrence counts from
the scratchpad plan, launch geometry from the mapping), so relative effects —
scratchpad vs. DRAM-only, tile-size trends, thread-block count trends — emerge
from the same quantities that drive them on real hardware.  Absolute times are
calibrated only loosely.
"""

from repro.machine.spec import (
    GPUSpec,
    CPUSpec,
    GridSpec,
    GEFORCE_8800_GTX,
    REFERENCE_CPU,
    WSE2_GRID,
)
from repro.machine.memory import MemoryModel
from repro.machine.gpu import BlockWorkload, KernelLaunch, GPUPerformanceModel
from repro.machine.cpu import CPUWorkload, CPUPerformanceModel
from repro.machine.executor import SimulationReport, simulate_gpu, simulate_cpu

__all__ = [
    "GPUSpec",
    "CPUSpec",
    "GridSpec",
    "GEFORCE_8800_GTX",
    "REFERENCE_CPU",
    "WSE2_GRID",
    "MemoryModel",
    "BlockWorkload",
    "KernelLaunch",
    "GPUPerformanceModel",
    "CPUWorkload",
    "CPUPerformanceModel",
    "SimulationReport",
    "simulate_gpu",
    "simulate_cpu",
]
