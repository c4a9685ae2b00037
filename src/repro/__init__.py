"""repro — reproduction of Baskaran et al., PPoPP 2008.

"Automatic Data Movement and Computation Mapping for Multi-level Parallel
Architectures with Explicitly Managed Memories."

Public API highlights
---------------------
* :class:`repro.ir.ProgramBuilder` — write affine programs.
* :class:`repro.scratchpad.ScratchpadManager` — automatic scratchpad data
  management (Section 3 of the paper).
* :func:`repro.tiling.tile_program` and
  :func:`repro.tiling.search_tile_sizes` — multi-level tiling and the
  tile-size search (Section 4).
* :class:`repro.compiler.CompilationSession` — the end-to-end compiler as a
  staged pass pipeline with inspectable artifacts and replay-from-stage.
* :func:`repro.autotune.autotune` — empirical autotuning with parallel
  (thread or process) evaluation, URI-selected evaluation backends
  (``model:`` / ``measure-py:`` / ``measure-c:`` /
  ``hybrid:model>measure-py?top=K``) and a persistent compilation cache.
* :mod:`repro.service` — the autotuner served as a long-lived multi-process
  tuning server with a shared cache and in-flight request deduplication.
* :mod:`repro.machine` — the GPU / CPU performance models standing in for the
  paper's GeForce 8800 GTX testbed, plus :class:`~repro.machine.GridSpec`,
  the multi-PE grid target of the distributed kernel family.
* :mod:`repro.distmodel` — the communication-aware cost model (asymmetric
  host links, hop latency, overlap-aware phase schedules) pricing
  distributed SUMMA-GEMM mappings.
* :mod:`repro.kernels` — the evaluation workloads (MPEG-4 ME, 1-D/2-D
  Jacobi, matmul, conv2d, distributed-gemm).
"""

from repro.autotune import (
    BackendUnavailable,
    EvaluationBackend,
    Measurement,
    TuningCache,
    TuningReport,
    autotune,
    autotune_batch,
    parse_backend_uri,
    tuning_fingerprint,
)
from repro.compiler import (
    CompilationSession,
    MappedKernel,
    Pass,
    PassManager,
    StageArtifact,
    counting_compiles,
    counting_stage_runs,
)
from repro.core import MappingOptions
from repro.ir import Program, ProgramBuilder
from repro.machine import (
    CPUPerformanceModel,
    GPUPerformanceModel,
    GEFORCE_8800_GTX,
    REFERENCE_CPU,
    simulate_cpu,
    simulate_gpu,
)
from repro.runtime import run_program
from repro.scratchpad import ScratchpadManager, ScratchpadOptions
from repro.tiling import TilingLevelSpec, analyze_bands, search_tile_sizes, tile_program

__version__ = "1.0.0"

__all__ = [
    "BackendUnavailable",
    "CompilationSession",
    "EvaluationBackend",
    "Measurement",
    "Pass",
    "PassManager",
    "StageArtifact",
    "TuningCache",
    "TuningReport",
    "autotune",
    "autotune_batch",
    "counting_compiles",
    "counting_stage_runs",
    "parse_backend_uri",
    "tuning_fingerprint",
    "MappedKernel",
    "MappingOptions",
    "Program",
    "ProgramBuilder",
    "CPUPerformanceModel",
    "GPUPerformanceModel",
    "GEFORCE_8800_GTX",
    "REFERENCE_CPU",
    "simulate_cpu",
    "simulate_gpu",
    "run_program",
    "ScratchpadManager",
    "ScratchpadOptions",
    "TilingLevelSpec",
    "analyze_bands",
    "search_tile_sizes",
    "tile_program",
    "__version__",
]
