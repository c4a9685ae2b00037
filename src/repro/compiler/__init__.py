"""Staged compilation API: passes, stage artifacts, sessions, replay.

The paper's toolchain is explicitly staged — affine analysis → multi-level
tiling → scratchpad data movement → mapping — and this package exposes those
stages as first-class, cacheable artifacts instead of one monolithic
``compile()``:

* :class:`Pass` — one named stage (``analysis``, ``tiling``, ``scratchpad``,
  ``mapping``, plus the optional ``emit`` terminal pass) declaring its
  upstream inputs and the option fields it reads;
* :class:`StageArtifact` — an immutable, fingerprintable per-stage result;
* :class:`PassManager` — ordered pass registry with per-pass timing and
  instrumentation hooks;
* :class:`CompilationSession` — compile once, then
  ``session.replay(from_stage="tiling", config=...)`` re-runs only the
  config-dependent stages against the frozen analysis artifacts — the
  autotuner's hot path (affine analysis once per request, not once per
  candidate).

Quickstart::

    from repro.compiler import CompilationSession
    from repro.kernels import build_matmul_program

    session = CompilationSession(build_matmul_program(128, 128, 128))
    mapped = session.compile()              # full pipeline, artifacts cached
    fast = session.replay(config=best)      # analysis reused, tiling on re-run
    print(session.stage_report())           # per-stage timings + fingerprints
"""

from repro.compiler.artifact_cache import (
    GLOBAL_ARTIFACT_CACHE,
    ArtifactCache,
)
from repro.compiler.artifacts import (
    AnalysisArtifact,
    MappedKernel,
    ScratchpadArtifact,
    StageArtifact,
    TilingArtifact,
)
from repro.compiler.instrument import (
    CompileCount,
    StageRunCount,
    counting_compiles,
    counting_stage_runs,
    record_pass_execution,
)
from repro.compiler.manager import PassManager, PassTiming
from repro.compiler.passes import (
    DEFAULT_PASSES,
    PASS_REGISTRY,
    TERMINAL_PASSES,
    AnalysisPass,
    EmitCPass,
    LowerPyPass,
    LowerPyVecPass,
    MappingPass,
    Pass,
    PassContext,
    ScratchpadPass,
    TilingPass,
    loop_extents,
    register_pass,
    resolve_pass_names,
    split_across,
)
from repro.compiler.session import CompilationSession

__all__ = [
    "AnalysisArtifact",
    "AnalysisPass",
    "ArtifactCache",
    "CompilationSession",
    "CompileCount",
    "DEFAULT_PASSES",
    "EmitCPass",
    "GLOBAL_ARTIFACT_CACHE",
    "LowerPyPass",
    "LowerPyVecPass",
    "MappedKernel",
    "MappingPass",
    "PASS_REGISTRY",
    "TERMINAL_PASSES",
    "Pass",
    "PassContext",
    "PassManager",
    "PassTiming",
    "ScratchpadArtifact",
    "ScratchpadPass",
    "StageArtifact",
    "StageRunCount",
    "TilingArtifact",
    "TilingPass",
    "counting_compiles",
    "counting_stage_runs",
    "loop_extents",
    "record_pass_execution",
    "register_pass",
    "resolve_pass_names",
    "split_across",
]
