"""The analytical-model backend: today's default pricing, now pluggable.

Extracted from the old hard-wired ``ConfigurationEvaluator`` body: replay the
candidate through the shared :class:`~repro.compiler.CompilationSession`
(affine analysis frozen, tiling/scratchpad/mapping re-run), wrap the mapped
kernel into a :class:`~repro.machine.gpu.KernelLaunch`, and price it on the
:class:`~repro.machine.gpu.GPUPerformanceModel` — the stand-in for a run on
the paper's GeForce 8800 GTX.

Distributed candidates (configurations carrying ``grid_p`` extras, produced
by :class:`~repro.autotune.distspace.DistributedSpace`) take a different
path: no compiler replay, the mapping is priced on
:func:`repro.distmodel.gemm_schedule` against the request's
:class:`~repro.machine.GridSpec`, with provenance ``model-dist`` and the
per-phase breakdown in the measurement metadata.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.compiler import CompilationSession
from repro.distmodel import gemm_schedule
from repro.machine.gpu import GPUPerformanceModel, KernelLaunch
from repro.machine.spec import GPUSpec

from repro.autotune.backends.base import (
    EvaluationBackend,
    Measurement,
    register_backend,
)


@register_backend
class ModelBackend(EvaluationBackend):
    """Price candidates on the analytical GPU performance model (default)."""

    scheme = "model"
    kind = "model"
    supports_distributed = True

    #: provenance stamped on distributed (grid-priced) measurements
    DIST_KIND = "model-dist"

    _TRANSIENT = ("_model",)

    def __init__(self) -> None:
        super().__init__()
        self._model: Optional[GPUPerformanceModel] = None

    def prepare(self, session: CompilationSession, spec: GPUSpec, seed: int = 0) -> None:
        super().prepare(session, spec, seed=seed)
        self._model = GPUPerformanceModel(spec)

    def _compile(self, configuration: Any):
        session, _spec = self._require_prepared()
        return session.replay(from_stage="tiling", config=configuration)

    def _measure_distributed(self, configuration: Any) -> Measurement:
        """Price a PE-grid mapping on the communication-aware distmodel."""
        session, _spec = self._require_prepared()
        if self._grid is None:
            raise ValueError(
                "distributed configuration reached the model backend without "
                "a GridSpec; pass grid= to autotune()"
            )
        from repro.autotune.distspace import summa_mapping

        artifact = session.analysis()
        loops = list(artifact.analysis.loop_order)
        mapping = summa_mapping(configuration, loops)
        schedule = gemm_schedule(
            artifact.extents[loops[0]],
            artifact.extents[loops[1]],
            artifact.extents[loops[2]],
            mapping,
            self._grid,
        )
        schedule.record(self._grid)
        metadata: Dict[str, Any] = {
            "cycles": schedule.total_cycles,
            "breakdown": {p.name: p.elapsed_cycles for p in schedule.phases},
            "hidden_fraction": schedule.hidden_fraction,
            "exposed_comm_cycles": schedule.exposed_comm_cycles,
            "comm_cycles": schedule.comm_cycles,
            "grid": self._grid.name,
        }
        return Measurement(
            time_ms=schedule.time_ms(self._grid), kind=self.DIST_KIND, metadata=metadata
        )

    def _measure(self, configuration: Any) -> Measurement:
        _session, spec = self._require_prepared()
        if self._is_distributed(configuration):
            return self._measure_distributed(configuration)
        if self._model is None:  # re-prepared lazily after pickling
            self._model = GPUPerformanceModel(spec)
        mapped = self._compile(configuration)
        launch = KernelLaunch(
            workload=mapped.workload,
            geometry=mapped.geometry,
            global_sync_rounds=mapped.global_sync_rounds,
        )
        time_us = self._model.execution_time_us(launch)
        metadata: Dict[str, Any] = {
            "cycles": time_us * spec.cycles_per_us,
            "breakdown": self._model.breakdown(launch),
            "shared_bytes_per_block": mapped.geometry.shared_memory_per_block_bytes,
        }
        return Measurement(time_ms=time_us / 1000.0, kind=self.kind, metadata=metadata)

    def uri(self) -> str:
        return "model:"

    def describe(self) -> str:
        return "analytical GPU-model pricing (the Section-4.3 cost model; default)"
