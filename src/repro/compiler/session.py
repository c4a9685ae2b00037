"""Staged compilation sessions with replay-from-stage.

A :class:`CompilationSession` pins one (program, machine spec, base options,
parameter binding) tuple and runs the pass pipeline over it:

* :meth:`compile` — the full pipeline under the base options, with every
  stage artifact cached on the session;
* :meth:`replay` — re-run only the config-dependent stages for an explicit
  mapping configuration, *reusing* the frozen upstream artifacts.
  ``session.replay(from_stage="tiling", config=...)`` is the autotuner's hot
  path: affine analysis runs once per session, then hundreds of candidate
  configurations replay from the tiling stage.

Replay is validated, not trusted: each stage artifact carries a fingerprint
derived from the option fields the stage reads, and replay refuses to reuse
an artifact whose fingerprint would change under the requested configuration
(with an error naming the earliest stage to replay from instead).  The same
fingerprints key a per-session artifact memo, shared with the sessions derived
from it: a configuration one backend already mapped (the model pricing it) is
not mapped again when another replays it (``measure-py`` lowering it) — only
the passes not yet run for that fingerprint execute, and only those are
counted, timed and shown to hooks.

Sessions are thread-safe — the autotuner's parallel evaluators share one
session, and the first thread to need the analysis artifact computes it while
the others wait.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.options import MappingOptions
from repro.ir.program import Program
from repro.machine.spec import GEFORCE_8800_GTX, GPUSpec
from repro.polyhedral.parametric import shared_resolutions

from repro.compiler.artifacts import AnalysisArtifact, MappedKernel, StageArtifact
from repro.compiler.manager import PassManager, PassTiming
from repro.compiler.passes import EmitCPass, PassContext, base_fingerprint


class CompilationSession:
    """One program compiled as a staged pipeline with cacheable artifacts."""

    def __init__(
        self,
        program: Program,
        spec: GPUSpec = GEFORCE_8800_GTX,
        options: Optional[MappingOptions] = None,
        param_values: Optional[Mapping[str, int]] = None,
        passes: Optional[Sequence[Any]] = None,
        manager: Optional[PassManager] = None,
    ) -> None:
        if manager is not None and passes is not None:
            raise ValueError("pass either a pass list or a PassManager, not both")
        self.program = program
        self.spec = spec
        self.options = options or MappingOptions()
        self.param_values = dict(param_values) if param_values is not None else None
        self.manager = manager or PassManager(passes)
        self._artifacts: Dict[str, StageArtifact] = {}
        #: exact bound resolutions shared by every replay of this session (and
        #: of sessions derived from it); gone with the session, so with the request
        self._resolutions: Dict[tuple, object] = {}
        #: fingerprint -> artifact of every pass run for this session identity,
        #: shared like the resolutions: a backend replaying a configuration
        #: another backend already mapped re-runs only its own terminal pass
        self._artifact_memo: Dict[str, StageArtifact] = {}
        self._base_fingerprint: Optional[str] = None
        self._lock = threading.Lock()

    # Sessions pickle (minus the lock) so a process-pool evaluator can ship
    # its frozen artifacts to the workers instead of re-analysing there.
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_lock"] = None
        state["_artifact_memo"] = {}  # cheaper to replay in the worker than to ship
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- identity ----------------------------------------------------------------------
    @property
    def base_fingerprint(self) -> str:
        """Session identity: program text + parameter binding + machine spec."""
        if self._base_fingerprint is None:
            self._base_fingerprint = base_fingerprint(
                self.program, self.spec, self.param_values
            )
        return self._base_fingerprint

    @property
    def stage_names(self) -> List[str]:
        return self.manager.stage_names

    def _run(self, ctx: PassContext, **selection: Any) -> None:
        """Run passes over ``ctx``, resolving each exact bound question once per session."""
        with shared_resolutions(self._resolutions):
            self.manager.run(ctx, memo=self._artifact_memo, **selection)

    def _context(
        self, options: MappingOptions, artifacts: Dict[str, StageArtifact]
    ) -> PassContext:
        return PassContext(
            program=self.program,
            spec=self.spec,
            options=options,
            param_values=self.param_values,
            base_fingerprint=self.base_fingerprint,
            artifacts=artifacts,
            resolutions=self._resolutions,
        )

    # -- compilation -------------------------------------------------------------------
    def compile(self) -> MappedKernel:
        """Run the full pipeline under the base options (artifacts cached).

        The first call performs every stage (including the Section-4.3 tile
        search when no explicit tile sizes are given); later calls return the
        cached mapped kernel without re-running anything.
        """
        with self._lock:
            ctx = self._context(self.options, self._artifacts)
            self._run(ctx)
        return self.artifact("mapping").value

    def replay(
        self,
        from_stage: str = "tiling",
        config: Any = None,
        options: Optional[MappingOptions] = None,
    ) -> MappedKernel:
        """Re-run the pipeline from ``from_stage`` for one configuration.

        ``config`` is anything exposing ``num_blocks``, ``threads_per_block``,
        ``use_scratchpad`` and a ``tile_dict`` mapping of explicit tile sizes
        (notably :class:`repro.autotune.space.Configuration`); alternatively
        pass fully-resolved ``options``.  Stages *before* ``from_stage`` are
        reused from the session's frozen artifacts — computed on demand, once
        — after verifying their fingerprints survive the new options.  Because
        the tile sizes are explicit, the Section-4.3 search never runs on a
        config replay, which is what lets the autotuner evaluate many
        configurations cheaply.

        Stops at the ``mapping`` stage: terminal passes (``emit``,
        ``lower-py``) are opt-in per-candidate work — use
        :meth:`replay_artifacts` with an explicit ``upto`` to run them.
        """
        upto = "mapping" if "mapping" in self.manager.stage_names else None
        artifacts = self.replay_artifacts(
            from_stage=from_stage, config=config, options=options, upto=upto
        )
        try:
            return artifacts["mapping"].value
        except KeyError:
            raise ValueError(
                "the session's pass list has no 'mapping' stage to replay"
            ) from None

    def replay_artifacts(
        self,
        from_stage: str = "tiling",
        config: Any = None,
        options: Optional[MappingOptions] = None,
        upto: Optional[str] = None,
    ) -> Dict[str, StageArtifact]:
        """Like :meth:`replay`, returning every artifact the replay produced.

        ``upto`` (inclusive, ``None`` = the whole pass list) extends the
        replay through terminal passes: a session whose pass list ends in
        ``lower-py`` can replay one candidate configuration all the way to its
        executable-Python artifact (``artifacts["lower-py"].value``) — the
        ``measure-py:`` evaluation backend's per-candidate path.  The mapping
        artifact rides along under ``"mapping"``.
        """
        target = self._resolve_options(config, options)
        index = self.manager.stage_index(from_stage)
        with self._lock:
            base_ctx = self._context(self.options, self._artifacts)
            if index > 0:
                self._run(base_ctx, upto=self.manager.passes[index - 1].name)
            reused = {
                item.name: self._artifacts[item.name]
                for item in self.manager.passes[:index]
            }
        self._validate_reuse(target, from_stage, reused)
        ctx = self._context(target, dict(reused))
        self._run(ctx, start_index=index, upto=upto)
        return ctx.artifacts

    def with_passes(self, passes: Sequence[Any]) -> "CompilationSession":
        """A derived session over the same inputs with a different pass list.

        The derived session shares this session's identity (program, spec,
        options, binding) and adopts every already-frozen artifact whose stage
        appears in the new pass list — so a backend that needs an extra
        terminal pass (e.g. ``lower-py``) still reuses the one affine-analysis
        run of the original session instead of re-analysing.  Observer hooks
        carry over too: a traced request sees the derived session's passes
        (``lower-py`` per candidate) next to the original session's.
        """
        derived = CompilationSession(
            self.program,
            spec=self.spec,
            options=self.options,
            param_values=self.param_values,
            passes=passes,
        )
        derived._base_fingerprint = self._base_fingerprint
        derived._resolutions = self._resolutions
        derived._artifact_memo = self._artifact_memo
        stages = set(derived.manager.stage_names)
        with self._lock:
            for name, artifact in self._artifacts.items():
                if name in stages:
                    derived._artifacts[name] = artifact
            for hook in self.manager._hooks:
                derived.manager.add_hook(hook)
        return derived

    def _resolve_options(
        self, config: Any, options: Optional[MappingOptions]
    ) -> MappingOptions:
        if config is not None and options is not None:
            raise ValueError("pass either a configuration or options, not both")
        if config is None:
            return options or self.options
        tile_sizes = (
            config.tile_dict if hasattr(config, "tile_dict") else config.tile_sizes
        )
        return self.options.with_overrides(
            num_blocks=config.num_blocks,
            threads_per_block=config.threads_per_block,
            tile_sizes=dict(tile_sizes) if tile_sizes is not None else None,
            use_scratchpad=config.use_scratchpad,
        )

    def _validate_reuse(
        self,
        target: MappingOptions,
        from_stage: str,
        reused: Mapping[str, StageArtifact],
    ) -> None:
        """Refuse to reuse an artifact the new options would have changed."""
        expected = self.manager.expected_fingerprints(
            self._context(target, dict(reused))
        )
        for stage, artifact in reused.items():
            if expected[stage] != artifact.fingerprint:
                raise ValueError(
                    f"configuration changes the {stage!r} stage, which "
                    f"replay(from_stage={from_stage!r}) would reuse; replay "
                    f"from {stage!r} (or an earlier stage) instead"
                )

    # -- artifact access ---------------------------------------------------------------
    def artifact(self, stage: str) -> StageArtifact:
        """The cached base-options artifact of ``stage`` (computed on demand)."""
        self.manager.stage_index(stage)  # validates the name
        with self._lock:
            if stage not in self._artifacts:
                ctx = self._context(self.options, self._artifacts)
                self._run(ctx, upto=stage)
            return self._artifacts[stage]

    def analysis(self) -> AnalysisArtifact:
        """The config-invariant affine analysis (bands, extents, binding)."""
        return self.artifact("analysis").value

    def render_c(self) -> str:
        """The mapped program as C-like text (the optional ``emit`` pass)."""
        self.compile()
        if "emit" in self.manager.stage_names:
            return self.artifact("emit").value
        with self._lock:
            ctx = self._context(self.options, self._artifacts)
            artifact = ctx.artifacts.get("emit")
            if artifact is None:
                emitter = EmitCPass()
                value = emitter.run(ctx)
                artifact = StageArtifact(
                    stage="emit",
                    fingerprint=emitter.fingerprint(
                        ctx, [self._artifacts["mapping"].fingerprint]
                    ),
                    value=value,
                )
                self._artifacts["emit"] = artifact
            return artifact.value

    def stage_report(self) -> List[Dict[str, Any]]:
        """Per-stage timings and artifact fingerprints (``inspect-stages``)."""
        timings: Dict[str, PassTiming] = {t.stage: t for t in self.manager.timings()}
        rows: List[Dict[str, Any]] = []
        for item in self.manager.passes:
            timing = timings.get(item.name, PassTiming(item.name))
            artifact = self._artifacts.get(item.name)
            rows.append(
                {
                    "stage": item.name,
                    "config_dependent": item.config_dependent,
                    "runs": timing.runs,
                    "total_ms": 1e3 * timing.total_seconds,
                    "mean_ms": timing.mean_ms,
                    "fingerprint": artifact.short_fingerprint if artifact else None,
                }
            )
        return rows
