"""Ordered pass execution with per-pass timing and instrumentation hooks.

A :class:`PassManager` owns one ordered pass list (default:
``analysis → tiling → scratchpad → mapping``), runs the passes whose
artifacts a context is missing, and records per-pass run counts and wall
time.  Observers register hooks — called after every pass execution with
``(pass_name, artifact, elapsed_seconds)`` — which is how benchmarks and the
``inspect-stages`` CLI attach without the passes knowing about them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.compiler.artifacts import StageArtifact
from repro.compiler.instrument import record_pass_execution
from repro.compiler.passes import DEFAULT_PASSES, Pass, PassContext, resolve_pass_names

#: observer signature: (pass name, produced artifact, elapsed seconds)
PassHook = Callable[[str, StageArtifact, float], None]

#: artifacts one fingerprint-keyed memo may hold; it is emptied when it gets there
ARTIFACT_MEMO_LIMIT = 256


@dataclass
class PassTiming:
    """Accumulated execution statistics of one pass."""

    stage: str
    runs: int = 0
    total_seconds: float = 0.0

    @property
    def mean_ms(self) -> float:
        return 1e3 * self.total_seconds / self.runs if self.runs else 0.0


class PassManager:
    """Ordered pass registry with timing and pluggable pass lists."""

    def __init__(self, passes: Optional[Sequence[Any]] = None) -> None:
        self.passes: List[Pass] = resolve_pass_names(
            DEFAULT_PASSES if passes is None else passes
        )
        self._hooks: List[PassHook] = []
        self._timings: Dict[str, PassTiming] = {}
        self._lock = threading.Lock()

    # Managers travel inside pickled sessions to process-pool workers; the
    # lock is process-local and hooks are observers of *this* process, so
    # neither crosses the boundary.  CONTRACT: hooks are deliberately
    # DROPPED on pickle — an observer closure (a benchmark's accumulator, a
    # trace collector) must not be shipped to a worker that has no use for
    # it, and often cannot be pickled at all.  Anything that needs pass
    # observations on the far side must re-attach its hook after unpickling:
    # repro.service.worker re-attaches the telemetry pass hook, and
    # ConfigurationEvaluator.__setstate__ does the same when a trace
    # collector is active in the unpickling process.
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_lock"] = None
        state["_hooks"] = []
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- pass list ---------------------------------------------------------------------
    @property
    def stage_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def stage_index(self, stage: str) -> int:
        """Position of ``stage`` in the pass list, with a helpful error."""
        for index, item in enumerate(self.passes):
            if item.name == stage:
                return index
        raise ValueError(
            f"unknown stage {stage!r}; valid stages: {', '.join(self.stage_names)}"
        )

    # -- instrumentation ---------------------------------------------------------------
    def add_hook(self, hook: PassHook) -> None:
        """Call ``hook(name, artifact, elapsed_s)`` after every pass run.

        Idempotent per hook object: re-attaching the same callable (the
        telemetry pass hook, re-attached after unpickling — hooks do not
        survive pickling, see ``__getstate__``) never double-fires it.
        """
        if hook not in self._hooks:
            self._hooks.append(hook)

    def timings(self) -> List[PassTiming]:
        """Per-pass run counts and wall time, in pass order."""
        with self._lock:
            return [
                PassTiming(t.stage, t.runs, t.total_seconds)
                for t in (
                    self._timings.get(name, PassTiming(name))
                    for name in self.stage_names
                )
            ]

    def _record(self, stage: str, elapsed: float) -> None:
        with self._lock:
            timing = self._timings.setdefault(stage, PassTiming(stage))
            timing.runs += 1
            timing.total_seconds += elapsed

    # -- execution ---------------------------------------------------------------------
    def run(
        self,
        ctx: PassContext,
        upto: Optional[str] = None,
        start_index: int = 0,
        memo: Optional[Dict[str, StageArtifact]] = None,
    ) -> List[str]:
        """Execute the passes the context is missing; returns the names run.

        Passes whose artifact is already present in ``ctx.artifacts`` are
        skipped — that is the whole replay mechanism: seed the context with
        the frozen upstream artifacts and only the rest runs.  ``upto``
        (inclusive) bounds the run; ``start_index`` skips leading passes
        outright (used by replay to avoid even looking at reused stages).

        ``memo`` maps fingerprints to artifacts some earlier run produced.  A
        fingerprint is computable before its pass runs and covers everything
        the pass reads, so a remembered artifact is adopted instead of
        recomputed — hooks, timings and the stage counters see only passes
        that really ran.  The caller owns the memo (and its lifetime); it is
        emptied when it reaches :data:`ARTIFACT_MEMO_LIMIT` entries.  Racing
        threads may both run a pass; they produce the same artifact.
        """
        end_index = len(self.passes) - 1 if upto is None else self.stage_index(upto)
        executed: List[str] = []
        for item in self.passes[start_index : end_index + 1]:
            if item.name in ctx.artifacts:
                continue
            missing = [stage for stage in item.inputs if stage not in ctx.artifacts]
            if missing:
                raise RuntimeError(
                    f"pass {item.name!r} needs artifacts {missing} that are not "
                    "available; run the earlier stages first"
                )
            upstream = [ctx.artifacts[stage].fingerprint for stage in item.inputs]
            fingerprint = item.fingerprint(ctx, upstream)
            remembered = memo.get(fingerprint) if memo is not None else None
            if remembered is not None:
                ctx.artifacts[item.name] = remembered
                continue
            started = time.perf_counter()
            value = item.run(ctx)
            elapsed = time.perf_counter() - started
            artifact = StageArtifact(stage=item.name, fingerprint=fingerprint, value=value)
            ctx.artifacts[item.name] = artifact
            if memo is not None:
                if len(memo) >= ARTIFACT_MEMO_LIMIT:
                    memo.clear()
                memo[fingerprint] = artifact
            record_pass_execution(item.name, elapsed)
            self._record(item.name, elapsed)
            executed.append(item.name)
            for hook in self._hooks:
                hook(item.name, artifact, elapsed)
        return executed

    def expected_fingerprints(self, ctx: PassContext) -> Dict[str, str]:
        """Each stage's fingerprint under ``ctx.options``, without running.

        Walks the pass list computing fingerprints from the declared option
        fields and upstream chain — the replay validity check compares these
        against the cached artifacts' fingerprints.
        """
        expected: Dict[str, str] = {}
        for item in self.passes:
            upstream = [expected[stage] for stage in item.inputs if stage in expected]
            expected[item.name] = item.fingerprint(ctx, upstream)
        return expected
