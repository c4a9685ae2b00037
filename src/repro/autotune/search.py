"""Search strategies over the configuration space, with parallel evaluation.

Three strategies, in increasing reliance on the analytical model:

* :class:`ExhaustiveSearch` — every feasible configuration of the space;
* :class:`PrunedGridSearch` — the model-ranked grid around the relaxed §4.3
  optimum (the paper's "model as pruning device" reading, default);
* :class:`RandomHillClimbSearch` — seeded random restarts refined by one-knob
  hill climbing (for spaces too big to grid).

All strategies funnel candidate batches through an *evaluate-many* callable,
a :class:`PooledBatchEvaluator`: serial at one worker, a process pool above
that (candidates are priced independently, and processes escape the GIL for
pure-Python pipeline compiles).  Results always come back in candidate order
and winners are tie-broken on the configuration key, so a parallel run is
bit-for-bit identical to a serial one.

The evaluator ships whole to the workers — its compilation session (frozen
analysis artifacts included) *and* its evaluation backend.  Backends keep
their picklable spec (scheme + knobs + derived session) and drop any
transient prepared state (performance models, toolchain paths), lazily
re-preparing in the worker.  Each worker sends back, with its results, the
metrics delta and the spans its chunk produced, so compile counts, stage
counts and traces read as they would serially.  The pool forks, so it serves
a single-threaded caller (the CLI, a script, a service job worker process);
an evaluator whose program or backend cannot pickle, or a caller that runs
other threads (a ``TuningService(executor="thread")`` job), is evaluated
serially with :class:`ExecutorFallbackWarning`.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import random
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.autotune.evaluate import ConfigurationEvaluator, EvaluationResult, best_result
from repro.autotune.space import Configuration, ConfigurationSpace
from repro.telemetry import METRICS, trace
from repro.telemetry.events import emit

#: evaluates a batch of configurations, preserving order
BatchEvaluator = Callable[[Sequence[Configuration]], List[EvaluationResult]]


class ExecutorFallbackWarning(RuntimeWarning):
    """Parallel evaluation was requested but the evaluator runs serially."""


def _evaluate_chunk(
    evaluator: bytes, configs: Sequence[Configuration], traced: bool
) -> Tuple[List[EvaluationResult], Dict[str, Any], List[Dict[str, Any]], int]:
    """Evaluate one chunk in a pool worker: its results, the worker's metrics
    delta, its span trees (``[]`` unless the caller is tracing) and its pid."""
    baseline = METRICS.snapshot()
    # A fresh collector (replacing the copy a worker forked while tracing
    # inherits), started before unpickling so the evaluator re-attaches its
    # pass hook to it.
    collector = trace.start_trace() if traced else None
    try:
        copy: ConfigurationEvaluator = pickle.loads(evaluator)
        results = [copy.evaluate(config) for config in configs]
    finally:
        if collector is not None:
            trace.stop_trace()
    spans = collector.to_dicts() if collector is not None else []
    return results, METRICS.delta_since(baseline), spans, os.getpid()


class PooledBatchEvaluator:
    """Order-preserving batch map: serial, or over a reusable process pool.

    Serial when ``max_workers <= 1``; otherwise a lazily-created, forked
    ``ProcessPoolExecutor`` kept open across batches (hill climbing evaluates
    one batch per generation, and forking a fresh pool per generation would
    dominate the runtime).  Each worker's metrics delta is
    absorbed into this process's registry and its spans are grafted under
    the span open here (the ``search`` span of :func:`repro.autotune.tune`).
    Evaluation is pure and chunks come back in submission order, so the
    report is identical under any worker count.  Call :meth:`close` (or use
    as a context manager) when done.
    """

    def __init__(self, evaluator: ConfigurationEvaluator, max_workers: int = 1) -> None:
        self.evaluator = evaluator
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pickled: Optional[bytes] = None
        if max_workers <= 1:
            return
        # fork() from a multi-threaded process can clone a mid-acquire lock
        # into the worker and deadlock it, and a spawned pool re-imports the
        # package in every worker: called from a worker thread on a 2-core
        # machine, a 36-candidate matmul 64³ tune on two spawned workers took
        # 0.92–1.15 s, serially 0.21–0.34 s.
        if "fork" not in multiprocessing.get_all_start_methods():
            self._fall_back("this platform cannot fork worker processes", reason="no-fork")
        elif threading.active_count() > 1:
            self._fall_back(
                f"the caller runs {threading.active_count()} threads and cannot "
                "safely fork worker processes",
                reason="threads",
            )
        else:
            try:
                self._pickled = pickle.dumps(evaluator)
            except Exception as error:  # pickling raises a menagerie of types
                self._fall_back(
                    "parallel evaluation needs a picklable program/evaluator "
                    f"({type(error).__name__}: {error})",
                    reason="unpicklable",
                    error=type(error).__name__,
                )

    def _fall_back(self, why: str, **fields: Any) -> None:
        warnings.warn(f"{why}; evaluating serially", ExecutorFallbackWarning, stacklevel=3)
        emit("executor.fallback", level="warning", **fields)
        self.max_workers = 1

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=multiprocessing.get_context("fork")
            )
        return self._pool

    def __call__(self, configs: Sequence[Configuration]) -> List[EvaluationResult]:
        configs = list(configs)
        if self.max_workers <= 1 or not configs:
            return [self.evaluator.evaluate(c) for c in configs]
        # One pickled (evaluator, chunk) round-trip per chunk, not per config.
        size = max(1, math.ceil(len(configs) / (self.max_workers * 4)))
        chunks = [configs[start : start + size] for start in range(0, len(configs), size)]
        collector = trace.active_trace()
        pool = self._ensure_pool()
        futures = [
            pool.submit(_evaluate_chunk, self._pickled, chunk, collector is not None)
            for chunk in chunks
        ]
        results: List[EvaluationResult] = []
        for future in futures:
            chunk_results, delta, spans, pid = future.result()
            results.extend(chunk_results)
            METRICS.absorb(delta)
            if collector is not None:
                collector.graft(spans, source=pid)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "PooledBatchEvaluator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SearchStrategy:
    """Base interface: propose-and-evaluate over a configuration space."""

    name = "base"

    def run(
        self, space: ConfigurationSpace, evaluate_many: BatchEvaluator
    ) -> List[EvaluationResult]:
        raise NotImplementedError

    def signature(self) -> Dict[str, Any]:
        """Stable description for cache fingerprinting."""
        return {"name": self.name}


class ExhaustiveSearch(SearchStrategy):
    """Evaluate every feasible configuration (no per-geometry cap)."""

    name = "exhaustive"

    def run(
        self, space: ConfigurationSpace, evaluate_many: BatchEvaluator
    ) -> List[EvaluationResult]:
        return evaluate_many(space.enumerate(limit_per_geometry=None))


class PrunedGridSearch(SearchStrategy):
    """Evaluate the model-ranked top candidates around the relaxed optimum."""

    name = "pruned"

    def __init__(self, limit_per_geometry: Optional[int] = None) -> None:
        #: ``None`` defers to the space's own per-geometry cap
        self.limit_per_geometry = limit_per_geometry

    def run(
        self, space: ConfigurationSpace, evaluate_many: BatchEvaluator
    ) -> List[EvaluationResult]:
        if self.limit_per_geometry is None:
            return evaluate_many(space.enumerate())
        return evaluate_many(space.enumerate(limit_per_geometry=self.limit_per_geometry))

    def signature(self) -> Dict[str, Any]:
        return {"name": self.name, "limit_per_geometry": self.limit_per_geometry}


class RandomHillClimbSearch(SearchStrategy):
    """Seeded random restarts + greedy one-knob hill climbing.

    Starts from the seed configuration plus ``restarts`` points sampled (with
    an explicit ``seed``, so runs are reproducible) from the pruned grid, then
    repeatedly moves to the best strictly-improving neighbour.  Each
    generation's neighbours are evaluated as one batch, so the trajectory is
    identical under serial and parallel evaluation.
    """

    name = "hillclimb"

    def __init__(self, seed: int = 0, restarts: int = 2, max_steps: int = 8) -> None:
        if restarts < 0:
            raise ValueError("restarts cannot be negative")
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        self.seed = seed
        self.restarts = restarts
        self.max_steps = max_steps

    def run(
        self, space: ConfigurationSpace, evaluate_many: BatchEvaluator
    ) -> List[EvaluationResult]:
        rng = random.Random(self.seed)
        pool = space.enumerate()
        starts = [pool[0]]  # the seed configuration is always first
        extra = [c for c in pool[1:]]
        if extra and self.restarts:
            starts.extend(rng.sample(extra, min(self.restarts, len(extra))))

        results: Dict[Configuration, EvaluationResult] = {}
        order: List[Configuration] = []

        def evaluate_new(batch: Sequence[Configuration]) -> None:
            fresh = [c for c in dict.fromkeys(batch) if c not in results]
            for config, result in zip(fresh, evaluate_many(fresh)):
                results[config] = result
                order.append(config)

        evaluate_new(starts)
        for start in starts:
            current = start
            if not results[current].feasible:
                continue
            for _step in range(self.max_steps):
                neighbours = space.neighbours(current)
                if not neighbours:
                    break
                evaluate_new(neighbours)
                candidates = [results[current]] + [results[n] for n in neighbours]
                winner = best_result(candidates)
                if winner.configuration == current:
                    break
                current = winner.configuration
        return [results[c] for c in order]

    def signature(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "restarts": self.restarts,
            "max_steps": self.max_steps,
        }


STRATEGIES: Dict[str, Callable[..., SearchStrategy]] = {
    ExhaustiveSearch.name: ExhaustiveSearch,
    PrunedGridSearch.name: PrunedGridSearch,
    RandomHillClimbSearch.name: RandomHillClimbSearch,
}


def resolve_strategy(strategy, seed: int = 0) -> SearchStrategy:
    """Accept a strategy instance or name; thread the session seed through."""
    if isinstance(strategy, SearchStrategy):
        return strategy
    if isinstance(strategy, str):
        try:
            factory = STRATEGIES[strategy]
        except KeyError:
            raise ValueError(
                f"unknown strategy {strategy!r}; available: {sorted(STRATEGIES)}"
            ) from None
        if factory is RandomHillClimbSearch:
            return RandomHillClimbSearch(seed=seed)
        return factory()
    raise TypeError(f"strategy must be a name or SearchStrategy, got {type(strategy)}")
