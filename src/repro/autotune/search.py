"""Search strategies over the configuration space, with parallel evaluation.

Three strategies, in increasing reliance on the analytical model:

* :class:`ExhaustiveSearch` — every feasible configuration of the space;
* :class:`PrunedGridSearch` — the model-ranked grid around the relaxed §4.3
  optimum (the paper's "model as pruning device" reading, default);
* :class:`RandomHillClimbSearch` — seeded random restarts refined by one-knob
  hill climbing (for spaces too big to grid).

All strategies funnel candidate batches through an *evaluate-many* callable;
:func:`make_batch_evaluator` builds one that fans a batch out over a
``concurrent.futures`` pool — threads by default, or worker *processes*
(``executor="process"``) to escape the GIL for pure-Python pipeline compiles.
Results always come back in candidate order and winners are tie-broken on the
configuration key, so a parallel run is bit-for-bit identical to a serial one
under either executor.

The evaluator ships whole to process workers — its compilation session
(frozen analysis artifacts included) *and* its evaluation backend.  Backends
keep their picklable spec (scheme + knobs + derived session) and drop any
transient prepared state (performance models, toolchain paths), lazily
re-preparing in the worker; an evaluator whose program or backend cannot
pickle falls back to threads with :class:`ExecutorFallbackWarning`.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import random
import threading
import warnings
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.autotune.evaluate import ConfigurationEvaluator, EvaluationResult, best_result
from repro.autotune.space import Configuration, ConfigurationSpace
from repro.telemetry.events import emit

#: evaluates a batch of configurations, preserving order
BatchEvaluator = Callable[[Sequence[Configuration]], List[EvaluationResult]]

#: executors accepted by :func:`make_batch_evaluator` / :func:`autotune`
EXECUTORS = ("thread", "process")


class ExecutorFallbackWarning(RuntimeWarning):
    """Process-based evaluation was requested but fell back to threads."""


class PooledBatchEvaluator:
    """Order-preserving batch map over a reusable worker pool.

    Serial when ``max_workers <= 1``; otherwise a lazily-created
    ``ThreadPoolExecutor`` or ``ProcessPoolExecutor`` that is kept open across
    batches (hill climbing evaluates one batch per generation, and forking a
    fresh process pool per generation would dominate the runtime).  Evaluation
    is pure and ``Executor.map`` yields in submission order, so the produced
    report is identical under any worker count and executor kind.  Call
    :meth:`close` (or use as a context manager) when done.
    """

    def __init__(
        self,
        evaluator: ConfigurationEvaluator,
        max_workers: int = 1,
        executor: str = "thread",
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if executor == "process" and max_workers > 1:
            try:
                pickle.dumps(evaluator)
            except Exception as error:  # pickling raises a menagerie of types
                warnings.warn(
                    "process-based evaluation needs a picklable program/evaluator "
                    f"({type(error).__name__}: {error}); falling back to threads",
                    ExecutorFallbackWarning,
                    stacklevel=3,
                )
                emit("executor.fallback", level="warning", error=type(error).__name__)
                executor = "thread"
        self.evaluator = evaluator
        self.max_workers = max_workers
        self.executor = executor
        self._pool: Optional[Executor] = None

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            if self.executor == "process":
                # fork is the fast path from the typical single-threaded
                # caller (CLI, scripts); a caller that already runs other
                # threads gets spawn instead — fork() from a multi-threaded
                # process can clone a mid-acquire lock into the worker and
                # deadlock it (spawn carries the standard caveat that the
                # embedding program's main module must be importable).
                method = "fork" if threading.active_count() == 1 else "spawn"
                if method not in multiprocessing.get_all_start_methods():
                    method = "spawn"
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context(method),
                )
            else:
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def __call__(self, configs: Sequence[Configuration]) -> List[EvaluationResult]:
        configs = list(configs)
        if not configs:
            return []
        if self.max_workers <= 1:
            return [self.evaluator.evaluate(c) for c in configs]
        pool = self._ensure_pool()
        if self.executor == "process":
            # One pickled (evaluator, chunk) round-trip per chunk, not per config.
            chunksize = max(1, math.ceil(len(configs) / (self.max_workers * 4)))
            return list(pool.map(self.evaluator.evaluate, configs, chunksize=chunksize))
        return list(pool.map(self.evaluator.evaluate, configs))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "PooledBatchEvaluator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def make_batch_evaluator(
    evaluator: ConfigurationEvaluator,
    max_workers: int = 1,
    executor: str = "thread",
) -> PooledBatchEvaluator:
    """Wrap an evaluator into an order-preserving (optionally parallel) batch map.

    ``max_workers > 1`` fans batches out over a pool: ``executor="thread"``
    (default) or ``"process"`` — the latter escapes the GIL for cold tuning
    runs, falling back to threads with a ``RuntimeWarning`` when the evaluator
    (typically its program) is not picklable.
    """
    return PooledBatchEvaluator(evaluator, max_workers=max_workers, executor=executor)


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
