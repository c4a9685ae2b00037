"""Empirical autotuning above the mapping pipeline.

The paper (Section 4.3) uses the analytical data-movement model to *prune*
the mapping space and picks the final configuration empirically on the
machine.  This package supplies that empirical layer as a reusable service:

* :mod:`repro.autotune.space` — declarative configuration space (tile sizes,
  launch geometry, scratchpad staging) seeded by the relaxed §4.3 optimum
  and pruned by the cost model and scratchpad capacity;
* :mod:`repro.autotune.backends` — pluggable, URI-selected evaluation
  backends (``model:`` analytical pricing, ``measure-py:`` /
  ``measure-c:`` wall-clock measurement of the emitted program,
  ``hybrid:model>measure-py?top=K`` — the paper's model-prunes-measurement-
  decides loop) behind one ``prepare``/``measure`` interface;
* :mod:`repro.autotune.evaluate` — costs a configuration by replaying it
  through a shared :class:`repro.compiler.CompilationSession` (affine
  analysis runs once per request, candidates replay from the tiling stage)
  and the selected backend, with optional interpreter correctness
  spot-checks;
* :mod:`repro.autotune.search` — exhaustive / pruned-grid / random-restart
  hill-climb strategies with order-preserving parallel evaluation;
* :mod:`repro.autotune.cache` — persistent fingerprint-keyed cache facade, so
  repeated tuning requests are O(1) with zero pipeline compiles;
* :mod:`repro.autotune.store` — the :class:`CacheStore` persistence behind
  it: in memory, or the append-only JSONL log at the location a store URI
  names (importing caches written in older formats once);
* :mod:`repro.autotune.session` — the public :func:`autotune` /
  :func:`autotune_batch` API returning :class:`TuningReport`, over
  :func:`tune` of one :class:`TuningProblem` (the fingerprinted bundle);
* :mod:`repro.autotune.cli` — ``python -m repro.autotune``.
"""

from repro.autotune.backends import (
    BACKEND_SCHEMES,
    BackendUnavailable,
    EvaluationBackend,
    HybridBackend,
    Measurement,
    MeasuredCBackend,
    MeasuredPythonBackend,
    ModelBackend,
    available_backends,
    parse_backend_uri,
    register_backend,
    resolve_backend,
)
from repro.autotune.cache import TuningCache, fingerprint
from repro.autotune.store import (
    AppendLogStore,
    CacheStore,
    MemoryStore,
    open_store,
    parse_store_uri,
)
from repro.autotune.evaluate import ConfigurationEvaluator, EvaluationResult, best_result
from repro.autotune.search import (
    EXECUTORS,
    ExecutorFallbackWarning,
    ExhaustiveSearch,
    PooledBatchEvaluator,
    PrunedGridSearch,
    RandomHillClimbSearch,
    SearchStrategy,
    STRATEGIES,
    make_batch_evaluator,
    resolve_strategy,
)
from repro.autotune.session import (
    PreparedTuning,
    TuningJob,
    TuningProblem,
    TuningReport,
    autotune,
    autotune_batch,
    tune,
    tuning_fingerprint,
)
from repro.autotune.space import Configuration, ConfigurationSpace, SpaceOptions

__all__ = [
    "AppendLogStore",
    "BACKEND_SCHEMES",
    "BackendUnavailable",
    "CacheStore",
    "Configuration",
    "ConfigurationSpace",
    "ConfigurationEvaluator",
    "EvaluationBackend",
    "HybridBackend",
    "Measurement",
    "MeasuredCBackend",
    "MeasuredPythonBackend",
    "MemoryStore",
    "ModelBackend",
    "EvaluationResult",
    "available_backends",
    "parse_backend_uri",
    "register_backend",
    "resolve_backend",
    "EXECUTORS",
    "ExecutorFallbackWarning",
    "ExhaustiveSearch",
    "PooledBatchEvaluator",
    "PrunedGridSearch",
    "RandomHillClimbSearch",
    "SearchStrategy",
    "STRATEGIES",
    "SpaceOptions",
    "TuningCache",
    "PreparedTuning",
    "TuningJob",
    "TuningProblem",
    "TuningReport",
    "autotune",
    "autotune_batch",
    "best_result",
    "fingerprint",
    "make_batch_evaluator",
    "open_store",
    "parse_store_uri",
    "resolve_strategy",
    "tune",
    "tuning_fingerprint",
]
