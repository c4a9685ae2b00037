"""Tests of ``repro.autotune.backends`` — pluggable evaluation backends.

Covers the URI grammar, the four backends (model / measure-py / measure-c /
hybrid), the backend↔cache interaction (distinct fingerprints per backend,
``measurement.kind`` provenance in cached entries and ``cache-stats``), the
``lower-py`` terminal pass, toolchain detection, and the ISSUE-5 acceptance
criterion: a hybrid tune's best entry records ``measured-py`` provenance
while ``counting_stage_runs`` proves analysis ran once and ``lower-py`` ran
O(top-K) times.

``measure-c`` tests skip cleanly on toolchain-less machines via the
``requires_c_toolchain`` marker built on
:func:`repro.codegen.toolchain.c_toolchain_skip_reason`.
"""

from __future__ import annotations

import pickle
import re
import threading

import numpy as np
import pytest

from repro.codegen.toolchain import c_toolchain_skip_reason, find_c_compiler
from repro.compiler import (
    DEFAULT_PASSES,
    PASS_REGISTRY,
    CompilationSession,
    counting_stage_runs,
)
from repro.kernels.registry import get_kernel
from repro.runtime.interpreter import run_program
from repro.autotune import (
    ConfigurationEvaluator,
    ConfigurationSpace,
    SpaceOptions,
    TuningCache,
    autotune,
    tuning_fingerprint,
)
from repro.autotune.backends import (
    BackendUnavailable,
    EvaluationBackend,
    HybridBackend,
    Measurement,
    MeasuredCBackend,
    MeasuredPythonBackend,
    ModelBackend,
    available_backends,
    parse_backend_uri,
    resolve_backend,
)
from repro.autotune.backends.measured_c import trimmed_median
from repro.codegen.lower import TERMS
from repro.autotune.cli import cache_stats_main, main as cli_main
from repro.autotune.evaluate import SPOT_CHECKS_TOTAL, EvaluationResult
from repro.telemetry.history import spearman_rho

requires_c_toolchain = pytest.mark.skipif(
    c_toolchain_skip_reason() is not None,
    reason=c_toolchain_skip_reason() or "C toolchain present",
)

#: collapses to very few candidates — for fast smoke paths
TINY_SPACE = SpaceOptions(
    thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
)
#: a dozen-plus candidates — for re-ranking / provenance assertions
WIDE_SPACE = SpaceOptions(
    thread_counts=(16, 32), block_counts=(4, 8), tile_candidates_per_geometry=3
)
FAST_PY = "measure-py:"


def matmul(n: int = 8):
    return get_kernel("matmul").build(m=n, n=n, k=n)


# -- URI grammar -------------------------------------------------------------------
class TestBackendUris:
    def test_registry_lists_all_four(self):
        assert available_backends() == ["hybrid", "measure-c", "measure-py", "model"]

    def test_backends_subcommand_lists_the_registry(self, capsys):
        assert cli_main(["backends"]) == 0
        output = capsys.readouterr().out
        assert re.search(r"^model +available$", output, re.M)
        assert re.search(r"^hybrid +available$", output, re.M)

    def test_model_parses_with_and_without_colon(self):
        assert isinstance(parse_backend_uri("model"), ModelBackend)
        assert isinstance(parse_backend_uri("model:"), ModelBackend)

    def test_none_resolves_to_the_model(self):
        assert isinstance(resolve_backend(None), ModelBackend)

    def test_instances_pass_through_resolve(self):
        backend = MeasuredPythonBackend()
        assert resolve_backend(backend) is backend

    def test_resolve_rejects_other_types(self):
        with pytest.raises(TypeError, match="backend must be"):
            resolve_backend(42)

    def test_unknown_scheme_lists_the_registry(self):
        with pytest.raises(ValueError, match="available: hybrid, measure-c"):
            parse_backend_uri("cuda:")

    def test_measure_py_accepts_no_options(self):
        # one counted run: the timing knobs and the scalar lowering are gone
        for options in ("warmup=1", "repeat=5", "trim=0.2", "workers=2", "vectorize=off"):
            with pytest.raises(ValueError, match="accepts no options"):
                parse_backend_uri(f"measure-py:{options}")

    def test_measure_c_rejects_unknown_options_and_bad_values(self):
        with pytest.raises(ValueError, match="unknown options \\['repeats'\\]"):
            parse_backend_uri("measure-c:repeats=3")
        with pytest.raises(ValueError, match="repeat must be positive"):
            parse_backend_uri("measure-c:repeat=0")
        with pytest.raises(ValueError, match="trim must be in"):
            parse_backend_uri("measure-c:trim=0.5")

    def test_model_accepts_no_options(self):
        with pytest.raises(ValueError, match="accepts no options"):
            parse_backend_uri("model:warmup=1")

    def test_malformed_option_syntax(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_backend_uri("measure-py:warmup")

    def test_measure_c_options(self):
        backend = parse_backend_uri("measure-c:cc=gcc,repeat=7")
        assert backend.cc == "gcc"
        assert backend.repeat == 7

    def test_hybrid_parses_primary_secondary_and_top(self):
        backend = parse_backend_uri("hybrid:model>measure-py?top=4")
        assert isinstance(backend, HybridBackend)
        assert isinstance(backend.primary, ModelBackend)
        assert isinstance(backend.secondary, MeasuredPythonBackend)
        assert backend.top == 4
        assert backend.kind == "measured-py"

    def test_hybrid_secondary_options_thread_through(self):
        backend = parse_backend_uri("hybrid:model>measure-c:warmup=0,repeat=2?top=3")
        assert backend.secondary.repeat == 2

    def test_hybrid_defaults_top_to_8(self):
        assert parse_backend_uri("hybrid:model>measure-py").top == 8

    def test_hybrid_rejects_missing_separator(self):
        with pytest.raises(ValueError, match="PRIMARY>SECONDARY"):
            parse_backend_uri("hybrid:model")

    def test_hybrid_rejects_nesting(self):
        with pytest.raises(ValueError, match="do not nest"):
            parse_backend_uri("hybrid:model>hybrid:model>measure-py")

    def test_hybrid_rejects_unknown_query_options(self):
        with pytest.raises(ValueError, match="unknown options \\['topk'\\]"):
            parse_backend_uri("hybrid:model>measure-py?topk=2")

    def test_uris_round_trip(self):
        for uri in ("model:", FAST_PY, "hybrid:model>measure-py?top=4"):
            backend = parse_backend_uri(uri)
            again = parse_backend_uri(backend.uri())
            assert again.signature() == backend.signature()

    def test_hybrid_uri_preserves_secondary_options(self):
        # the recorded provenance URI must name the *actual* measurement
        # parameters, not the defaults — and re-parse to the same signature
        backend = parse_backend_uri("hybrid:model>measure-c:warmup=0,repeat=2?top=4")
        assert "warmup=0" in backend.uri() and "repeat=2" in backend.uri()
        assert parse_backend_uri(backend.uri()).signature() == backend.signature()


# -- Measurement / EvaluationResult serialisation ----------------------------------
class TestMeasurementSerialisation:
    def test_measurement_round_trips(self):
        measurement = Measurement(
            time_ms=1.5, kind="measured-py", metadata={"repeat": 3}
        )
        assert Measurement.from_dict(measurement.to_dict()) == measurement

    def test_result_carries_measurement_through_dict(self):
        report = autotune(matmul(), space_options=TINY_SPACE, backend=FAST_PY)
        payload = report.best.to_dict()
        restored = EvaluationResult.from_dict(payload)
        assert restored.measurement is not None
        assert restored.measurement.kind == "measured-py"
        assert restored.measurement_kind == "measured-py"

    def test_legacy_payload_without_measurement_reads_as_model(self):
        report = autotune(matmul(), space_options=TINY_SPACE)
        payload = report.best.to_dict()
        payload.pop("measurement")
        restored = EvaluationResult.from_dict(payload)
        assert restored.measurement is None
        assert restored.measurement_kind == "model"

    def test_trimmed_median(self):
        assert trimmed_median([5.0], 0.2) == 5.0
        assert trimmed_median([1.0, 2.0, 100.0], 0.34) == 2.0  # outlier dropped
        with pytest.raises(ValueError):
            trimmed_median([], 0.2)


# -- the model backend (extraction must not change behaviour) ----------------------
class TestModelBackend:
    def test_explicit_model_matches_default(self):
        default = autotune(matmul(), space_options=TINY_SPACE)
        explicit = autotune(matmul(), space_options=TINY_SPACE, backend="model:")
        assert explicit.fingerprint == default.fingerprint
        assert explicit.best.configuration == default.best.configuration
        assert explicit.best.time_ms == default.best.time_ms

    def test_model_results_carry_model_measurements(self):
        report = autotune(matmul(), space_options=TINY_SPACE)
        assert report.backend == "model:"
        for result in report.results:
            if result.feasible:
                assert result.measurement is not None
                assert result.measurement.kind == "model"
                assert result.breakdown  # the model's cost breakdown survives

    def test_infeasible_configurations_stay_infeasible_not_raising(self):
        program = matmul(8)
        evaluator = ConfigurationEvaluator(program)
        from repro.autotune.space import Configuration

        absurd = Configuration.make(16, 64, {"i": 8, "j": 8, "k": 8}, True)
        # threads exceed the tile's work → the compiler refuses; the
        # evaluator must report infeasible, never raise
        result = evaluator.evaluate(
            Configuration.make(10_000, 100_000, {"i": 1, "j": 1, "k": 1}, True)
        )
        assert isinstance(result.feasible, bool)


# -- the measured-python backend ---------------------------------------------------
class TestMeasuredPythonBackend:
    def test_prices_the_counted_worst_block_with_provenance(self):
        report = autotune(matmul(), space_options=TINY_SPACE, backend=FAST_PY)
        best = report.best
        metadata = best.measurement.metadata
        assert best.measurement.kind == "measured-py"
        assert best.time_ms > 0 and best.breakdown
        assert list(metadata["worst_block"]) == list(TERMS)
        assert metadata["lowering"] == "lower-py-vec"
        assert report.backend == "measure-py:"
        # the time is the GPU model's price of the worst block's counts
        from repro.autotune.backends.measured_py import counted_workload
        from repro.machine.gpu import GPUPerformanceModel, KernelLaunch

        mapped = CompilationSession(matmul()).replay(config=best.configuration)
        launch = KernelLaunch(
            counted_workload(tuple(metadata["worst_block"].values())),
            mapped.geometry,
            mapped.global_sync_rounds,
        )
        assert best.time_ms == GPUPerformanceModel().execution_time_ms(launch)

    def test_analysis_runs_once_and_lowering_once_per_candidate(self):
        program = matmul(16)
        with counting_stage_runs() as runs:
            report = autotune(program, space_options=WIDE_SPACE, backend=FAST_PY)
        assert runs.counts["analysis"] == 1
        assert runs.counts["lower-py-vec"] == len(report.results)
        # every candidate was measured, so every result is provenance-stamped
        assert all(
            r.measurement.kind == "measured-py" for r in report.results if r.feasible
        )

    def test_evaluator_with_backend_pickles_for_process_executors(self):
        evaluator = ConfigurationEvaluator(matmul(), backend=FAST_PY)
        clone = pickle.loads(pickle.dumps(evaluator))
        clone.session.compile()
        assert clone.backend.signature() == evaluator.backend.signature()

    def test_counted_candidates_are_measured_in_parallel_to_the_serial_report(self):
        # a count does not depend on what else runs: no serialization, no warning
        import warnings as warnings_module

        serial = autotune(matmul(), space_options=TINY_SPACE, backend=FAST_PY)
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            parallel = autotune(
                matmul(), space_options=TINY_SPACE, backend=FAST_PY, max_workers=4
            )
        assert parallel.to_dict() == serial.to_dict()

    def test_hybrid_with_model_primary_keeps_parallel_search(self):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            autotune(
                matmul(),
                space_options=TINY_SPACE,
                backend="hybrid:model>measure-py?top=2",
                max_workers=4,
            )

    def test_runtime_failures_surface_instead_of_reading_as_infeasible(self, monkeypatch):
        # a codegen/runtime bug (here: corrupted input shapes) must never be
        # silently recorded as "infeasible mapping"
        from types import SimpleNamespace

        from repro.autotune.backends import measured_py

        backend = MeasuredPythonBackend()
        monkeypatch.setattr(measured_py, "np", SimpleNamespace(zeros=lambda shape: np.zeros((1,))))
        evaluator = ConfigurationEvaluator(matmul(), backend=backend)
        mapped = evaluator.session.compile()
        from repro.autotune.space import Configuration

        config = Configuration.from_options(evaluator.session.options, mapped.tile_sizes)
        with pytest.raises((RuntimeError, IndexError)):
            backend.measure(config)


# -- the hybrid backend (ISSUE 5 acceptance) ---------------------------------------
class TestHybridBackend:
    def test_model_and_measured_prices_of_one_candidate_set_rank_correlate(self):
        """The hybrid's premise, as a number: Spearman's rho between ``model:``
        and ``measure-py:`` prices of one shared candidate set.  Both price
        on one model, one from a representative tile, one from every counted
        block, so they agree on the order more often than not."""
        program = matmul(16)
        session = CompilationSession(program)
        space = ConfigurationSpace(program, space_options=WIDE_SPACE, session=session)
        model = ConfigurationEvaluator(program, session=session)
        measured = ConfigurationEvaluator(program, session=session, backend=FAST_PY)
        pairs = [
            (priced.time_ms, timed.time_ms)
            for config in space.enumerate()
            for priced, timed in [(model.evaluate(config), measured.evaluate(config))]
            if priced.feasible and timed.feasible
        ]
        assert len(pairs) >= 4
        assert 0.0 < spearman_rho(*zip(*pairs)) <= 1.0

    def test_hybrid_best_is_measured_and_cached_with_provenance(self):
        program = matmul(16)
        cache = TuningCache()
        with counting_stage_runs() as runs:
            report = autotune(
                program,
                space_options=WIDE_SPACE,
                backend="hybrid:model>measure-py?top=8",
                cache=cache,
            )
        # the winner was decided by measurement, and the cache records it
        assert report.best.measurement.kind == "measured-py"
        entry = cache.peek(report.fingerprint)
        assert entry["best"]["measurement"]["kind"] == "measured-py"
        # analysis once per request; lowering O(top + baseline), not O(space)
        assert runs.counts["analysis"] == 1
        assert 1 <= runs.counts["lower-py-vec"] <= 8 + 1
        assert len(report.results) > 8  # the model really pruned a wider set
        # un-measured survivors keep their model provenance for inspection
        kinds = {r.measurement_kind for r in report.results}
        assert kinds == {"model", "measured-py"}

    def test_hybrid_maps_each_candidate_once_per_program(self, monkeypatch):
        """The benchmark's cold-hybrid matmul request: tiling → scratchpad →
        mapping run once per evaluation to price it (the seed's tiles come
        from the §4.3 search alone, no compile) — the measuring backend
        replays what the model already mapped from the session's artifact
        memo and runs only its lowering pass, and the spot-check runs the
        winner's lowering from that memo: no check program is analysed or
        mapped, and the interpreter never runs."""
        from repro.autotune import evaluate as evaluate_module

        interpreted = []
        interpret = evaluate_module.run_program

        def counting_interpret(program, **kwargs):
            interpreted.append(program)
            return interpret(program, **kwargs)

        monkeypatch.setattr(evaluate_module, "run_program", counting_interpret)
        kernel = get_kernel("matmul")
        verdicts = {v: SPOT_CHECKS_TOTAL.value(verdict=v) for v in ("pass", "fail")}
        with counting_stage_runs() as runs:
            report = autotune(
                kernel.build(m=32, n=32, k=32),
                space_options=TINY_SPACE,
                backend="hybrid:model>measure-py?top=4",
                strategy="pruned",
                check_correctness=True,
                check_program=kernel.build_check(),
            )
        evaluations = report.num_evaluations
        measured = sum(r.measurement_kind == "measured-py" for r in report.results)
        assert evaluations == 3 and 1 <= measured <= evaluations
        for stage in ("tiling", "scratchpad", "mapping"):
            # 3: each evaluation once; more without the memo or with a check session
            assert runs.counts[stage] == evaluations
        assert runs.counts["lower-py-vec"] == measured
        assert runs.counts["analysis"] == 1  # the tuned program only
        # exactly one verdict, on the winner; everything else was never checked
        assert {
            v: SPOT_CHECKS_TOTAL.value(verdict=v) - before for v, before in verdicts.items()
        } == {"pass": 1, "fail": 0}
        assert report.best.correct is True
        assert [r.correct for r in report.results].count(None) == evaluations - 1
        assert interpreted == []

    def test_hybrid_baseline_is_remeasured_for_comparable_speedups(self):
        report = autotune(
            matmul(16),
            space_options=WIDE_SPACE,
            backend="hybrid:model>measure-py?top=2",
        )
        assert report.baseline.measurement_kind == "measured-py"
        assert report.speedup_over_baseline >= 1.0

    def test_hybrid_never_crowns_an_unmeasured_candidate(self):
        backend = parse_backend_uri("hybrid:model>measure-py?top=1")
        measured = EvaluationResult.from_dict(
            {
                "configuration": {"num_blocks": 16, "threads_per_block": 64,
                                  "tile_sizes": {"i": 2}, "use_scratchpad": True},
                "time_ms": 50.0, "cycles": 1.0, "feasible": True,
                "measurement": {"time_ms": 50.0, "kind": "measured-py"},
            }
        )
        model_priced = EvaluationResult.from_dict(
            {
                "configuration": {"num_blocks": 32, "threads_per_block": 64,
                                  "tile_sizes": {"i": 4}, "use_scratchpad": True},
                "time_ms": 0.001, "cycles": 1.0, "feasible": True,
                "measurement": {"time_ms": 0.001, "kind": "model"},
            }
        )
        # 0.001 model-ms would "win" a naive comparison against 50 measured ms
        best = backend.select_best([measured, model_priced])
        assert best is measured


# -- the spot-check at selection time ------------------------------------------------
class TestSpotCheckRejectsAMiscompiledWinner:
    """A candidate whose mapping is corrupted must never be crowned: it is
    reported with ``correct is False`` and the next candidate in the
    backend's order wins with ``correct is True``.  The measured times are
    pinned to the model's order (each run still executes), so "the would-be
    winner" is known before the request runs.  A hybrid request checks the
    winner by running its lowering, so there the *tuned* program's mapping is
    corrupted (the model maps it, the count and the check lower that
    artifact); the ``model:`` request interprets, so there the *check*
    program's is."""

    HYBRID = "hybrid:model>measure-py?top={top}"

    @pytest.fixture
    def corrupted_tune(self, monkeypatch):
        import dataclasses

        from repro.ir.ast import COMPUTE, StatementNode

        kernel = get_kernel("matmul")
        program, check_program = kernel.build(m=16, n=16, k=16), kernel.build_check()
        modelled = autotune(program, space_options=TINY_SPACE, cache=None)
        ranked = [
            r.configuration
            for r in sorted(
                (r for r in modelled.results if r.feasible),
                key=lambda r: (r.time_ms, r.configuration.key()),
            )
        ]
        assert len(ranked) >= 2
        pinned_ms = {config: 10.0 + rank for rank, config in enumerate(ranked)}
        measure = MeasuredPythonBackend._measure
        monkeypatch.setattr(
            MeasuredPythonBackend,
            "_measure",
            lambda self, config: dataclasses.replace(
                measure(self, config), time_ms=pinned_ms[config]
            ),
        )
        corrupted, target = set(), [check_program]
        replay = CompilationSession.replay

        def corrupting_replay(self, from_stage="tiling", config=None, options=None):
            mapped = replay(self, from_stage=from_stage, config=config, options=options)
            if self.program is target[0] and config in corrupted:
                node = next(
                    n for n in mapped.program.body.walk()
                    if isinstance(n, StatementNode) and n.kind == COMPUTE
                )
                node.statement = dataclasses.replace(
                    node.statement, rhs=node.statement.rhs + 1.0
                )
            return mapped

        monkeypatch.setattr(CompilationSession, "replay", corrupting_replay)

        def run(backend, bad):
            corrupted.clear()
            corrupted.update(bad)
            target[0] = check_program if backend == "model:" else program
            report = autotune(
                program,
                space_options=TINY_SPACE,
                backend=backend,
                cache=None,
                check_correctness=True,
                check_program=check_program,
            )
            verdicts = {}
            for result in report.results:
                verdicts.setdefault(result.configuration, set()).add(result.correct)
            return report, verdicts

        return ranked, run

    @pytest.mark.parametrize(
        "backend, kind",
        [
            (HYBRID.format(top=4), "measured-py"),
            # the replacement is promoted into the top-1 and measured
            (HYBRID.format(top=1), "measured-py"),
            ("model:", "model"),
        ],
    )
    def test_the_next_candidate_wins_checked(self, corrupted_tune, backend, kind, monkeypatch):
        from repro.autotune import evaluate as evaluate_module

        interpreted = []
        interpret = evaluate_module.run_program
        monkeypatch.setattr(
            evaluate_module,
            "run_program",
            lambda program, **kwargs: interpreted.append(program) or interpret(program, **kwargs),
        )
        ranked, run = corrupted_tune
        report, verdicts = run(backend, {ranked[0]})
        # a hybrid request checks by running lowerings, the model by interpreting
        assert bool(interpreted) == (kind == "model")
        assert verdicts[ranked[0]] == {False}
        assert report.best.configuration == ranked[1]
        assert report.best.correct is True
        assert report.best.measurement_kind == kind

    @pytest.mark.parametrize("backend", ["model:", HYBRID.format(top=1)])
    def test_every_candidate_wrong_fails_the_request(self, corrupted_tune, backend):
        ranked, run = corrupted_tune
        with pytest.raises(ValueError, match="no feasible \\(and correct\\) configuration"):
            run(backend, set(ranked))


# -- backend ↔ cache interaction ---------------------------------------------------
class TestBackendCacheInteraction:
    def test_model_and_measured_occupy_distinct_cache_keys(self, tmp_path):
        program = matmul()
        cache = TuningCache(tmp_path / "cache.json")
        model_report = autotune(program, space_options=TINY_SPACE, cache=cache)
        measured_report = autotune(
            program, space_options=TINY_SPACE, cache=cache, backend=FAST_PY
        )
        assert model_report.fingerprint != measured_report.fingerprint
        assert len(cache) == 2
        counts = cache.measurement_kind_counts()
        assert counts == {"model": 1, "measured-py": 1}

    def test_fingerprints_distinguish_backend_knobs_and_seed(self):
        program = matmul()
        base = tuning_fingerprint(program, space_options=TINY_SPACE, backend="measure-c:")
        other_repeat = tuning_fingerprint(
            program, space_options=TINY_SPACE, backend="measure-c:repeat=3"
        )
        other_seed = tuning_fingerprint(
            program, space_options=TINY_SPACE, backend="measure-c:", seed=1
        )
        assert len({base, other_repeat, other_seed}) == 3
        # the model and the count ignore the seed (deterministic, pruned strategy)
        for backend in (None, FAST_PY):
            assert tuning_fingerprint(program, space_options=TINY_SPACE, backend=backend) == (
                tuning_fingerprint(program, space_options=TINY_SPACE, backend=backend, seed=1)
            )

    #: jacobi1d-64 / TINY_SPACE / seed 3 at the last commit whose ``measure-py``
    #: timed its runs (lowering revision 3)
    WHILE_TIMED = {
        None: "fb236c255c11b0bc13b57d7323b66e630ab6ec06a450a45e6d97f3108375da2f",
        FAST_PY: "66bf43c90345b10d18fdfa68fbcae88f1bf199db0129a1638bac2b7d2392cd21",
        "hybrid:model>measure-py?top=4": (
            "6b1d19bf6c78b13d586f32437d1bc3dcd4c20ef3c6ae01d107780ab47489c46f"
        ),
    }
    #: ... and since it counts
    COUNTED = {
        None: "fb236c255c11b0bc13b57d7323b66e630ab6ec06a450a45e6d97f3108375da2f",
        FAST_PY: "12b2a27e27c7dd4be5dc3da23376487bfa05d811792631130be2470c27660362",
        "hybrid:model>measure-py?top=4": (
            "6e65e08319f50b6be3517d6589c71207bde410a314448ae32612110ac1f2b5c2"
        ),
    }

    def test_counting_moved_exactly_the_measured_fingerprints_once(self):
        program = get_kernel("jacobi1d").build(size=64)
        now = {
            backend: tuning_fingerprint(program, space_options=TINY_SPACE, backend=backend, seed=3)
            for backend in self.COUNTED
        }
        assert now == self.COUNTED
        assert now[None] == self.WHILE_TIMED[None]  # model: entries stay warm
        assert all(now[backend] != self.WHILE_TIMED[backend] for backend in list(now)[1:])
        assert "lowering" not in parse_backend_uri(FAST_PY).uri()  # not a user option

    def test_a_report_measured_under_another_lowering_revision_is_not_served(
        self, tmp_path, monkeypatch
    ):
        from repro.autotune.backends import measured_py

        program = matmul()
        cache = TuningCache(tmp_path / "cache.json")
        request = dict(space_options=TINY_SPACE, cache=cache, backend=FAST_PY)
        with monkeypatch.context() as earlier:
            earlier.setattr(measured_py, "LOWERING_REVISION", measured_py.LOWERING_REVISION - 1)
            stored = autotune(program, **request)
        fresh = autotune(program, **request)
        assert not stored.from_cache and not fresh.from_cache
        assert fresh.fingerprint != stored.fingerprint and len(cache) == 2
        assert autotune(program, **request).from_cache

    @requires_c_toolchain
    def test_a_measure_c_report_measured_under_another_lowering_revision_is_not_served(
        self, tmp_path, monkeypatch
    ):
        # the harness prints the same lowering, so a revision bump is a new
        # speed class for measure-c too
        from repro.autotune.backends import measured_c

        program = matmul()
        cache = TuningCache(tmp_path / "cache.json")
        request = dict(
            space_options=TINY_SPACE, cache=cache, backend="measure-c:warmup=0,repeat=1"
        )
        with monkeypatch.context() as earlier:
            earlier.setattr(measured_c, "LOWERING_REVISION", measured_c.LOWERING_REVISION - 1)
            stored = autotune(program, **request)
        fresh = autotune(program, **request)
        assert not stored.from_cache and not fresh.from_cache
        assert fresh.fingerprint != stored.fingerprint and len(cache) == 2
        assert autotune(program, **request).from_cache
        assert "lowering" not in parse_backend_uri("measure-c:").uri()  # not a user option

    def test_warm_hit_restores_backend_and_provenance(self, tmp_path):
        program = matmul()
        cache_spec = str(tmp_path / "cache.json")
        cold = autotune(
            program, space_options=TINY_SPACE, cache=cache_spec, backend=FAST_PY
        )
        warm = autotune(
            program, space_options=TINY_SPACE, cache=cache_spec, backend=FAST_PY
        )
        assert warm.from_cache
        assert warm.backend == cold.backend
        assert warm.best.measurement.kind == "measured-py"

    def test_cache_stats_cli_reports_per_kind_counts(self, tmp_path, capsys):
        program = matmul()
        cache_spec = str(tmp_path / "cache.json")
        cache = TuningCache(cache_spec)
        autotune(program, space_options=TINY_SPACE, cache=cache)
        autotune(program, space_options=TINY_SPACE, cache=cache, backend=FAST_PY)
        assert cache_stats_main(["--cache", cache_spec]) == 0
        output = capsys.readouterr().out
        assert "kinds: measured-py=1 model=1" in output


# -- the measured-C backend --------------------------------------------------------
class TestMeasuredCBackend:
    def test_unavailable_toolchain_fails_fast_and_clean(self):
        with pytest.raises(BackendUnavailable, match="no C toolchain"):
            autotune(
                matmul(),
                space_options=TINY_SPACE,
                backend="measure-c:cc=definitely-not-a-compiler-xyz",
            )

    @requires_c_toolchain
    def test_parallel_measure_c_is_serialized_with_a_warning(self):
        # concurrent timed runs would inflate each other's perf_counter
        # windows; the request must degrade to serial, loudly
        with pytest.warns(RuntimeWarning, match="serializing"):
            report = autotune(
                matmul(),
                space_options=TINY_SPACE,
                backend="measure-c:warmup=0,repeat=1",
                max_workers=4,
            )
        assert report.best.measurement.kind == "measured-c"

    @requires_c_toolchain
    def test_compiles_and_times_the_emitted_c(self):
        report = autotune(
            matmul(),
            space_options=TINY_SPACE,
            backend="measure-c:warmup=0,repeat=2",
        )
        best = report.best
        assert best.measurement.kind == "measured-c"
        assert best.time_ms > 0
        assert best.measurement.metadata["compiler"]
        assert best.measurement.metadata["checksum"].startswith("checksum")

    @requires_c_toolchain
    def test_c_and_python_lowerings_agree_on_the_winner_inputs(self):
        # the C harness seeds arrays with its own LCG; the important
        # agreement is structural: same program, same loop semantics —
        # checked bit-for-bit in the emitter smoke (checksum vs emit_py)
        backend = MeasuredCBackend(warmup=0, repeat=1)
        session = CompilationSession(matmul())
        from repro.machine.spec import GEFORCE_8800_GTX

        backend.prepare(session, GEFORCE_8800_GTX)
        mapped = session.compile()
        from repro.autotune.space import Configuration

        config = Configuration.from_options(session.options, mapped.tile_sizes)
        measurement = backend.measure(config)
        assert measurement.feasible
        assert measurement.time_ms >= 0


class TestToolchainDetection:
    def test_missing_compiler_returns_none(self):
        assert find_c_compiler("definitely-not-a-compiler-xyz") is None
        assert c_toolchain_skip_reason("definitely-not-a-compiler-xyz") is not None

    def test_cc_env_is_honoured(self, monkeypatch):
        real = find_c_compiler()
        if real is None:
            pytest.skip("no toolchain to point $CC at")
        monkeypatch.setenv("CC", real)
        assert find_c_compiler() == real

    def test_empty_path_finds_nothing(self, monkeypatch):
        monkeypatch.setenv("PATH", "/nonexistent")
        monkeypatch.delenv("CC", raising=False)
        assert find_c_compiler() is None


# -- the lower-py terminal pass ----------------------------------------------------
class TestLowerPyPass:
    def test_registered_beside_emit(self):
        assert "lower-py" in PASS_REGISTRY
        assert "emit" in PASS_REGISTRY

    def test_artifact_is_executable_python_matching_the_interpreter(self):
        program = matmul(8)
        session = CompilationSession(program, passes=(*DEFAULT_PASSES, "lower-py"))
        session.compile()
        source = session.artifact("lower-py").value
        assert "def kernel(arrays, params):" in source
        mapped = session.artifact("mapping").value

        namespace = {}
        exec(compile(source, "<test>", "exec"), namespace)
        rng = np.random.default_rng(0)
        inputs = {
            a.name: rng.random(tuple(a.shape))
            for a in program.arrays.values()
            if not a.is_local
        }
        arrays = {k: v.copy() for k, v in inputs.items()}
        for a in mapped.program.arrays.values():
            if a.is_local:
                arrays[a.name] = np.zeros(tuple(int(e) for e in a.shape))
        namespace["kernel"](arrays, dict(mapped.param_binding))
        reference = run_program(program, inputs={k: v.copy() for k, v in inputs.items()})
        for a in program.arrays.values():
            if not a.is_local:
                assert np.allclose(reference.data(a.name), arrays[a.name])

    def test_derived_session_reuses_frozen_analysis(self):
        program = matmul(8)
        shared = CompilationSession(program)
        shared.analysis()  # freeze it
        derived = shared.with_passes((*DEFAULT_PASSES, "lower-py"))
        with counting_stage_runs() as runs:
            artifacts = derived.replay_artifacts(
                options=shared.options.with_overrides(tile_sizes={"i": 4, "j": 4, "k": 4}),
                upto="lower-py",
            )
        assert "lower-py" in artifacts
        assert runs.counts.get("analysis", 0) == 0  # adopted, not re-run

    @pytest.mark.parametrize("argv", [["matmul", "--size", "m=64", "n=64", "k=64"], ["jacobi1d"]])
    def test_inspect_stages_shows_lower_py_timings(self, argv, capsys):
        assert cli_main(["inspect-stages", *argv]) == 0
        output = capsys.readouterr().out
        assert "lower-py" in output
        assert "analysis ran 1x" in output


# -- custom backends stay pluggable ------------------------------------------------
class TestCustomBackends:
    def test_register_and_tune_with_a_custom_backend(self):
        class ConstantBackend(EvaluationBackend):
            scheme = "constant-test"
            kind = "model"

            def _measure(self, configuration):
                self._require_prepared()
                return Measurement(time_ms=1.0, kind=self.kind)

        report = autotune(
            matmul(), space_options=TINY_SPACE, backend=ConstantBackend()
        )
        assert report.best.time_ms == 1.0
        assert report.backend == "constant-test:"

    def test_parallel_evaluation_is_serialized_with_a_warning(self):
        # concurrent timed runs would inflate each other's perf_counter
        # windows; a wall-clock backend's request must degrade to serial,
        # loudly.  Priced like model: so it runs without a C toolchain.
        class WallClockBackend(ModelBackend):
            scheme = "wall-clock-test"
            measures_wall_clock = True

            def __init__(self):
                super().__init__()
                self.threads = set()

            def _measure(self, configuration):
                self.threads.add(threading.get_ident())
                return super()._measure(configuration)

            def uri(self):
                return f"{self.scheme}:"

        backend = WallClockBackend()
        with pytest.warns(RuntimeWarning, match=r"serializing .*max_workers 4 -> 1"):
            report = autotune(
                matmul(), space_options=WIDE_SPACE, backend=backend, max_workers=4
            )
        assert report.backend == "wall-clock-test:"
        assert len(report.results) > 1
        # serial evaluation runs every candidate on the calling thread
        assert backend.threads == {threading.get_ident()}
