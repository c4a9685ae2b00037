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
    trimmed_median,
)
from repro.autotune.cli import cache_stats_main
from repro.autotune.evaluate import EvaluationResult

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
FAST_PY = "measure-py:warmup=0,repeat=2"


def matmul(n: int = 8):
    return get_kernel("matmul").build(m=n, n=n, k=n)


# -- URI grammar -------------------------------------------------------------------
class TestBackendUris:
    def test_registry_lists_all_four(self):
        assert available_backends() == ["hybrid", "measure-c", "measure-py", "model"]

    def test_model_parses_with_and_without_colon(self):
        assert isinstance(parse_backend_uri("model"), ModelBackend)
        assert isinstance(parse_backend_uri("model:"), ModelBackend)

    def test_none_resolves_to_the_model(self):
        assert isinstance(resolve_backend(None), ModelBackend)

    def test_instances_pass_through_resolve(self):
        backend = MeasuredPythonBackend(repeat=3)
        assert resolve_backend(backend) is backend

    def test_resolve_rejects_other_types(self):
        with pytest.raises(TypeError, match="backend must be"):
            resolve_backend(42)

    def test_unknown_scheme_lists_the_registry(self):
        with pytest.raises(ValueError, match="available: hybrid, measure-c"):
            parse_backend_uri("cuda:")

    def test_measure_py_options(self):
        backend = parse_backend_uri("measure-py:warmup=2,repeat=9,trim=0.1")
        assert (backend.warmup, backend.repeat, backend.trim) == (2, 9, 0.1)

    def test_measure_py_rejects_unknown_options(self):
        with pytest.raises(ValueError, match="unknown options \\['repeats'\\]"):
            parse_backend_uri("measure-py:repeats=3")

    def test_measure_py_rejects_bad_values(self):
        with pytest.raises(ValueError, match="repeat must be positive"):
            parse_backend_uri("measure-py:repeat=0")
        with pytest.raises(ValueError, match="trim must be in"):
            parse_backend_uri("measure-py:trim=0.5")

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
        backend = parse_backend_uri("hybrid:model>measure-py:warmup=0,repeat=2?top=3")
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
        backend = parse_backend_uri("hybrid:model>measure-py:warmup=0,repeat=2?top=4")
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
    def test_measures_wall_clock_with_provenance(self):
        report = autotune(matmul(), space_options=TINY_SPACE, backend=FAST_PY)
        best = report.best
        assert best.measurement.kind == "measured-py"
        assert best.time_ms > 0
        assert len(best.measurement.metadata["times_ms"]) == 2
        assert report.backend.startswith("measure-py:")

    def test_analysis_runs_once_and_lowering_once_per_candidate(self):
        program = matmul(16)
        with counting_stage_runs() as runs:
            report = autotune(program, space_options=WIDE_SPACE, backend=FAST_PY)
        assert runs.counts["analysis"] == 1
        # vectorize=auto (the default) lowers through the vectorised terminal
        assert runs.counts["lower-py-vec"] == len(report.results)
        # every candidate was measured, so every result is provenance-stamped
        assert all(
            r.measurement.kind == "measured-py" for r in report.results if r.feasible
        )

    def test_evaluator_with_backend_pickles_for_process_executors(self):
        evaluator = ConfigurationEvaluator(matmul(), backend=FAST_PY)
        clone = pickle.loads(pickle.dumps(evaluator))
        config = clone.session.compile()
        assert clone.backend.repeat == 2

    def test_parallel_evaluation_is_serialized_with_a_warning(self):
        # concurrent timed runs would inflate each other's perf_counter
        # windows; the request must degrade to serial, loudly
        with pytest.warns(RuntimeWarning, match="serializing"):
            report = autotune(
                matmul(), space_options=TINY_SPACE, backend=FAST_PY, max_workers=4
            )
        assert report.best.measurement.kind == "measured-py"

    def test_hybrid_with_model_primary_keeps_parallel_search(self):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            autotune(
                matmul(),
                space_options=TINY_SPACE,
                backend="hybrid:model>measure-py:warmup=0,repeat=2?top=2",
                max_workers=4,
            )

    def test_runtime_failures_surface_instead_of_reading_as_infeasible(self, monkeypatch):
        # a codegen/runtime bug (here: corrupted input shapes) must never be
        # silently recorded as "infeasible mapping"
        import numpy as np

        backend = MeasuredPythonBackend(warmup=0, repeat=1)
        monkeypatch.setattr(
            MeasuredPythonBackend,
            "_seeded_arrays",
            lambda self, program: {
                a.name: np.zeros((1,)) for a in program.arrays.values()
            },
        )
        evaluator = ConfigurationEvaluator(matmul(), backend=backend)
        mapped = evaluator.session.compile()
        from repro.autotune.space import Configuration

        config = Configuration.from_options(evaluator.session.options, mapped.tile_sizes)
        with pytest.raises((RuntimeError, IndexError)):
            backend.measure(config)


# -- the hybrid backend (ISSUE 5 acceptance) ---------------------------------------
class TestHybridBackend:
    def test_hybrid_best_is_measured_and_cached_with_provenance(self):
        program = matmul(16)
        cache = TuningCache()
        with counting_stage_runs() as runs:
            report = autotune(
                program,
                space_options=WIDE_SPACE,
                backend="hybrid:model>measure-py:warmup=0,repeat=2?top=8",
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

    def test_hybrid_maps_each_candidate_once_per_program(self):
        """The benchmark's cold-hybrid matmul request: tiling → scratchpad →
        mapping run for the seed compile, once per evaluation to price it and
        once per evaluation on the *check* program to spot-check it — the
        measuring backend replays what the model already mapped from the
        session's artifact memo and runs only its lowering pass."""
        kernel = get_kernel("matmul")
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
            assert runs.counts[stage] == 1 + evaluations + evaluations  # 7; 10 without the memo
        assert runs.counts["lower-py-vec"] == measured
        assert runs.counts["analysis"] == 2  # the program and its check twin

    def test_hybrid_baseline_is_remeasured_for_comparable_speedups(self):
        report = autotune(
            matmul(16),
            space_options=WIDE_SPACE,
            backend="hybrid:model>measure-py:warmup=0,repeat=2?top=2",
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
        # 0.001 model-ms would "win" a naive comparison against 50 wall-ms
        best = backend.select_best([measured, model_priced])
        assert best is measured


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
        base = tuning_fingerprint(program, space_options=TINY_SPACE, backend=FAST_PY)
        other_repeat = tuning_fingerprint(
            program, space_options=TINY_SPACE, backend="measure-py:warmup=0,repeat=3"
        )
        other_seed = tuning_fingerprint(
            program, space_options=TINY_SPACE, backend=FAST_PY, seed=1
        )
        assert len({base, other_repeat, other_seed}) == 3
        # the model ignores the seed (deterministic pricing, pruned strategy)
        assert tuning_fingerprint(program, space_options=TINY_SPACE) == (
            tuning_fingerprint(program, space_options=TINY_SPACE, seed=1)
        )

    #: jacobi1d-64 / TINY_SPACE / seed 3 at the last commit whose ``measure-py``
    #: signature carried no lowering revision
    BEFORE_THE_REVISION = {
        None: "fb236c255c11b0bc13b57d7323b66e630ab6ec06a450a45e6d97f3108375da2f",
        FAST_PY: "039ff3cfc01d8a104aab6e7a9ec8989842c4d1811b869e7f9a3e87678ebce5f3",
        "hybrid:model>measure-py?top=4": (
            "ef256fa7bf4923fb073b8eeef8be11ec17217b3b7014bb28dec408bf9db0d7ee"
        ),
        "measure-py:vectorize=off": (
            "5b578ab60949b54e2016886256dd35764a0883f45c1e094f18aff5e48a476486"
        ),
    }

    def test_the_lowering_revision_moves_exactly_the_measured_fingerprints(self, monkeypatch):
        program = get_kernel("jacobi1d").build(size=64)

        def keys():
            return {
                backend: tuning_fingerprint(
                    program, space_options=TINY_SPACE, backend=backend, seed=3
                )
                for backend in self.BEFORE_THE_REVISION
            }

        now = keys()
        assert now[None] == self.BEFORE_THE_REVISION[None]  # model: entries stay warm
        for backend in list(self.BEFORE_THE_REVISION)[1:]:
            assert now[backend] != self.BEFORE_THE_REVISION[backend]
        # ... and by nothing but the revision: without it the old keys come back
        signature = MeasuredPythonBackend.signature
        monkeypatch.setattr(
            MeasuredPythonBackend,
            "signature",
            lambda self: {k: v for k, v in signature(self).items() if k != "lowering"},
        )
        assert keys() == self.BEFORE_THE_REVISION
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

    def test_inspect_stages_shows_lower_py_timings(self, capsys):
        from repro.autotune.cli import inspect_stages_main

        assert inspect_stages_main(["matmul", "--size", "m=16", "n=16", "k=16"]) == 0
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
