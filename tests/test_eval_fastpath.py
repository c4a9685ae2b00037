"""Tests of the ISSUE-8 evaluation fast path.

Four layers, each pinned here:

* the on-disk **compile cache** behind ``measure-c:`` (hit/miss/evict
  semantics, URI options, one ``cc`` invocation per shared artifact even
  across forked worker processes);
* the cross-request **artifact cache** (validated adoption keyed on
  ``base_fingerprint``; a repeat ``autotune`` request runs analysis zero
  times);
* the per-request **measurement memo** plus the ``workers=`` parallel
  measurement mode (timed sections serialize under ``TIMED_SECTION_LOCK``,
  so ``workers`` never fingerprints);
* the **vectorised lower-py** terminal pass (numpy-backed source that is
  behaviourally identical to the scalar artifact, with a scalar fallback
  when numpy is absent).

Plus the satellite fixes: the hybrid's finalize re-measuring an
already-measured config memo-hits instead of paying another run, and a
``measure-c`` compile failure becomes an infeasible measurement carrying the
truncated compiler stderr.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import warnings

import numpy as np
import pytest

from repro.codegen import emit_python_source, emit_python_source_vectorized
from repro.codegen.compile_cache import (
    COMPILE_CACHE_TOTAL,
    CompileCache,
    binary_key,
    default_cache_root,
    open_compile_cache,
)
from repro.codegen.toolchain import c_toolchain_skip_reason, find_c_compiler
from repro.compiler import (
    DEFAULT_PASSES,
    CompilationSession,
    counting_stage_runs,
)
from repro.compiler.artifact_cache import ARTIFACT_CACHE_TOTAL, ArtifactCache
from repro.kernels.registry import get_kernel
from repro.machine.spec import GEFORCE_8800_GTX
from repro.runtime.interpreter import run_program
from repro.autotune import ConfigurationEvaluator, SpaceOptions, autotune
from repro.autotune.backends import (
    MeasuredCBackend,
    MeasuredPythonBackend,
    parse_backend_uri,
)
from repro.autotune.backends.base import MEASURE_MEMO_TOTAL
from repro.autotune.session import MEASURE_PARALLELISM
from repro.autotune.space import Configuration

requires_c_toolchain = pytest.mark.skipif(
    c_toolchain_skip_reason() is not None,
    reason=c_toolchain_skip_reason() or "C toolchain present",
)

TINY_SPACE = SpaceOptions(
    thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
)
#: a single-candidate space, for subprocess tunes that must stay fast
ONE_SPACE = SpaceOptions(
    thread_counts=(16,),
    block_counts=(4,),
    scratchpad_choices=(False,),
    tile_candidates_per_geometry=1,
)
FAST_PY = "measure-py:warmup=0,repeat=2"


def matmul(n: int = 8):
    return get_kernel("matmul").build(m=n, n=n, k=n)


def prepared_backend(backend, program):
    """A (backend, session, valid configuration) triple ready to measure."""
    session = CompilationSession(program)
    backend.prepare(session, GEFORCE_8800_GTX)
    mapped = session.compile()
    config = Configuration.from_options(session.options, mapped.tile_sizes)
    return session, config


# -- the compile cache (unit) ------------------------------------------------------
class TestCompileCache:
    def test_miss_compiles_then_hit_reuses(self, tmp_path):
        cache = CompileCache(tmp_path / "bin", capacity=8)
        compiles = []

        def build(target):
            compiles.append(target)
            target.write_text("#!/bin/sh\n")

        hits = COMPILE_CACHE_TOTAL.value(outcome="hit")
        misses = COMPILE_CACHE_TOTAL.value(outcome="miss")
        key = binary_key("int main(){}", "cc", "-O2")
        first, outcome1 = cache.get_or_compile(key, build)
        second, outcome2 = cache.get_or_compile(key, build)
        assert (outcome1, outcome2) == ("miss", "hit")
        assert first == second and first.read_text() == "#!/bin/sh\n"
        assert len(compiles) == 1
        assert COMPILE_CACHE_TOTAL.value(outcome="miss") == misses + 1
        assert COMPILE_CACHE_TOTAL.value(outcome="hit") == hits + 1

    def test_eviction_drops_least_recently_used(self, tmp_path):
        cache = CompileCache(tmp_path / "bin", capacity=2)
        keys = [binary_key(f"src{i}", "cc", "-O2") for i in range(3)]
        paths = []
        for index, key in enumerate(keys):
            path, _ = cache.get_or_compile(key, lambda t: t.write_text("x"))
            # explicit, strictly increasing recency (filesystem mtime
            # granularity is too coarse to rely on)
            os.utime(path, (index, index))
            paths.append(path)
        assert not paths[0].exists()  # the oldest fell out
        assert paths[1].exists() and paths[2].exists()
        assert len(cache.entries()) == 2

    def test_binary_key_separates_source_compiler_and_flags(self):
        base = binary_key("src", "cc", "-O2")
        assert binary_key("src2", "cc", "-O2") != base
        assert binary_key("src", "gcc", "-O2") != base
        assert binary_key("src", "cc", "-O3") != base
        assert binary_key("src", "cc", "-O2") == base

    def test_open_compile_cache_off_path_and_env_default(self, tmp_path, monkeypatch):
        assert open_compile_cache("off") is None
        assert open_compile_cache(" OFF ") is None
        relocated = open_compile_cache(str(tmp_path / "elsewhere"))
        assert relocated.root == tmp_path / "elsewhere"
        monkeypatch.setenv("REPRO_COMPILE_CACHE", str(tmp_path / "env-root"))
        assert default_cache_root() == tmp_path / "env-root"
        assert open_compile_cache(None).root == tmp_path / "env-root"

    def test_rejects_nonpositive_capacity(self, tmp_path):
        with pytest.raises(ValueError, match="capacity must be positive"):
            CompileCache(tmp_path, capacity=0)

    def test_failed_compile_installs_nothing(self, tmp_path):
        cache = CompileCache(tmp_path / "bin", capacity=8)
        key = binary_key("broken", "cc", "-O2")

        def explode(target):
            raise RuntimeError("cc said no")

        with pytest.raises(RuntimeError, match="cc said no"):
            cache.get_or_compile(key, explode)
        assert cache.entries() == []
        # the key stays compilable once the failure is fixed
        _, outcome = cache.get_or_compile(key, lambda t: t.write_text("x"))
        assert outcome == "miss"


# -- the measurement memo ----------------------------------------------------------
class TestMeasurementMemo:
    def test_identical_configs_within_a_request_measure_once(self):
        backend = MeasuredPythonBackend(warmup=0, repeat=2)
        _, config = prepared_backend(backend, matmul(8))
        hits = MEASURE_MEMO_TOTAL.value(outcome="hit")
        with counting_stage_runs() as runs:
            first = backend.measure(config)
            second = backend.measure(config)
        assert runs.counts.get("lower-py-vec", 0) == 1  # one replay, one run
        assert MEASURE_MEMO_TOTAL.value(outcome="hit") == hits + 1
        assert second.time_ms == first.time_ms
        # hits are copies: callers stamping metadata never corrupt the memo
        second.metadata["model_time_ms"] = 123.0
        third = backend.measure(config)
        assert "model_time_ms" not in third.metadata

    def test_prepare_resets_the_memo(self):
        backend = MeasuredPythonBackend(warmup=0, repeat=2)
        session, config = prepared_backend(backend, matmul(8))
        backend.measure(config)
        backend.prepare(session, GEFORCE_8800_GTX)  # a new request
        misses = MEASURE_MEMO_TOTAL.value(outcome="miss")
        backend.measure(config)
        assert MEASURE_MEMO_TOTAL.value(outcome="miss") == misses + 1

    def test_memo_does_not_travel_through_pickling(self):
        backend = MeasuredPythonBackend(warmup=0, repeat=2)
        _, config = prepared_backend(backend, matmul(8))
        backend.measure(config)
        clone = pickle.loads(pickle.dumps(backend))
        assert clone._memo == {}

    def test_hybrid_finalize_remeasures_a_revisited_baseline_once(self):
        """The satellite pin: hill-climb style revisits plus the ``ensure``
        baseline used to cost one wall-clock run *each*; now every duplicate
        after the first is a memo hit."""
        program = matmul(8)
        backend = parse_backend_uri("hybrid:model>measure-py:warmup=0,repeat=2?top=4")
        evaluator = ConfigurationEvaluator(program, backend=backend)
        mapped = evaluator.session.compile()
        config = Configuration.from_options(evaluator.session.options, mapped.tile_sizes)
        seed_result = evaluator.evaluate(config)  # model-priced search result
        hits = MEASURE_MEMO_TOTAL.value(outcome="hit")
        with counting_stage_runs() as runs:
            finalized = evaluator.finalize(
                [seed_result, seed_result], ensure=(config,)
            )
        assert runs.counts.get("lower-py-vec", 0) == 1
        assert MEASURE_MEMO_TOTAL.value(outcome="hit") == hits + 1
        assert [r.measurement.kind for r in finalized] == ["measured-py"] * 2
        # both carry the model provenance stamp, on independent metadata dicts
        assert all(
            r.measurement.metadata["model_time_ms"] == seed_result.time_ms
            for r in finalized
        )
        assert (
            finalized[0].measurement.metadata
            is not finalized[1].measurement.metadata
        )


# -- parallel measurement ----------------------------------------------------------
class TestParallelMeasurement:
    def test_workers_and_vectorize_options_parse_and_round_trip(self):
        backend = parse_backend_uri("measure-py:warmup=0,repeat=2,workers=4")
        assert backend.workers == 4
        assert backend.measurement_workers == 4
        assert "workers=4" in backend.uri()
        again = parse_backend_uri(backend.uri())
        assert again.workers == 4 and again.signature() == backend.signature()

    def test_workers_never_fingerprint_but_vectorize_does(self):
        serial = parse_backend_uri(FAST_PY)
        parallel = parse_backend_uri(FAST_PY + ",workers=4")
        scalar = parse_backend_uri(FAST_PY + ",vectorize=off")
        assert parallel.signature() == serial.signature()
        assert scalar.signature() != serial.signature()
        assert "vectorize=off" in scalar.uri()

    def test_rejects_bad_workers_and_vectorize(self):
        with pytest.raises(ValueError, match="workers must be positive"):
            parse_backend_uri("measure-py:workers=0")
        with pytest.raises(ValueError, match="vectorize must be one of"):
            parse_backend_uri("measure-py:vectorize=maybe")

    def test_vectorize_choice_selects_the_lowering_stage(self):
        assert MeasuredPythonBackend(vectorize="auto")._stage == "lower-py-vec"
        assert MeasuredPythonBackend(vectorize="on")._stage == "lower-py-vec"
        assert MeasuredPythonBackend(vectorize="off")._stage == "lower-py"

    def test_parallel_request_is_not_serialized_and_sets_the_gauge(self):
        program = matmul(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = autotune(
                program,
                space_options=TINY_SPACE,
                backend=FAST_PY + ",workers=3",
                max_workers=8,
            )
        assert MEASURE_PARALLELISM.value() == 3  # min(max_workers, workers)
        assert report.best.measurement.kind == "measured-py"
        # the parallel request answers under the same fingerprint as serial
        serial = autotune(program, space_options=TINY_SPACE, backend=FAST_PY)
        assert report.fingerprint == serial.fingerprint
        assert len(report.results) == len(serial.results)

    def test_scalar_lowering_still_works_under_vectorize_off(self):
        report = autotune(
            matmul(8), space_options=TINY_SPACE, backend=FAST_PY + ",vectorize=off"
        )
        assert report.best.measurement.metadata["lowering"] == "lower-py"


# -- the vectorised lowering -------------------------------------------------------
class TestVectorisedLowering:
    def _run_emitted(self, program, source):
        namespace = {}
        exec(compile(source, "<vec-test>", "exec"), namespace)
        rng = np.random.default_rng(0)
        inputs = {
            a.name: rng.random(tuple(a.shape))
            for a in program.arrays.values()
            if not a.is_local
        }
        arrays = {k: v.copy() for k, v in inputs.items()}
        namespace["kernel"](arrays, {})
        return inputs, arrays

    @pytest.mark.parametrize("kernel_name,sizes", [
        ("matmul", {"m": 8, "n": 8, "k": 8}),
        ("jacobi1d", {"size": 32}),
    ])
    def test_vectorised_stage_artifact_matches_the_interpreter(
        self, kernel_name, sizes
    ):
        program = get_kernel(kernel_name).build(**sizes)
        session = CompilationSession(
            program, passes=(*DEFAULT_PASSES, "lower-py-vec")
        )
        session.compile()
        source = session.artifact("lower-py-vec").value
        assert "import numpy as _np" in source
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
        reference = run_program(
            program, inputs={k: v.copy() for k, v in inputs.items()}
        )
        for a in program.arrays.values():
            if not a.is_local:
                assert np.allclose(reference.data(a.name), arrays[a.name])

    def test_vectorised_source_actually_uses_numpy(self):
        program = get_kernel("matmul").build(m=8, n=8, k=8)
        session = CompilationSession(program, passes=(*DEFAULT_PASSES, "lower-py-vec"))
        session.compile()
        source = session.artifact("lower-py-vec").value
        body = source[source.index("def kernel") :]
        # the k loop really became one numpy reduction — over proven slices,
        # with nothing left to round, test or gather at run time
        assert "+= float(_np.sum((l_A[" in body and ":_hi - " in body
        for needle in ("Fraction(", "_ceil(", "_floor(", "_np.arange", ">= 0", "== 0"):
            assert needle not in body, needle

    def test_scalar_fallback_when_numpy_is_absent(self, monkeypatch):
        import builtins

        program = get_kernel("matmul").build(m=4, n=4, k=4)
        real_import = builtins.__import__

        def no_numpy(name, *args, **kwargs):
            if name == "numpy":
                raise ImportError("numpy removed for this test")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_numpy)
        fallback = emit_python_source_vectorized(program)
        assert fallback == emit_python_source(program)


# -- the artifact cache ------------------------------------------------------------
class TestArtifactCache:
    def test_publish_then_adopt_skips_analysis(self):
        cache = ArtifactCache(capacity=4)
        donor = CompilationSession(matmul(8))
        donor.analysis()
        assert cache.publish(donor) == ["analysis"]

        adopter = CompilationSession(matmul(8))
        hits = ARTIFACT_CACHE_TOTAL.value(outcome="hit")
        with counting_stage_runs() as runs:
            installed = cache.adopt(adopter)
            adopter.analysis()
        assert installed == ["analysis"]
        assert runs.counts.get("analysis", 0) == 0
        assert ARTIFACT_CACHE_TOTAL.value(outcome="hit") == hits + 1

    def test_different_identity_misses(self):
        cache = ArtifactCache(capacity=4)
        donor = CompilationSession(matmul(8))
        donor.analysis()
        cache.publish(donor)
        misses = ARTIFACT_CACHE_TOTAL.value(outcome="miss")
        stranger = CompilationSession(matmul(16))
        assert cache.adopt(stranger) == []
        assert ARTIFACT_CACHE_TOTAL.value(outcome="miss") == misses + 1

    def test_install_rejects_tampered_fingerprints(self):
        donor = CompilationSession(matmul(8))
        donor.analysis()
        artifact = donor.config_invariant_artifacts()["analysis"]
        forged = dataclasses.replace(artifact, fingerprint="0" * 40)
        adopter = CompilationSession(matmul(8))
        assert adopter.install_artifacts({"analysis": forged}) == []
        assert adopter.install_artifacts({"analysis": artifact}) == ["analysis"]

    def test_lru_capacity_bounds_identities(self):
        cache = ArtifactCache(capacity=1)
        for n in (8, 16):
            session = CompilationSession(matmul(n))
            session.analysis()
            cache.publish(session)
        assert len(cache) == 1

    def test_repeat_autotune_request_runs_analysis_zero_times(self):
        cache = ArtifactCache()
        cold = autotune(matmul(16), space_options=TINY_SPACE, artifact_cache=cache)
        with counting_stage_runs() as runs:
            warm = autotune(
                matmul(16), space_options=TINY_SPACE, artifact_cache=cache
            )
        assert runs.counts.get("analysis", 0) == 0
        assert warm.fingerprint == cold.fingerprint
        assert warm.best.configuration == cold.best.configuration

    def test_sharing_stays_opt_in(self):
        autotune(matmul(16), space_options=TINY_SPACE)
        with counting_stage_runs() as runs:
            autotune(matmul(16), space_options=TINY_SPACE)
        assert runs.counts["analysis"] == 1  # the honest per-request default


# -- measure-c fast path (needs a toolchain) ---------------------------------------
def _count_cc_wrapper(tmp_path):
    """A ``cc`` wrapper that appends one line to a log per invocation."""
    real = find_c_compiler()
    log = tmp_path / "cc.log"
    wrapper = tmp_path / "counting-cc"
    wrapper.write_text(f'#!/bin/sh\necho x >> "{log}"\nexec "{real}" "$@"\n')
    wrapper.chmod(0o755)
    return wrapper, log


def _cc_invocations(log):
    return len(log.read_text().splitlines()) if log.exists() else 0


def _tune_measure_c(payload):
    """Module-level so a forked worker can run one measure-c tune."""
    backend_uri, size = payload
    from repro.autotune import SpaceOptions, autotune
    from repro.kernels.registry import get_kernel

    program = get_kernel("matmul").build(m=size, n=size, k=size)
    report = autotune(
        program,
        space_options=SpaceOptions(
            thread_counts=(16,),
            block_counts=(4,),
            scratchpad_choices=(False,),
            tile_candidates_per_geometry=1,
        ),
        backend=backend_uri,
    )
    return report.best.time_ms


@requires_c_toolchain
class TestMeasureCFastPath:
    def test_warm_request_skips_every_cc_invocation(self, tmp_path):
        wrapper, log = _count_cc_wrapper(tmp_path)
        backend = f"measure-c:cc={wrapper},warmup=0,repeat=1,cache={tmp_path / 'bin'}"
        autotune(matmul(8), space_options=ONE_SPACE, backend=backend)
        cold = _cc_invocations(log)
        assert cold >= 1
        autotune(matmul(8), space_options=ONE_SPACE, backend=backend)
        assert _cc_invocations(log) == cold  # warm request: zero compiles

    def test_cache_off_recompiles_every_request(self, tmp_path):
        wrapper, log = _count_cc_wrapper(tmp_path)
        backend = f"measure-c:cc={wrapper},warmup=0,repeat=1,cache=off"
        autotune(matmul(8), space_options=ONE_SPACE, backend=backend)
        cold = _cc_invocations(log)
        autotune(matmul(8), space_options=ONE_SPACE, backend=backend)
        assert _cc_invocations(log) == 2 * cold

    def test_cache_options_round_trip_without_fingerprinting(self, tmp_path):
        cached = parse_backend_uri(f"measure-c:cache={tmp_path / 'bin'},cache_limit=7")
        assert cached.cache_limit == 7
        assert f"cache={tmp_path / 'bin'}" in cached.uri()
        assert "cache_limit=7" in cached.uri()
        again = parse_backend_uri(cached.uri())
        assert again.cache_spec == cached.cache_spec
        # where a binary came from cannot change what it measures
        assert cached.signature() == parse_backend_uri("measure-c:").signature()

    def test_two_forked_workers_share_one_cc_invocation_per_artifact(
        self, tmp_path
    ):
        """The cross-process proof: both workers tune the same kernel against
        one shared cache; the sidecar lock guarantees exactly one ``cc`` run
        per distinct harness, fleet-wide."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        wrapper, log = _count_cc_wrapper(tmp_path)
        backend = f"measure-c:cc={wrapper},warmup=0,repeat=1,cache={tmp_path / 'bin'}"
        context = multiprocessing.get_context("fork")
        with context.Pool(2) as pool:
            times = pool.map(_tune_measure_c, [(backend, 8), (backend, 8)])
        assert len(times) == 2
        cache = CompileCache(tmp_path / "bin")
        binaries = len(cache.entries())
        assert binaries >= 1
        assert _cc_invocations(log) == binaries

    def test_compile_failure_is_infeasible_with_truncated_stderr(
        self, tmp_path, monkeypatch
    ):
        backend = MeasuredCBackend(warmup=0, repeat=1, cache=str(tmp_path / "bin"))
        _, config = prepared_backend(backend, matmul(8))
        from repro.autotune.backends import measured_c

        monkeypatch.setattr(
            measured_c,
            "emit_c_harness",
            lambda program, **kwargs: "int main(void) { this is not C }\n",
        )
        measurement = backend.measure(config)  # must not raise
        assert measurement.feasible is False
        assert measurement.kind == "measured-c"
        assert "C compilation failed" in measurement.error
        stderr = measurement.metadata["compiler_stderr"]
        assert stderr and len(stderr) <= 2000
        assert measurement.metadata["compile_command"][0] == find_c_compiler()
        # nothing half-built got installed under the failing key
        assert CompileCache(tmp_path / "bin").entries() == []
