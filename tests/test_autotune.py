"""Tests of the ``repro.autotune`` subsystem (space, search, cache, session)."""

from __future__ import annotations

import dataclasses
import inspect
import json
import time
import warnings

import numpy as np
import pytest

from repro import CompilationSession, MappingOptions, autotune, counting_compiles
from repro.autotune import (
    Configuration,
    ConfigurationEvaluator,
    ConfigurationSpace,
    EvaluationResult,
    ExecutorFallbackWarning,
    ExhaustiveSearch,
    PrunedGridSearch,
    RandomHillClimbSearch,
    SpaceOptions,
    TuningCache,
    TuningJob,
    TuningProblem,
    TuningReport,
    autotune_batch,
    best_result,
    fingerprint,
    resolve_strategy,
    tune,
)
from repro.autotune.cli import main as cli_main
from repro.kernels import available_kernels, build_matmul_program, get_kernel
from repro.machine import GEFORCE_8800_GTX

SMALL_SPACE = SpaceOptions(
    thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
)
GRID_SPACE = SpaceOptions(
    thread_counts=(64, 128), block_counts=(16, 32), tile_candidates_per_geometry=2
)


@pytest.fixture(scope="module")
def matmul():
    return build_matmul_program(32, 32, 32)


# -- configuration -----------------------------------------------------------------
class TestConfiguration:
    def test_round_trips_through_dict(self):
        config = Configuration.make(32, 128, {"i": 8, "j": 16}, use_scratchpad=False)
        assert Configuration.from_dict(config.to_dict()) == config

    def test_key_is_stable_and_readable(self):
        config = Configuration.make(32, 128, {"j": 16, "i": 8})
        assert config.key() == "b32.t128.i8_j16.spm"

    def test_to_options_carries_base_policy(self):
        base = MappingOptions(delta=0.25, liveness=True)
        options = Configuration.make(8, 64, {"i": 4}).to_options(base)
        assert options.num_blocks == 8
        assert options.threads_per_block == 64
        assert options.tile_sizes == {"i": 4}
        assert options.delta == 0.25 and options.liveness is True


# -- space -------------------------------------------------------------------------
class TestConfigurationSpace:
    def test_seed_configuration_matches_pipeline_choice(self, matmul):
        space = ConfigurationSpace(matmul, space_options=SMALL_SPACE)
        seed = space.seed_configuration()
        mapped = CompilationSession(matmul).compile()
        assert seed.tile_dict == mapped.tile_sizes
        assert seed.num_blocks == 32 and seed.threads_per_block == 256

    def test_enumerate_starts_with_seed_and_prunes(self, matmul):
        space = ConfigurationSpace(matmul, space_options=GRID_SPACE)
        configs = space.enumerate()
        assert configs[0] == space.seed_configuration()
        assert len(configs) == len(set(configs))
        for config in configs[1:]:
            model = space.cost_model(config.num_blocks, config.threads_per_block)
            sizes = config.tile_dict
            assert model.work_per_tile(sizes) >= config.threads_per_block
            assert model.footprint_bytes(sizes) <= space.memory_limit(config.num_blocks)

    def test_neighbours_are_feasible_one_knob_moves(self, matmul):
        space = ConfigurationSpace(matmul, space_options=GRID_SPACE)
        config = space.enumerate()[1]
        for neighbour in space.neighbours(config):
            assert neighbour != config
            model = space.cost_model(neighbour.num_blocks, neighbour.threads_per_block)
            assert model.work_per_tile(neighbour.tile_dict) >= neighbour.threads_per_block


# -- evaluation --------------------------------------------------------------------
class TestEvaluator:
    def test_infeasible_configuration_is_reported_not_raised(self):
        program = build_matmul_program(64, 64, 64)
        evaluator = ConfigurationEvaluator(program)
        # A giant tile cannot fit any block in the 16 KB scratchpad.
        result = evaluator.evaluate(Configuration.make(1, 64, {"i": 64, "j": 64, "k": 64}))
        assert not result.feasible
        assert result.error
        assert result.time_ms == float("inf")

    def test_spot_check_confirms_correct_mapping(self):
        kernel = get_kernel("matmul")
        program = kernel.build_check()
        evaluator = ConfigurationEvaluator(program, check_correctness=True, seed=3)
        result = evaluator.evaluate(Configuration.make(4, 16, {"i": 4, "j": 4, "k": 8}))
        assert result.feasible
        assert result.correct is None  # the search costs; only selection checks
        assert evaluator.spot_check(result.configuration) is True

    def test_shared_reference_still_fails_a_corrupted_candidate(self, monkeypatch):
        """One reference interpretation per evaluator; every candidate compared in full."""
        import dataclasses
        import pickle

        from repro.autotune import evaluate as evaluate_module
        from repro.compiler import CompilationSession
        from repro.ir.ast import COMPUTE, StatementNode

        good = Configuration.make(4, 16, {"i": 4, "j": 4, "k": 8})
        bad = Configuration.make(4, 16, {"i": 8, "j": 4, "k": 8})
        replay = CompilationSession.replay

        def corrupting_replay(self, from_stage="tiling", config=None, options=None):
            mapped = replay(self, from_stage=from_stage, config=config, options=options)
            if config == bad:  # perturb one compute statement's right-hand side
                node = next(
                    n for n in mapped.program.body.walk()
                    if isinstance(n, StatementNode) and n.kind == COMPUTE
                )
                node.statement = dataclasses.replace(
                    node.statement, rhs=node.statement.rhs + 1.0
                )
            return mapped

        interpreted = []
        run_program = evaluate_module.run_program

        def counting_run_program(program, **kwargs):
            interpreted.append(program.name)
            return run_program(program, **kwargs)

        monkeypatch.setattr(CompilationSession, "replay", corrupting_replay)
        monkeypatch.setattr(evaluate_module, "run_program", counting_run_program)

        program = get_kernel("matmul").build_check()
        evaluator = ConfigurationEvaluator(program, check_correctness=True, seed=3)
        assert evaluator.spot_check(good) is True
        assert evaluator.spot_check(bad) is False
        assert evaluator.spot_check(good) is True  # the reference was not disturbed
        # the reference once, each candidate's mapped program every time
        assert interpreted.count(program.name) == 1 and len(interpreted) == 4
        inputs, expected = evaluator._reference
        assert set(expected) == {a.name for a in program.arrays.values() if not a.is_local}
        assert not any(a.flags.writeable for a in (*inputs.values(), *expected.values()))

        # a pool worker's copy re-interprets the reference and reaches both verdicts
        restored = pickle.loads(pickle.dumps(evaluator))
        assert restored._reference is None
        del interpreted[:]
        assert restored.spot_check(bad) is False
        assert restored.spot_check(good) is True
        assert interpreted.count(program.name) == 1 and len(interpreted) == 3

    def test_best_result_breaks_ties_on_key(self):
        tie = lambda tiles: EvaluationResult(
            configuration=Configuration.make(16, 64, tiles),
            time_ms=1.0, cycles=1350.0, feasible=True,
        )
        winner = best_result([tie({"i": 8}), tie({"i": 4})])
        assert winner.configuration.tile_dict == {"i": 4}

    def test_best_result_never_returns_a_failed_spot_check(self):
        fast_but_wrong = EvaluationResult(
            configuration=Configuration.make(16, 64, {"i": 4}),
            time_ms=0.5, cycles=675.0, feasible=True, correct=False,
        )
        slow_but_right = EvaluationResult(
            configuration=Configuration.make(16, 64, {"i": 8}),
            time_ms=2.0, cycles=2700.0, feasible=True, correct=True,
        )
        winner = best_result([fast_but_wrong, slow_but_right])
        assert winner.configuration.tile_dict == {"i": 8}

    def test_no_feasible_result_raises(self):
        infeasible = EvaluationResult(
            configuration=Configuration.make(1, 64, {"i": 64}),
            time_ms=float("inf"), cycles=float("inf"), feasible=False,
        )
        with pytest.raises(ValueError):
            best_result([infeasible])


# -- session / acceptance ----------------------------------------------------------
class TestAutotuneSession:
    def test_best_not_worse_than_seed_pipeline_default(self, matmul):
        report = autotune(matmul, space_options=GRID_SPACE)
        assert report.best.feasible
        assert report.best.cycles <= report.baseline.cycles
        assert report.best.time_ms <= report.baseline.time_ms
        assert report.speedup_over_baseline >= 1.0

    def test_cache_miss_when_correctness_check_requested(self, tmp_path):
        program = build_matmul_program(8, 8, 8)
        cache = TuningCache(tmp_path / "cache.json")
        unchecked = autotune(program, space_options=SMALL_SPACE, cache=cache)
        checked = autotune(
            program, space_options=SMALL_SPACE, cache=cache, check_correctness=True
        )
        assert not checked.from_cache  # a report without spot-checks must not satisfy it
        assert checked.fingerprint != unchecked.fingerprint
        assert checked.best.correct is True

    def test_warm_cache_round_trip_zero_compiles(self, matmul, tmp_path):
        path = tmp_path / "cache.json"
        cold = autotune(matmul, space_options=SMALL_SPACE, cache=TuningCache(path))
        assert not cold.from_cache

        with counting_compiles() as compiles:
            warm = autotune(matmul, space_options=SMALL_SPACE, cache=TuningCache(path))
        assert compiles.count == 0
        assert warm.from_cache
        assert warm.to_dict() == cold.to_dict()

    def test_parallel_report_identical_to_serial(self, matmul):
        serial = autotune(matmul, space_options=GRID_SPACE, max_workers=1)
        parallel = autotune(matmul, space_options=GRID_SPACE, max_workers=4)
        assert parallel.to_dict() == serial.to_dict()

    def test_process_pool_report_identical_to_serial(self, matmul):
        """Workers send their metrics and spans home: the pool's report,
        compile count, stage counts and traced (kind, name) multiset are the
        serial run's, every candidate nested under the search span."""
        from collections import Counter

        from repro.compiler import counting_stage_runs
        from repro.telemetry import trace

        kernel = get_kernel("matmul")

        def tuned(workers):
            with trace.capture_trace() as collector, counting_compiles() as compiles, \
                    counting_stage_runs() as stages, warnings.catch_warnings():
                warnings.simplefilter("error", ExecutorFallbackWarning)  # the pool really runs
                report = autotune(
                    matmul, space_options=SMALL_SPACE, max_workers=workers,
                    check_correctness=True, check_program=kernel.build_check(),
                )
            (request,) = collector.roots
            (search,) = [s for s in request.children if s.kind == "search"]
            spans = Counter((s.kind, s.name) for s, _ in trace.iter_spans(collector.roots))
            under_search = Counter((s.kind, s.name) for s, _ in trace.iter_spans([search]))
            assert spans[("candidate", "candidate")] == report.num_evaluations
            assert under_search[("candidate", "candidate")] == report.num_evaluations
            return report.to_dict(), compiles.count, stages.counts, spans, under_search

        serial, parallel = tuned(1), tuned(2)
        assert serial[1] > 0
        assert parallel == serial

    def test_process_pool_hybrid_report_matches_serial(self):
        """Pool workers receive pickled sessions whose copy loops are not yet
        scanned; the mappings they price, and the lowerings the re-rank
        measures and the spot-check runs, splice them on demand, so the
        report is the serial one, every counted time included: the crown
        (and so the one spot-checked
        verdict) cannot depend on which run was faster.

        The stage counts differ, and this pins by how much: the re-rank runs
        in the parent after the search, and the mapped artifacts of its
        K + 1 re-measured candidates stayed in the workers, so the parent
        runs tiling, scratchpad and mapping once more for each of them."""
        from repro.compiler import counting_stage_runs

        kernel = get_kernel("matmul")
        top = 2

        def tuned(workers):
            with warnings.catch_warnings(), counting_stage_runs() as stages:
                warnings.simplefilter("error", ExecutorFallbackWarning)
                report = autotune(
                    kernel.build(m=16, n=16, k=16),
                    space_options=SMALL_SPACE,
                    backend=f"hybrid:model>measure-py?top={top}",
                    check_correctness=True,
                    check_program=kernel.build_check(),
                    max_workers=workers,
                )
            assert not report.from_cache
            return [
                (
                    r.configuration, r.feasible, r.correct, r.shared_bytes_per_block,
                    r.measurement.kind, r.time_ms,
                    r.measurement.metadata.get("model_time_ms", r.time_ms),
                )
                for r in (report.baseline, *report.results)
            ], dict(stages.counts)

        (parallel, parallel_stages), (serial, serial_stages) = tuned(2), tuned(1)
        assert parallel == serial
        rederived = {stage: serial_stages[stage] + top + 1 for stage in ("tiling", "scratchpad", "mapping")}
        assert parallel_stages == {**serial_stages, **rederived}

    def test_unpicklable_evaluator_is_evaluated_serially(self, matmul, monkeypatch):
        import io
        import threading

        from repro.autotune import PooledBatchEvaluator
        from repro.autotune.space import ConfigurationSpace
        from repro.telemetry import events

        stream = io.StringIO()
        monkeypatch.setattr(events, "EVENTS", events.EventLog(json_mode=True, stream=stream))
        evaluator = ConfigurationEvaluator(matmul)
        evaluator.poison = lambda: None  # lambdas cannot pickle
        with pytest.warns(RuntimeWarning, match="evaluating serially"):
            batch = PooledBatchEvaluator(evaluator, max_workers=2)
        assert batch.max_workers == 1
        # the fallback also speaks through the event log, at the default threshold
        (record,) = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert record["event"] == "executor.fallback" and record["level"] == "warning"
        assert record["error"] in ("PicklingError", "AttributeError", "TypeError")
        space = ConfigurationSpace(matmul, space_options=SMALL_SPACE)
        evaluated_on = []
        evaluate = evaluator.evaluate
        evaluator.evaluate = lambda config: evaluated_on.append(threading.get_ident()) or evaluate(config)
        with batch:
            results = batch(space.enumerate()[:3])
        assert batch._pool is None  # no pool was ever started
        assert evaluated_on == [threading.get_ident()] * 3
        assert len(results) == 3 and all(r.feasible for r in results)

    def test_hillclimb_is_seeded_and_parallel_safe(self, matmul):
        strategy = RandomHillClimbSearch(seed=11, restarts=1, max_steps=1)
        one = autotune(matmul, space_options=SMALL_SPACE, strategy=strategy, max_workers=1)
        two = autotune(matmul, space_options=SMALL_SPACE, strategy=strategy, max_workers=3)
        assert one.to_dict() == two.to_dict()
        assert one.strategy == "hillclimb"

    def test_exhaustive_covers_at_least_the_pruned_grid(self):
        program = build_matmul_program(16, 16, 16)
        pruned = autotune(program, space_options=SMALL_SPACE, strategy="pruned")
        exhaustive = autotune(program, space_options=SMALL_SPACE, strategy="exhaustive")
        assert exhaustive.num_evaluations >= pruned.num_evaluations
        assert exhaustive.best.time_ms <= pruned.best.time_ms

    def test_best_configuration_replays_through_pipeline(self, matmul):
        report = autotune(matmul, space_options=SMALL_SPACE)
        mapped = CompilationSession(matmul).replay(
            from_stage="tiling", config=report.best.configuration
        )
        assert mapped.tile_sizes == report.best.configuration.tile_dict
        assert mapped.tile_search is None  # the search never ran on replay

    def test_batch_tunes_many_problem_sizes_with_shared_cache(self, tmp_path):
        """A warm batch re-opens the cache: no compile, the cold reports, and
        at least 10x faster than tuning them."""
        cache = TuningCache(tmp_path / "batch.json")
        jobs = [
            TuningJob(build_matmul_program(32, 32, 32), label="small"),
            TuningJob(build_matmul_program(64, 64, 64), label="large"),
        ]
        start = time.perf_counter()
        with counting_compiles() as cold_compiles:
            reports = autotune_batch(jobs, cache=cache, space_options=GRID_SPACE)
        cold_s = time.perf_counter() - start
        assert [r.kernel_name for r in reports] == ["small", "large"]
        assert len(cache) == 2 and cold_compiles.count > 0
        start = time.perf_counter()
        with counting_compiles() as warm_compiles:
            warm = autotune_batch(jobs, cache=TuningCache(tmp_path / "batch.json"),
                                  space_options=GRID_SPACE)
        warm_s = time.perf_counter() - start
        assert all(r.from_cache for r in warm) and warm_compiles.count == 0
        for cold_report, warm_report in zip(reports, warm):
            assert warm_report.best.to_dict() == cold_report.best.to_dict()
            assert warm_report.fingerprint == cold_report.fingerprint
        assert warm_s < cold_s / 10, (warm_s, cold_s)

    def test_report_dict_round_trip(self, matmul):
        report = autotune(matmul, space_options=SMALL_SPACE)
        clone = TuningReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert clone.best.to_dict() == report.best.to_dict()
        assert clone.fingerprint == report.fingerprint

    @pytest.mark.parametrize("name", available_kernels())
    def test_deserialised_report_mirrors_the_cold_object_graph(self, name):
        kernel = get_kernel(name)
        cold = autotune(kernel.build_check(), space_options=SMALL_SPACE, grid=kernel.grid)
        assert any(cold.best is r for r in cold.results)
        stored = json.loads(json.dumps(cold.to_dict()))
        warm = TuningReport.from_dict(stored)
        # best and baseline alias results members, as autotune() builds them,
        # instead of costing two more deserialised copies per held report
        assert any(warm.best is r for r in warm.results)
        assert any(warm.baseline is r for r in warm.results)
        assert warm.to_dict() == stored == cold.to_dict()

    def test_report_without_its_winner_in_results_still_loads(self, matmul):
        stored = autotune(matmul, space_options=SMALL_SPACE).to_dict()
        stored["results"] = []
        clone = TuningReport.from_dict(stored)
        assert clone.best.to_dict() == stored["best"]
        assert clone.baseline.to_dict() == stored["baseline"]

    def test_autotune_keywords_are_the_problem_fields_plus_tune_resources(self):
        """Drift guard: autotune() is the keyword adapter of tune(TuningProblem),
        so a field added to one side cannot be forgotten on the other."""
        problem_fields = [f.name for f in dataclasses.fields(TuningProblem)]
        resources = list(inspect.signature(tune).parameters)[1:]
        keywords = list(inspect.signature(autotune).parameters)
        assert len(problem_fields) == 11 and len(resources) == 3
        assert sorted(keywords) == sorted(problem_fields + resources)

    def test_invalid_inputs_rejected(self, matmul):
        with pytest.raises(ValueError):
            autotune(matmul, max_workers=0)
        with pytest.raises(TypeError, match="executor"):
            autotune(matmul, executor="process")  # resources are workers, cache, history
        with pytest.raises(ValueError):
            resolve_strategy("simulated-annealing")
        with pytest.raises(TypeError):
            resolve_strategy(42)


# -- cache -------------------------------------------------------------------------
class TestTuningCache:
    def test_fingerprint_sensitive_to_every_input(self, matmul):
        base = fingerprint(matmul, GEFORCE_8800_GTX, None, MappingOptions(),
                           {"name": "pruned"}, {"space": 1})
        other_program = build_matmul_program(16, 16, 16)
        assert fingerprint(other_program, GEFORCE_8800_GTX, None, MappingOptions(),
                           {"name": "pruned"}, {"space": 1}) != base
        assert fingerprint(matmul, GEFORCE_8800_GTX, None,
                           MappingOptions(threads_per_block=128),
                           {"name": "pruned"}, {"space": 1}) != base
        assert fingerprint(matmul, GEFORCE_8800_GTX, None, MappingOptions(),
                           {"name": "exhaustive"}, {"space": 1}) != base
        assert fingerprint(matmul, GEFORCE_8800_GTX, None, MappingOptions(),
                           {"name": "pruned"}, {"space": 2}) != base
        # and stable across calls
        assert fingerprint(matmul, GEFORCE_8800_GTX, None, MappingOptions(),
                           {"name": "pruned"}, {"space": 1}) == base

    def test_a_statement_domain_the_printed_program_hides_still_splits_the_key(self):
        """``program_to_c`` prints no statement domain: jacobi1d with ``i <= 100``
        added to its statement's domain prints the same text and computes
        other values.  Their tuning keys must differ all the same.  Today the
        analysed loop extents in the space signature are what tell them apart,
        so a key derived before analysis must read the domains."""
        import lowering_oracle as oracle

        from repro.autotune import tuning_fingerprint
        from repro.ir.printer import program_to_c
        from repro.polyhedral.affine import AffineExpr
        from repro.polyhedral.constraints import Constraint

        kernel = get_kernel("jacobi1d")
        plain, guarded = kernel.build(size=256), kernel.build(size=256)
        oracle.guard_the_statement(
            guarded, [Constraint(100 - AffineExpr.var("i"))], as_domain=True
        )
        assert program_to_c(guarded) == program_to_c(plain)
        computed = [
            oracle.run_interpreter(program, oracle.seeded_arrays(program))[0]["B"]
            for program in (plain, guarded)
        ]
        assert not np.array_equal(*computed)
        for backend in ("model:", "hybrid:model>measure-py?top=4"):
            keys = {
                tuning_fingerprint(program, space_options=SMALL_SPACE, backend=backend)
                for program in (plain, guarded)
            }
            assert len(keys) == 2, backend

    def test_persistence_across_instances(self, tmp_path):
        path = tmp_path / "cache.json"
        first = TuningCache(path)
        first.put("k", {"value": 1})
        second = TuningCache(path)
        assert second.get("k") == {"value": 1}
        assert second.stats()["hits"] == 1

    def test_concurrent_instances_merge_instead_of_clobbering(self, tmp_path):
        path = tmp_path / "cache.json"
        a = TuningCache(path)  # both load the (empty) file before either writes
        b = TuningCache(path)
        a.put("ka", {"v": "a"})
        b.put("kb", {"v": "b"})
        merged = TuningCache(path)
        assert merged.get("ka") == {"v": "a"}
        assert merged.get("kb") == {"v": "b"}

    def test_corrupt_file_means_cold_cache(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{ not json")
        cache = TuningCache(path)
        assert len(cache) == 0
        assert cache.get("missing") is None
        assert cache.misses == 1

    def test_version_mismatch_discards_entries(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 999, "entries": {"k": {"v": 1}}}))
        assert len(TuningCache(path)) == 0

    def test_in_memory_cache_needs_no_path(self):
        cache = TuningCache()
        cache.put("k", {"v": 2})
        assert cache.get("k") == {"v": 2}
        cache.clear()
        assert len(cache) == 0

    def test_stats_reports_entries_bytes_and_counters(self, tmp_path):
        cache = TuningCache(tmp_path / "cache.json")
        fresh = cache.stats()
        assert fresh["backend"] == "log"
        assert fresh["entries"] == 0 and fresh["bytes"] == 0
        assert fresh["hits"] == 0 and fresh["misses"] == 0
        cache.put("k", {"v": 1})
        cache.get("k")
        cache.get("missing")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == (tmp_path / "cache.json").stat().st_size
        assert stats["bytes"] > 0
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_prune_keeps_the_newest_entries(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = TuningCache(path)
        for i in range(5):
            cache.put(f"k{i}", {"v": i})
        assert cache.prune(2) == 3
        assert cache.prune(2) == 0  # already within bounds
        # pruned entries stay gone on reload: the save skipped the read-merge
        reloaded = TuningCache(path)
        assert len(reloaded) == 2
        assert reloaded.get("k3") == {"v": 3} and reloaded.get("k4") == {"v": 4}
        with pytest.raises(ValueError):
            cache.prune(-1)

    def test_prune_order_survives_the_file_round_trip(self, tmp_path):
        # keys deliberately in anti-alphabetical insertion order: "oldest"
        # must mean insertion order even after a save/load cycle
        path = tmp_path / "cache.json"
        cache = TuningCache(path)
        cache.put("zz-oldest", {"v": 0})
        cache.put("aa-newest", {"v": 1})
        reloaded = TuningCache(path)
        assert reloaded.prune(1) == 1
        assert reloaded.peek("aa-newest") == {"v": 1}
        assert reloaded.peek("zz-oldest") is None

    def test_peek_does_not_touch_counters(self):
        cache = TuningCache()
        cache.put("k", {"v": 1})
        assert cache.peek("k") == {"v": 1}
        assert cache.peek("missing") is None
        assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 0

    def test_missing_fcntl_warns_once_per_process(self, tmp_path, monkeypatch):
        from repro.utils import durable

        monkeypatch.setattr(durable, "fcntl", None)
        monkeypatch.setattr(durable, "_warned_unlocked", False)
        cache = TuningCache(tmp_path / "cache.json")
        with pytest.warns(RuntimeWarning, match="without inter-process file locking"):
            cache.put("a", {"v": 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second write must stay silent
            cache.put("b", {"v": 2})


# -- options / pipeline satellites -------------------------------------------------
class TestOptionValidation:
    def test_rejects_non_positive_tile_sizes(self):
        with pytest.raises(ValueError, match="tile size"):
            MappingOptions(tile_sizes={"i": 0})
        with pytest.raises(ValueError, match="tile size"):
            MappingOptions(tile_sizes={"i": -4})
        with pytest.raises(ValueError, match="tile size"):
            MappingOptions(tile_sizes={"i": 2.5})

    def test_rejects_bad_counts_and_target(self):
        with pytest.raises(ValueError):
            MappingOptions(num_blocks=0)
        with pytest.raises(ValueError):
            MappingOptions(threads_per_block=-1)
        with pytest.raises(ValueError):
            MappingOptions(num_blocks=True)
        with pytest.raises(ValueError):
            MappingOptions(threads_per_block=True)
        with pytest.raises(ValueError, match="target"):
            MappingOptions(target="fpga")

    def test_options_dict_round_trip(self):
        options = MappingOptions(num_blocks=8, tile_sizes={"i": 4}, delta=0.5)
        assert MappingOptions.from_dict(options.to_dict()) == options
        with pytest.raises(ValueError, match="unknown"):
            MappingOptions.from_dict({"warp_size": 32})


# -- CLI ---------------------------------------------------------------------------
class TestCli:
    def test_list_kernels(self, capsys):
        assert cli_main(["--list-kernels"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out and "jacobi1d" in out

    def test_unknown_kernel_fails_cleanly(self, capsys):
        assert cli_main(["no_such_kernel"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kernel, sizes",
        [("matmul", ["m=32", "n=32", "k=32"]), ("conv2d", ["height=32", "width=32", "kernel=3"])],
    )
    def test_tune_and_warm_cache(self, kernel, sizes, tmp_path, capsys):
        cache = str(tmp_path / "cli-cache.json")
        args = [kernel, "--size", *sizes, "--cache", cache,
                "--top", "2", "--threads", "64", "--blocks", "16"]
        with warnings.catch_warnings():
            # the production path calls nothing deprecated
            warnings.simplefilter("error", DeprecationWarning)
            assert cli_main(args) == 0
        cold_out = capsys.readouterr().out
        assert "pipeline compiles this call: 0" not in cold_out
        assert cli_main(args) == 0
        warm_out = capsys.readouterr().out
        assert "pipeline compiles this call: 0" in warm_out
        assert "[cache]" in warm_out

    def test_cache_stats_subcommand(self, tmp_path, capsys):
        path = str(tmp_path / "cache.json")
        cache = TuningCache(path)
        for i in range(3):
            cache.put(f"k{i}", {"v": i})
        assert cli_main(["cache-stats", "--cache", path]) == 0
        out = capsys.readouterr().out
        assert "entries: 3" in out
        assert "bytes: " in out

    def test_cache_prune_subcommand(self, tmp_path, capsys):
        path = str(tmp_path / "cache.json")
        cache = TuningCache(path)
        for i in range(5):
            cache.put(f"k{i}", {"v": i})
        assert cli_main(["cache-prune", "--cache", path, "--max-entries", "2"]) == 0
        assert "pruned 3 entries; 2 remain" in capsys.readouterr().out
        assert len(TuningCache(path)) == 2
        assert cli_main(["cache-prune", "--cache", path, "--max-entries", "-1"]) == 2
