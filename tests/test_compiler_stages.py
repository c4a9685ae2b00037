"""Tests of the staged compiler (`repro.compiler`): passes, sessions, replay."""

from __future__ import annotations

import pytest

from repro import MappingOptions, autotune
from repro.compiler import (
    CompilationSession,
    DEFAULT_PASSES,
    PASS_REGISTRY,
    PassManager,
    counting_compiles,
    counting_stage_runs,
)
from repro.autotune import SpaceOptions, TuningCache
from repro.autotune.space import Configuration
from repro.ir.printer import program_to_c
from repro.kernels import build_matmul_program
from repro.kernels.registry import available_kernels, get_kernel

SMALL_SPACE = SpaceOptions(
    thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
)


def mapped_equal(left, right) -> bool:
    """Bit-for-bit equivalence of two mapped kernels' observable output."""
    return (
        program_to_c(left.program) == program_to_c(right.program)
        and left.tile_sizes == right.tile_sizes
        and left.outer_tile_sizes == right.outer_tile_sizes
        and left.geometry == right.geometry
        and left.workload == right.workload
        and left.global_sync_rounds == right.global_sync_rounds
        and left.param_binding == right.param_binding
    )


# -- sessions ----------------------------------------------------------------------
class TestCompilationSession:
    def test_compile_caches_artifacts_and_counts_once(self):
        program = build_matmul_program(32, 32, 32)
        session = CompilationSession(program)
        with counting_compiles() as compiles, counting_stage_runs() as first:
            mapped = session.compile()
        assert compiles.count == 1
        assert first.counts == {stage: 1 for stage in DEFAULT_PASSES}
        # a second compile is fully cached: no stage runs, no compile counted
        with counting_compiles() as compiles, counting_stage_runs() as second:
            again = session.compile()
        assert second.counts == {}
        assert compiles.count == 0
        assert again is mapped

    def test_artifact_access_counts_the_compile(self):
        """Reaching the mapping artifact any way counts as one compile."""
        session = CompilationSession(build_matmul_program(16, 16, 16))
        with counting_compiles() as compiles:
            session.artifact("mapping")
            session.compile()  # fully cached — still one compile
        assert compiles.count == 1

    def test_replay_runs_only_config_dependent_stages(self):
        program = build_matmul_program(32, 32, 32)
        session = CompilationSession(program)
        session.compile()
        config = Configuration.make(16, 64, {"i": 8, "j": 8, "k": 16})
        with counting_stage_runs() as runs:
            session.replay(from_stage="tiling", config=config)
        assert runs.counts == {"tiling": 1, "scratchpad": 1, "mapping": 1}

    @pytest.mark.parametrize("kernel_name", available_kernels())
    def test_replay_equals_cold_compile_for_every_kernel(self, kernel_name):
        """Acceptance: replay output is bit-for-bit a cold compile's output,
        with strictly fewer stage executions."""
        kernel = get_kernel(kernel_name)
        program = kernel.build_check()
        session = CompilationSession(program)
        mapped = session.compile()
        config = Configuration.from_options(session.options, mapped.tile_sizes)

        with counting_stage_runs() as replay_runs:
            replayed = session.replay(from_stage="tiling", config=config)
        with counting_stage_runs() as cold_runs:
            cold = CompilationSession(
                kernel.build_check(), options=config.to_options()
            ).compile()

        assert mapped_equal(replayed, cold)
        assert replay_runs.total < cold_runs.total
        assert "analysis" not in replay_runs.counts

    def test_replay_from_scratchpad_rematerialises_tiling(self):
        """The scratchpad stage mutates the tiled program in place; replaying
        from it twice must still match a cold compile bit-for-bit."""
        program = build_matmul_program(32, 32, 32)
        config = Configuration.make(16, 64, {"i": 8, "j": 8, "k": 16})
        # explicit tile sizes in the base options: the tiling fingerprint then
        # survives the replay, so the artifact is legitimately reusable
        session = CompilationSession(program, options=config.to_options())
        session.compile()
        first = session.replay(from_stage="scratchpad", config=config)
        second = session.replay(from_stage="scratchpad", config=config)
        cold = CompilationSession(
            build_matmul_program(32, 32, 32), options=config.to_options()
        ).compile()
        assert mapped_equal(first, cold)
        assert mapped_equal(second, cold)

    def test_the_artifact_memo_skips_repeated_work_and_never_serves_a_stale_artifact(self):
        """Replaying A, B, A: the second A runs no pass and fires no hook, a
        derived session re-runs only its own terminal pass, and every text
        equals what a fresh session produces for that configuration."""
        passes = (*DEFAULT_PASSES, "emit", "lower-py")
        a = Configuration.make(16, 64, {"i": 8, "j": 8, "k": 16})
        b = Configuration.make(16, 64, {"i": 4, "j": 16, "k": 32}, use_scratchpad=False)
        session = CompilationSession(build_matmul_program(32, 32, 32), passes=passes)
        session.analysis()
        observed = []
        session.manager.add_hook(lambda name, artifact, elapsed: observed.append(name))
        texts, counts = [], []
        for config in (a, b, a):
            with counting_stage_runs() as runs:
                artifacts = session.replay_artifacts(config=config)
            texts.append((artifacts["emit"].value, artifacts["lower-py"].value))
            counts.append(runs.counts)
        every_stage_once = {stage: 1 for stage in passes[1:]}
        assert counts == [every_stage_once, every_stage_once, {}]
        assert observed == [*passes[1:], *passes[1:]]
        assert texts[0] == texts[2] != texts[1]
        for config, text in zip((a, b), texts):
            fresh = CompilationSession(
                build_matmul_program(32, 32, 32), passes=passes
            ).replay_artifacts(config=config)
            assert text == (fresh["emit"].value, fresh["lower-py"].value)

        derived = session.with_passes((*DEFAULT_PASSES, "lower-py-vec"))
        with counting_stage_runs() as runs:
            derived.replay_artifacts(config=b, upto="lower-py-vec")
        assert runs.counts == {"lower-py-vec": 1}

    def test_replay_unknown_stage_lists_valid_stages(self):
        session = CompilationSession(build_matmul_program(16, 16, 16))
        with pytest.raises(ValueError, match="valid stages: analysis, tiling"):
            session.replay(from_stage="tilng", config=Configuration.make(16, 64, {"i": 8}))

    def test_replay_refuses_stale_upstream_artifacts(self):
        """A config that changes tile sizes cannot replay from scratchpad."""
        program = build_matmul_program(32, 32, 32)
        session = CompilationSession(program)
        mapped = session.compile()
        changed = dict(mapped.tile_sizes)
        changed["i"] = max(1, changed["i"] // 2)
        config = Configuration.make(
            session.options.num_blocks, session.options.threads_per_block, changed
        )
        with pytest.raises(ValueError, match="replay from 'tiling'"):
            session.replay(from_stage="scratchpad", config=config)

    def test_replay_options_and_config_are_exclusive(self):
        session = CompilationSession(build_matmul_program(16, 16, 16))
        with pytest.raises(ValueError, match="not both"):
            session.replay(
                config=Configuration.make(16, 64, {"i": 8}),
                options=MappingOptions(),
            )

    def test_stage_report_carries_runs_and_fingerprints(self):
        session = CompilationSession(build_matmul_program(32, 32, 32))
        session.compile()
        report = {row["stage"]: row for row in session.stage_report()}
        assert list(report) == list(DEFAULT_PASSES)
        assert not report["analysis"]["config_dependent"]
        assert report["tiling"]["config_dependent"]
        for row in report.values():
            assert row["runs"] == 1
            assert row["fingerprint"]

    def test_fingerprints_isolate_config_invariant_stages(self):
        program = build_matmul_program(32, 32, 32)
        base = CompilationSession(program)
        other = CompilationSession(
            program, options=MappingOptions(threads_per_block=128)
        )
        base.compile()
        other.compile()
        # analysis depends only on (program, params, spec) — identical
        assert (
            base.artifact("analysis").fingerprint
            == other.artifact("analysis").fingerprint
        )
        # tiling reads threads_per_block — must differ
        assert (
            base.artifact("tiling").fingerprint
            != other.artifact("tiling").fingerprint
        )
        # and everything is deterministic across sessions
        again = CompilationSession(program)
        again.compile()
        for stage in DEFAULT_PASSES:
            assert (
                again.artifact(stage).fingerprint == base.artifact(stage).fingerprint
            )

    def test_emit_terminal_pass_renders_c(self):
        session = CompilationSession(
            build_matmul_program(16, 16, 16), passes=(*DEFAULT_PASSES, "emit")
        )
        session.compile()
        text = session.artifact("emit").value
        assert "matmul" in text
        assert "/* kernel" in text
        assert "blocks=" in text
        # replays stop at the mapping stage: no per-candidate render
        with counting_stage_runs() as runs:
            session.replay(config=Configuration.make(8, 64, {"i": 8, "j": 8, "k": 8}))
        assert "emit" not in runs.counts
        assert runs.counts["mapping"] == 1
        # render_c() on a default session lazily runs the emit pass too
        plain = CompilationSession(build_matmul_program(16, 16, 16))
        assert "matmul" in plain.render_c()


# -- pass manager ------------------------------------------------------------------
class TestPassManager:
    def test_unknown_pass_name_lists_registry(self):
        with pytest.raises(ValueError, match="registered passes: analysis"):
            PassManager(passes=["analysis", "tilng"])

    def test_pipeline_validates_pass_names_at_construction(self):
        with pytest.raises(ValueError, match="unknown pass 'bogus'"):
            CompilationSession(build_matmul_program(16, 16, 16), passes=["bogus"])
        assert sorted(PASS_REGISTRY) == sorted(
            ["analysis", "tiling", "scratchpad", "mapping", "emit",
             "lower-py", "lower-py-vec"]
        )

    def test_duplicate_pass_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate pass name"):
            PassManager(passes=["analysis", "analysis"])

    def test_hooks_observe_every_pass_run(self):
        events = []
        manager = PassManager()
        manager.add_hook(lambda name, artifact, elapsed: events.append(name))
        session = CompilationSession(build_matmul_program(16, 16, 16), manager=manager)
        session.compile()
        assert events == list(DEFAULT_PASSES)
        timings = {t.stage: t for t in manager.timings()}
        assert all(timings[stage].runs == 1 for stage in DEFAULT_PASSES)
        assert timings["tiling"].total_seconds > 0

    def test_session_rejects_manager_plus_passes(self):
        with pytest.raises(ValueError, match="not both"):
            CompilationSession(
                build_matmul_program(16, 16, 16),
                passes=DEFAULT_PASSES,
                manager=PassManager(),
            )


# -- autotune integration ----------------------------------------------------------
class TestAutotuneSessionReuse:
    def test_tuning_request_analyses_once(self):
        """Acceptance: one tuning request performs affine analysis once (the
        shared session), not once per evaluated candidate."""
        program = build_matmul_program(32, 32, 32)
        with counting_stage_runs() as runs:
            report = autotune(program, space_options=SMALL_SPACE)
        assert report.num_evaluations > 1
        assert runs.counts["analysis"] == 1
        # config-dependent stages ran for the seed compile + every candidate
        assert runs.counts["tiling"] >= report.num_evaluations
        assert runs.counts["tiling"] > runs.counts["analysis"]

    def test_warm_cache_hit_runs_zero_compiles_and_stages(self, tmp_path):
        program = build_matmul_program(32, 32, 32)
        cache = TuningCache(tmp_path / "cache.json")
        autotune(program, space_options=SMALL_SPACE, cache=cache)
        with counting_compiles() as compiles, counting_stage_runs() as runs:
            warm = autotune(program, space_options=SMALL_SPACE, cache=cache)
        assert warm.from_cache
        assert compiles.count == 0
        # fingerprinting the request needs the analysis stage, nothing more
        assert set(runs.counts) <= {"analysis"}
