"""Tests of ``repro.distmodel`` and the distributed-GEMM tuning family."""

from __future__ import annotations

import pytest

from repro.autotune import Configuration, autotune, tuning_fingerprint
from repro.autotune.distspace import DistributedSpace, divisors, summa_mapping
from repro.autotune.space import SpaceOptions
from repro.distmodel import (
    LinkModel,
    Phase,
    PhaseSchedule,
    SummaMapping,
    broadcast_cost,
    gather_cost,
    gemm_schedule,
    mapping_infeasible_reason,
    pe_footprint_bytes,
    shift_cost,
)
from repro.kernels import build_distributed_gemm_program, build_jacobi2d_program
from repro.kernels.registry import get_kernel
from repro.machine import GridSpec, WSE2_GRID
from repro.runtime.interpreter import run_program
from repro.telemetry.history import HistoryRecord, group_records

LINK = LinkModel.from_grid(WSE2_GRID)

#: the Snippet 3 operating point: 4×4 sub-grid, 56³ problem, 14³ tiles
SNIPPET3 = dict(m=56, n=56, k=56)
SNIPPET3_MAPPING = SummaMapping(grid_p=4, mt=14, nt=14, kt=14, schedule="pipelined", depth=2)


# -- link model --------------------------------------------------------------------
class TestLinkModel:
    def test_costs_monotone_in_message_size(self):
        for cost in (
            lambda w: broadcast_cost(LINK, w, 4),
            lambda w: gather_cost(LINK, w, 4),
            lambda w: shift_cost(LINK, w, hops=4),
        ):
            samples = [cost(w) for w in (1, 64, 512, 4096, 65536)]
            assert samples == sorted(samples)
            assert samples[0] < samples[-1]

    def test_costs_monotone_in_grid_size(self):
        for cost in (
            lambda p: broadcast_cost(LINK, 4096, p),
            lambda p: gather_cost(LINK, 4096, p),
        ):
            samples = [cost(p) for p in (2, 4, 8, 16)]
            assert samples == sorted(samples)
            assert samples[0] < samples[-1]

    def test_zero_words_cost_nothing(self):
        assert broadcast_cost(LINK, 0, 4) == 0.0
        assert gather_cost(LINK, 0, 4) == 0.0
        assert shift_cost(LINK, 0) == 0.0

    def test_gather_per_byte_strictly_slower_under_contention(self):
        """The Snippet 3 asymmetry: D2H contended vs H2D ≥ 2.5× per byte."""
        words_out = 56 * 56 * 2  # A and B onto the grid
        words_back = 56 * 56  # C back to the host
        out_per_word = broadcast_cost(LINK, words_out, 4) / words_out
        back_per_word = gather_cost(LINK, words_back, 4) / words_back
        assert back_per_word > out_per_word
        assert back_per_word / out_per_word >= 2.5

    def test_snippet3_hand_computed_cycles(self):
        """Model vs the measured Snippet 3 numbers (within 2% tolerance)."""
        broadcast = broadcast_cost(LINK, 56 * 56 * 2, 4)
        gather = gather_cost(LINK, 56 * 56, 4)
        assert broadcast == pytest.approx(7226, rel=0.02)
        assert gather == pytest.approx(10522, rel=0.02)
        # the measured effective bandwidths: 0.868 and 0.298 words/cycle
        assert (56 * 56 * 2) / broadcast == pytest.approx(0.868, rel=0.02)
        assert (56 * 56) / gather == pytest.approx(0.298, rel=0.02)


# -- phase schedules ---------------------------------------------------------------
class TestPhaseSchedule:
    def test_serial_phase_exposes_all_communication(self):
        phase = Phase.serial("distribute", comm_cycles=100.0)
        assert phase.exposed_comm_cycles == 100.0
        assert phase.hidden_comm_cycles == 0.0
        assert phase.elapsed_cycles == 100.0

    def test_elapsed_is_compute_plus_exposed(self):
        phase = Phase(
            name="compute",
            compute_cycles=500.0,
            comm_cycles=300.0,
            exposed_comm_cycles=40.0,
            overlapped=True,
        )
        assert phase.elapsed_cycles == 540.0
        assert phase.hidden_comm_cycles == 260.0

    def test_hidden_fraction_counts_only_overlappable_phases(self):
        schedule = PhaseSchedule(
            phases=(
                Phase.serial("distribute", comm_cycles=1000.0),
                Phase(
                    name="compute",
                    compute_cycles=400.0,
                    comm_cycles=200.0,
                    exposed_comm_cycles=50.0,
                    overlapped=True,
                ),
            )
        )
        # the serial distribute phase never enters the denominator
        assert schedule.overlappable_comm_cycles == 200.0
        assert schedule.hidden_fraction == pytest.approx(0.75)

    def test_blocking_schedule_hides_nothing(self):
        mapping = SummaMapping(grid_p=4, mt=14, nt=14, kt=14, schedule="blocking")
        schedule = gemm_schedule(
            SNIPPET3["m"], SNIPPET3["n"], SNIPPET3["k"], mapping, WSE2_GRID
        )
        assert schedule.hidden_fraction == 0.0

    def test_time_ms_uses_grid_clock(self):
        # 850 cycles at 0.85 GHz = 1 us = 1e-3 ms
        schedule = PhaseSchedule(phases=(Phase.serial("gather", comm_cycles=850.0),))
        assert schedule.time_ms(WSE2_GRID) == pytest.approx(1e-3)


# -- the SUMMA gemm model ----------------------------------------------------------
class TestGemmSchedule:
    @pytest.mark.parametrize("shape", [(56, 56, 56), (64, 64, 64), (32, 64, 128)])
    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_pipelined_never_slower_than_blocking(self, shape, depth):
        m, n, k = shape
        for p in (2, 4):
            for kt in divisors(k // p):
                blocking = SummaMapping(p, m // p, n // p, kt, "blocking")
                pipelined = SummaMapping(p, m // p, n // p, kt, "pipelined", depth)
                if mapping_infeasible_reason(m, n, k, pipelined, WSE2_GRID):
                    continue
                t_block = gemm_schedule(m, n, k, blocking, WSE2_GRID).total_cycles
                t_pipe = gemm_schedule(m, n, k, pipelined, WSE2_GRID).total_cycles
                assert t_pipe <= t_block + 1e-9

    def test_snippet3_pipelined_hides_panel_broadcasts(self):
        schedule = gemm_schedule(56, 56, 56, SNIPPET3_MAPPING, WSE2_GRID)
        assert schedule.hidden_fraction >= 0.5
        names = [phase.name for phase in schedule.phases]
        assert names == ["distribute", "compute", "gather"]

    def test_footprint_counts_pipeline_panel_buffers(self):
        blocking = SummaMapping(4, 14, 14, 14, "blocking")
        pipelined = SummaMapping(4, 14, 14, 14, "pipelined", depth=4)
        shallow = pe_footprint_bytes(56, 56, 56, blocking, WSE2_GRID)
        deep = pe_footprint_bytes(56, 56, 56, pipelined, WSE2_GRID)
        # depth+1 panel-buffer sets vs blocking's one
        assert deep - shallow == 4 * 14 * (14 + 14) * WSE2_GRID.word_bytes

    def test_infeasible_reasons(self):
        m = n = k = 56
        assert "does not divide" in mapping_infeasible_reason(
            m, n, k, SummaMapping(3, 14, 14, 14), WSE2_GRID
        )
        assert "exceeds fabric" in mapping_infeasible_reason(
            m, n, k, SummaMapping(28, 2, 2, 2), WSE2_GRID
        )
        assert "does not tile" in mapping_infeasible_reason(
            m, n, k, SummaMapping(4, 5, 14, 14), WSE2_GRID
        )
        # 104³ per-PE blocks are ~32k words against the 12k-word PE memory
        assert "footprint" in mapping_infeasible_reason(
            208, 208, 208, SummaMapping(2, 104, 104, 104), WSE2_GRID
        )
        with pytest.raises(ValueError, match="infeasible distributed mapping"):
            gemm_schedule(m, n, k, SummaMapping(3, 14, 14, 14), WSE2_GRID)


# -- configuration extras ----------------------------------------------------------
class TestConfigurationExtras:
    def test_extras_round_trip_and_key(self):
        config = Configuration.make(
            16, 1, {"i": 14, "j": 14, "k": 14}, use_scratchpad=False,
            extras={"schedule": "pipelined", "grid_p": 4, "depth": 2},
        )
        assert config.extras_dict == {"schedule": "pipelined", "grid_p": 4, "depth": 2}
        assert Configuration.from_dict(config.to_dict()) == config
        assert "grid_p-4" in config.key()

    def test_empty_extras_keep_legacy_key_and_payload(self):
        plain = Configuration.make(32, 128, {"i": 8, "j": 16})
        assert plain.key() == "b32.t128.i8_j16.spm"
        assert "extras" not in plain.to_dict()

    def test_extras_distinguish_configurations(self):
        base = dict(num_blocks=16, threads_per_block=1, tile_sizes={"i": 8})
        a = Configuration.make(**base, extras={"grid_p": 2})
        b = Configuration.make(**base, extras={"grid_p": 4})
        assert a != b and a.key() != b.key()


# -- the distributed space ---------------------------------------------------------
class TestDistributedSpace:
    @pytest.fixture(scope="class")
    def space(self):
        return DistributedSpace(build_distributed_gemm_program(16, 16, 16), WSE2_GRID)

    def test_seed_is_blocking_whole_block_on_largest_grid(self, space):
        seed = space.mapping(space.seed_configuration())
        assert seed.schedule == "blocking"
        assert seed.grid_p == max(space.grid_choices())
        assert (seed.mt, seed.nt, seed.kt) == (
            16 // seed.grid_p, 16 // seed.grid_p, 16 // seed.grid_p
        )

    def test_enumerate_yields_feasible_mappings_seed_first(self, space):
        configs = space.enumerate()
        assert configs[0] == space.seed_configuration()
        assert len(configs) == len(set(configs)) > 4
        schedules = set()
        for config in configs:
            mapping = space.mapping(config)
            assert mapping_infeasible_reason(16, 16, 16, mapping, WSE2_GRID) is None
            assert config.num_blocks == mapping.grid_p ** 2
            assert config.threads_per_block == 1
            schedules.add(mapping.schedule)
        assert schedules == {"blocking", "pipelined"}

    def test_neighbours_are_feasible_one_knob_moves(self, space):
        start = space.seed_configuration()
        moves = space.neighbours(start)
        assert moves
        for config in moves:
            assert config != start
            mapping = space.mapping(config)
            assert mapping_infeasible_reason(16, 16, 16, mapping, WSE2_GRID) is None
        # the schedule toggle must be reachable
        assert any(space.mapping(c).schedule == "pipelined" for c in moves)

    def test_describe_embeds_grid_spec(self, space):
        payload = space.describe()
        assert payload["family"] == "distributed-gemm"
        assert payload["grid"]["name"] == WSE2_GRID.name
        assert payload["grid"]["hop_latency_cycles"] == WSE2_GRID.hop_latency_cycles

    def test_summa_mapping_none_for_single_device_config(self):
        plain = Configuration.make(16, 64, {"i": 8, "j": 8, "k": 8})
        assert summa_mapping(plain, ("i", "j", "k")) is None


# -- end-to-end tuning -------------------------------------------------------------
DIST_SPACE = SpaceOptions(tile_candidates_per_geometry=2)


class TestDistributedAutotune:
    def test_tunes_with_model_dist_provenance(self):
        report = autotune(
            build_distributed_gemm_program(16, 16, 16),
            grid=WSE2_GRID,
            space_options=DIST_SPACE,
        )
        assert report.best.measurement_kind == "model-dist"
        assert report.best.feasible
        metadata = report.best.measurement.metadata
        assert set(metadata["breakdown"]) == {"distribute", "compute", "gather"}
        assert 0.0 <= metadata["hidden_fraction"] <= 1.0
        assert metadata["grid"] == WSE2_GRID.name
        extras = report.best.configuration.extras_dict
        assert {"grid_p", "schedule", "depth"} <= set(extras)

    def test_round_trips_through_cache(self, tmp_path):
        cache = tmp_path / "cache.json"
        program = build_distributed_gemm_program(16, 16, 16)
        cold = autotune(program, grid=WSE2_GRID, space_options=DIST_SPACE, cache=cache)
        warm = autotune(program, grid=WSE2_GRID, space_options=DIST_SPACE, cache=cache)
        assert not cold.from_cache and warm.from_cache
        assert warm.best.configuration == cold.best.configuration
        assert warm.best.measurement_kind == "model-dist"

    def test_grid_spec_is_a_fingerprint_ingredient(self):
        program = build_distributed_gemm_program(16, 16, 16)
        wide = tuning_fingerprint(program, grid=WSE2_GRID)
        narrow = tuning_fingerprint(program, grid=GridSpec(grid_p=4))
        single = tuning_fingerprint(program)
        assert len({wide, narrow, single}) == 3

    @pytest.mark.parametrize("size", [32, 64])
    def test_tuner_prefers_pipelined_on_compute_bound_shape(self, size):
        report = autotune(
            build_distributed_gemm_program(size, size, size),
            grid=WSE2_GRID,
            space_options=DIST_SPACE,
        )
        assert report.best.configuration.extras_dict["schedule"] == "pipelined"
        assert report.best.measurement.metadata["hidden_fraction"] >= 0.5

    def test_tuner_prefers_blocking_on_gather_bound_shape(self):
        """A huge C and k=4: the contended D2H drain dominates, and the
        pipeline's panel buffers price the overlap out of the tight mapping,
        so a blocking mapping with a larger C tile wins."""
        report = autotune(
            build_distributed_gemm_program(212, 216, 4),
            grid=GridSpec(name="4x4 host-port fabric (modelled)", grid_p=4),
            space_options=DIST_SPACE,
        )
        assert report.best.configuration.extras_dict["schedule"] == "blocking"
        pipelined = min(
            (r for r in report.results
             if r.feasible and r.configuration.extras_dict.get("schedule") == "pipelined"),
            key=lambda r: (r.time_ms, r.configuration.key()),
        )
        assert pipelined.time_ms > report.best.time_ms

        def c_tile(result):
            tiles = dict(result.configuration.tile_sizes)
            return tiles["i"] * tiles["j"]

        assert c_tile(report.best) > c_tile(pipelined)

    def test_measured_backends_refuse_grid_requests(self):
        with pytest.raises(ValueError, match="cannot price distributed"):
            autotune(
                build_distributed_gemm_program(16, 16, 16),
                grid=WSE2_GRID,
                backend="measure-py:",
            )

    def test_history_variant_keeps_grids_apart(self, tmp_path):
        from repro.telemetry.history import HistoryStore

        history = HistoryStore(tmp_path / "history.jsonl")
        program = build_distributed_gemm_program(16, 16, 16)
        autotune(program, grid=WSE2_GRID, space_options=DIST_SPACE, history=history)
        autotune(program, grid=GridSpec(grid_p=4), space_options=DIST_SPACE, history=history)
        autotune(program, space_options=SpaceOptions(
            thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
        ), history=history)
        groups = group_records(history.records())
        assert len(groups) == 3
        variants = {key[1] for key in groups}
        assert f"16x16:{WSE2_GRID.name}" in variants
        assert "" in variants  # the single-device request


# -- history variant plumbing ------------------------------------------------------
class TestHistoryVariant:
    def test_variant_round_trips_and_splits_groups(self):
        base = dict(kernel="distributed-gemm", fingerprint="f", spec_name="s")
        a = HistoryRecord(**base, variant="16x16:WSE-2", winner_ms=1.0)
        b = HistoryRecord(**base, variant="4x4:toy", winner_ms=2.0)
        legacy = HistoryRecord.from_dict({"kernel": "distributed-gemm"})
        assert HistoryRecord.from_dict(a.to_dict()).variant == "16x16:WSE-2"
        assert legacy.variant == ""  # pre-variant records parse unchanged
        assert a.group_key() != b.group_key()
        assert len(group_records([a, b, legacy])) == 3


# -- satellite kernels -------------------------------------------------------------
class TestJacobi2d:
    def test_matches_reference_stencil(self):
        import numpy as np

        program = build_jacobi2d_program(6, 6)
        rng = np.random.default_rng(0)
        a = rng.random((8, 8))
        state = run_program(program, inputs={"A": a.copy(), "B": np.zeros((8, 8))})
        expected = (
            a[1:-1, 1:-1] + a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:]
        ) / 5.0
        assert np.allclose(state.data("B")[1:-1, 1:-1], expected)

    def test_registered_with_single_device_family(self):
        kernel = get_kernel("jacobi2d")
        assert kernel.family == "single-device"
        assert kernel.grid is None
        assert "family" in kernel.describe()

    def test_distributed_gemm_registered_with_grid(self):
        kernel = get_kernel("distributed-gemm")
        assert kernel.family == "distributed"
        assert kernel.grid == WSE2_GRID
        assert kernel.describe()["grid"]["grid_p"] == WSE2_GRID.grid_p
