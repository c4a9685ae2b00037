"""Tests for the machine models, the evaluation kernels and the end-to-end
mapping pipeline (integration)."""

import numpy as np
import pytest

from repro import (
    GEFORCE_8800_GTX,
    CompilationSession,
    MappingOptions,
    run_program,
    simulate_cpu,
    simulate_gpu,
)
from repro.kernels import (
    JACOBI_PROBLEM_SIZES,
    ME_PROBLEM_SIZES,
    JacobiWorkloadModel,
    MEWorkloadModel,
    build_conv2d_program,
    build_jacobi_sweep_program,
    build_jacobi_time_program,
    build_matmul_program,
    build_me_program,
)
from repro.machine import (
    BlockWorkload,
    CPUPerformanceModel,
    CPUWorkload,
    GPUPerformanceModel,
    KernelLaunch,
    MemoryModel,
)
from repro.tiling.mapping import LaunchGeometry


class TestGPUModel:
    def _workload(self, use_scratchpad):
        if use_scratchpad:
            return BlockWorkload(
                compute_instances=100_000,
                global_accesses_per_instance=0.0,
                shared_accesses_per_instance=4.0,
                copy_in_elements=5_000,
                copy_out_elements=1_000,
                copy_occurrences=20,
            )
        return BlockWorkload(
            compute_instances=100_000,
            global_accesses_per_instance=4.0,
            shared_accesses_per_instance=0.0,
        )

    def test_scratchpad_faster_than_dram(self):
        model = GPUPerformanceModel()
        geometry = LaunchGeometry(32, 256, shared_memory_per_block_bytes=4096)
        plain = LaunchGeometry(32, 256)
        fast = model.execution_time_ms(KernelLaunch(self._workload(True), geometry))
        slow = model.execution_time_ms(KernelLaunch(self._workload(False), plain))
        assert slow / fast > 4

    def test_occupancy_limits_resident_blocks(self):
        """Scratchpad usage bounds how many blocks are resident (the paper's X/M),
        and never makes a launch faster; throughput itself is bounded by the
        multiprocessor count."""
        model = GPUPerformanceModel()
        workload = self._workload(True)
        small = LaunchGeometry(128, 64, shared_memory_per_block_bytes=1024)
        large = LaunchGeometry(128, 64, shared_memory_per_block_bytes=9000)
        assert model.concurrent_blocks(small) > model.concurrent_blocks(large)
        assert model.concurrent_blocks(large) == GEFORCE_8800_GTX.multiprocessors
        assert model.execution_time_ms(KernelLaunch(workload, large)) >= model.execution_time_ms(
            KernelLaunch(workload, small)
        )

    def test_block_exceeding_scratchpad_rejected(self):
        model = GPUPerformanceModel()
        geometry = LaunchGeometry(8, 64, shared_memory_per_block_bytes=32 * 1024)
        with pytest.raises(ValueError):
            model.concurrent_blocks(geometry)

    def test_global_sync_rounds_add_cost(self):
        model = GPUPerformanceModel()
        geometry = LaunchGeometry(16, 64, shared_memory_per_block_bytes=1024)
        one = model.execution_time_ms(KernelLaunch(self._workload(True), geometry, 1))
        many = model.execution_time_ms(KernelLaunch(self._workload(True), geometry, 128))
        assert many > one

    def test_breakdown_keys(self):
        model = GPUPerformanceModel()
        launch = KernelLaunch(self._workload(True), LaunchGeometry(4, 64, shared_memory_per_block_bytes=512))
        breakdown = model.breakdown(launch)
        assert set(breakdown) == {"compute", "global", "shared", "dma", "sync"}

    def test_memory_limit_per_block(self):
        memory = MemoryModel(GEFORCE_8800_GTX)
        assert memory.memory_limit_per_block(1) == 16 * 1024
        assert memory.memory_limit_per_block(8) == 2 * 1024
        assert memory.scratchpad_fits(2 * 1024, 8)


class TestCPUModel:
    def test_cache_resident_faster_than_streaming(self):
        model = CPUPerformanceModel()
        small = CPUWorkload(1e6, 4.0, working_set_bytes=1 << 20)
        large = CPUWorkload(1e6, 4.0, working_set_bytes=1 << 26)
        assert model.execution_time_ms(small) < model.execution_time_ms(large)

    def test_report_wrapper(self):
        report = simulate_cpu("cpu", CPUWorkload(1e5, 2.0, 1 << 18))
        assert report.time_ms > 0 and "compute" in report.breakdown


class TestKernels:
    def test_me_program_small_semantics(self):
        program = build_me_program(4, 4, window=2)
        cur = np.arange(36, dtype=float).reshape(6, 6)
        ref = np.ones((6, 6))
        ctx = run_program(program, inputs={"Cur": cur, "Ref": ref})
        expected = sum(
            abs(cur[0 + k, 0 + l] - 1.0) for k in range(2) for l in range(2)
        )
        assert ctx.data("SAD")[0, 0] == pytest.approx(expected)

    def test_me_problem_size_table(self):
        assert ME_PROBLEM_SIZES["64M"] == (8192, 8192)
        for height, width in ME_PROBLEM_SIZES.values():
            assert height * width > 0

    def test_me_workload_scratchpad_removes_global_traffic(self):
        model = MEWorkloadModel(1024, 1024)
        tile = (32, 16, 16, 16)
        with_spm = model.block_workload(tile, True)
        without = model.block_workload(tile, False)
        assert with_spm.global_accesses_per_instance == 0
        assert without.global_accesses_per_instance == 4
        assert with_spm.copy_in_elements > 0

    def test_me_footprint_fits_8800gtx_for_paper_tile(self):
        model = MEWorkloadModel(4096, 4096)
        assert model.subtile_footprint_bytes((32, 16, 16, 16)) <= 16 * 1024

    def test_jacobi_program_semantics(self):
        program = build_jacobi_time_program(8, 3)
        init = np.zeros((4, 10))
        init[0] = np.arange(10)
        ctx = run_program(program, inputs={"A": init})
        data = ctx.data("A")
        expected_step1 = (init[0, 0] + init[0, 1] + init[0, 2]) / 3
        assert data[1, 1] == pytest.approx(expected_step1)

    def test_jacobi_workload_sync_rounds(self):
        model = JacobiWorkloadModel(size=64 * 1024, time_steps=4096, time_tile=32)
        assert model.global_sync_rounds(True) == 128
        assert model.global_sync_rounds(False) == 4096

    def test_jacobi_footprint_scales_with_tiles(self):
        small = JacobiWorkloadModel(size=64 * 1024, space_tile=128, time_tile=16)
        large = JacobiWorkloadModel(size=64 * 1024, space_tile=512, time_tile=64)
        assert large.shared_bytes_per_block() > small.shared_bytes_per_block()

    def test_jacobi_problem_size_table(self):
        assert JACOBI_PROBLEM_SIZES["512k"] == 512 * 1024

    def test_matmul_and_conv_programs_build(self):
        assert build_matmul_program(4, 4, 4).statement_list
        assert build_conv2d_program(4, 4, 3).statement_list
        with pytest.raises(ValueError):
            build_matmul_program(0, 1, 1)


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def mapped_me(self):
        program = build_me_program(16, 16, window=4)
        options = MappingOptions(
            num_blocks=4, threads_per_block=16, tile_sizes={"i": 8, "j": 8, "k": 4, "l": 4}
        )
        return program, CompilationSession(program, options=options).compile()

    def test_mapped_program_preserves_semantics(self, mapped_me):
        program, mapped = mapped_me
        rng = np.random.default_rng(3)
        cur, ref = rng.random((20, 20)), rng.random((20, 20))
        reference = run_program(program, inputs={"Cur": cur, "Ref": ref})
        transformed = run_program(mapped.program, inputs={"Cur": cur, "Ref": ref})
        assert np.allclose(reference.data("SAD"), transformed.data("SAD"))

    def test_mapped_kernel_uses_scratchpad(self, mapped_me):
        _, mapped = mapped_me
        assert mapped.uses_scratchpad
        assert mapped.workload.global_accesses_per_instance == 0
        assert mapped.workload.shared_accesses_per_instance == 4
        assert mapped.geometry.shared_memory_per_block_bytes > 0

    def test_pipeline_matches_closed_form_footprint(self, mapped_me):
        _, mapped = mapped_me
        model = MEWorkloadModel(16, 16, window=4, num_blocks=4, threads_per_block=16)
        assert mapped.geometry.shared_memory_per_block_bytes == model.subtile_footprint_bytes(
            (8, 8, 4, 4)
        )

    def test_no_scratchpad_configuration(self):
        program = build_me_program(8, 8, window=2)
        options = MappingOptions(
            num_blocks=2, threads_per_block=8, use_scratchpad=False,
            tile_sizes={"i": 4, "j": 4, "k": 2, "l": 2},
        )
        mapped = CompilationSession(program, options=options).compile()
        assert not mapped.uses_scratchpad
        assert mapped.workload.global_accesses_per_instance == 4

    def test_simulated_ordering_scratchpad_vs_dram_vs_cpu(self):
        model = MEWorkloadModel(512, 512, num_blocks=32, threads_per_block=256)
        tile = (32, 16, 16, 16)
        spm = simulate_gpu("spm", model.block_workload(tile, True), model.geometry(tile, True))
        dram = simulate_gpu("dram", model.block_workload(tile, False), model.geometry(tile, False))
        cpu = simulate_cpu("cpu", model.cpu_workload())
        assert spm.time_ms < dram.time_ms < cpu.time_ms
        assert 4 <= dram.time_ms / spm.time_ms <= 16
        assert cpu.time_ms / spm.time_ms >= 100
