"""Interpreter ≡ ``lower-py`` ≡ ``lower-py-vec`` (≡ the C harness) on generated programs.

The licence for emitting integer bounds, pruned guards and slices: on every
small affine program ``lowering_oracle.programs`` can draw, unmapped or run
through tiling → scratchpad → mapping under a drawn configuration, the three
Python-side executors leave the same arrays behind.  The scalar lowering
performs the interpreter's float operations in the interpreter's order, so it
must match bit for bit; the vectorised one sums reductions pairwise, so it
gets a tolerance.  Examples are derandomised: tier-1 runs the same cases (and
takes the same time) every time.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import lowering_oracle as oracle
from repro.codegen.toolchain import c_toolchain_skip_reason, find_c_compiler
from repro.ir.builder import ProgramBuilder
from repro.ir.expressions import Call
from repro.kernels import available_kernels

COMMON = dict(deadline=None, derandomize=True, suppress_health_check=list(HealthCheck))


def assert_all_agree(program, seed, rtol=1e-9):
    """``rtol=None``: float64 arrays, so the scalar lowering must match bit for bit."""
    reference, scalar, vector = oracle.run_all_python(program, seed)
    for name, expected in reference.items():
        if rtol is None:
            assert np.array_equal(expected, scalar[name], equal_nan=True), (
                f"lower-py differs on {name}"
            )
        for lowering, got in (("lower-py", scalar[name]), ("lower-py-vec", vector[name])):
            assert np.allclose(expected, got, rtol=rtol or 1e-9, atol=1e-12, equal_nan=True), (
                f"{lowering} differs on {name}"
            )


@settings(max_examples=200, **COMMON)
@given(oracle.programs(), st.integers(0, 3))
def test_unmapped_programs_agree(program, seed):
    assert_all_agree(program, seed, rtol=None)


@settings(max_examples=100, **COMMON)
@given(st.data(), st.integers(0, 3))
def test_mapped_programs_agree(data, seed):
    program = data.draw(oracle.programs(mappable=True))
    mapped = oracle.mapped_program(program, data.draw(oracle.configurations(program)))
    assume(mapped is not None)
    assert_all_agree(mapped, seed, rtol=None)


@pytest.mark.parametrize("tile, scratchpad", oracle.MAPPINGS)
@pytest.mark.parametrize("kernel_name", available_kernels())
def test_registered_kernels_agree_under_dividing_and_non_dividing_tiles(
    kernel_name, tile, scratchpad
):
    # the kernels declare float32 arrays, which the interpreter stores as such
    assert_all_agree(oracle.mapped_kernel(kernel_name, tile, scratchpad), seed=tile, rtol=1e-5)


#: intrinsic -> (its operands given the two input accesses, the numpy function it computes)
INTRINSICS = {
    "abs": (lambda a, b: (a - b,), np.abs),
    "min": (lambda a, b: (a, b), np.minimum),
    "max": (lambda a, b: (a, b), np.maximum),
    "sqrt": (lambda a, b: (a,), np.sqrt),
}


@pytest.mark.parametrize("func", sorted(INTRINSICS))
def test_every_intrinsic_runs_through_both_lowerings(func):
    operands, expected = INTRINSICS[func]
    builder = ProgramBuilder(f"intrinsic_{func}")
    a = builder.array("A", (6,), dtype="float64")
    b = builder.array("B", (6,), dtype="float64")
    out = builder.array("O", (6,), dtype="float64")
    with builder.loop("i", 0, 5) as i:
        builder.assign(out[i], Call(func, operands(a[i], b[i])))
    program = builder.build()
    assert_all_agree(program, seed=1, rtol=None)
    arrays = oracle.seeded_arrays(program, 1)
    assert np.array_equal(
        oracle.run_all_python(program, 1)[2]["O"], expected(*operands(arrays["A"], arrays["B"]))
    )


@pytest.mark.skipif(c_toolchain_skip_reason() is not None, reason="no C toolchain")
@settings(max_examples=10, **COMMON)
@given(st.data())
def test_the_c_harness_agrees(tmp_path_factory, data):
    program = data.draw(oracle.programs(mappable=True))
    mapped = oracle.mapped_program(program, data.draw(oracle.configurations(program)))
    assume(mapped is not None)
    arrays = oracle.lcg_arrays(mapped, seed=5)
    lowered = oracle.run_source(
        oracle.emit_python_source_vectorized(mapped), mapped, arrays
    )
    checksum = oracle.c_checksum(
        mapped, find_c_compiler(), tmp_path_factory.mktemp("harness"), seed=5
    )
    assert np.isclose(checksum, sum(float(v.sum()) for v in lowered.values()), rtol=1e-9)
