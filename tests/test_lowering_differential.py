"""Interpreter ≡ ``lower-py`` ≡ ``lower-py-vec`` ≡ the C harness on generated programs.

The licence for emitting integer bounds, pruned guards and bound terms,
substituted point loops, slices and dot products: on every small affine
program ``lowering_oracle.programs`` can draw, unmapped or run through tiling
→ scratchpad → mapping under a drawn configuration, the three Python-side
executors leave the same arrays behind, and count the same work: the two
lowerings' per-block counts are equal, and their totals are the
interpreter's ``AccessCounters``.  The scalar lowering performs the
interpreter's float operations in the interpreter's order, so it must match
bit for bit; the vectorised one sums reductions pairwise (or as a dot), so
it gets a tolerance.  Examples are derandomised: tier-1 runs the same cases (and
takes the same time) every time.  All three executable printers print one
lowering, so the C harness tests exactly the guards ``lower-py`` keeps, and
the printers themselves never touch the polyhedral layer.
"""

import ast
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import lowering_oracle as oracle
import repro.codegen
from repro.codegen.lower import LOWERING_REVISION
from repro.codegen.toolchain import c_toolchain_skip_reason, find_c_compiler
from repro.ir.builder import ProgramBuilder
from repro.ir.expressions import Call
from repro.kernels import available_kernels

COMMON = dict(deadline=None, derandomize=True, suppress_health_check=list(HealthCheck))


def assert_all_agree(program, seed, rtol=1e-9):
    """``rtol=None``: float64 arrays, so the scalar lowering must match bit for bit.

    The counts agree exactly: both lowerings count the same work per block,
    and their totals are the interpreter's ``AccessCounters``."""
    (reference, counted), (scalar, scalar_blocks), (vector, vector_blocks) = (
        oracle.run_all_python(program, seed)
    )
    assert scalar_blocks == vector_blocks
    assert oracle.lowered_totals(vector_blocks) == counted
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
        oracle.run_all_python(program, 1)[2][0]["O"], expected(*operands(arrays["A"], arrays["B"]))
    )


requires_c_toolchain = pytest.mark.skipif(
    c_toolchain_skip_reason() is not None, reason="no C toolchain"
)


def assert_the_c_harness_agrees(mapped, workdir):
    """The harness's checksum is the sum of every array ``lower-py-vec`` leaves."""
    arrays = oracle.lcg_arrays(mapped, seed=5)
    lowered, _blocks = oracle.run_source(
        oracle.emit_python_source_vectorized(mapped), mapped, arrays
    )
    checksum = oracle.c_checksum(mapped, find_c_compiler(), workdir, seed=5)
    assert np.isclose(checksum, sum(float(v.sum()) for v in lowered.values()), rtol=1e-9)


@requires_c_toolchain
@settings(max_examples=10, **COMMON)
@given(st.data())
def test_the_c_harness_agrees(tmp_path_factory, data):
    program = data.draw(oracle.programs(mappable=True))
    mapped = oracle.mapped_program(program, data.draw(oracle.configurations(program)))
    assume(mapped is not None)
    assert_the_c_harness_agrees(mapped, tmp_path_factory.mktemp("harness"))


@requires_c_toolchain
@pytest.mark.parametrize("kernel_name", available_kernels())
def test_the_c_harness_agrees_on_registered_kernels(tmp_path, kernel_name):
    assert_the_c_harness_agrees(oracle.mapped_kernel(kernel_name, 3, True), tmp_path)


def c_kernel_body(program):
    harness = oracle.emit_c_harness(program)
    return harness[harness.index("static void kernel(void)") : harness.index("int main(")]


@pytest.mark.parametrize("tile, scratchpad", oracle.MAPPINGS)
@pytest.mark.parametrize("kernel_name", available_kernels())
def test_the_c_harness_tests_exactly_the_guards_lower_py_keeps(kernel_name, tile, scratchpad):
    mapped = oracle.mapped_kernel(kernel_name, tile, scratchpad)
    python_ifs = re.findall(r"(?m)^ *if ", oracle.emit_python_source(mapped))
    assert c_kernel_body(mapped).count("if (") == len(python_ifs) == 0


@settings(max_examples=40, **COMMON)
@given(oracle.programs())
def test_generated_programs_test_the_same_guards_in_c_and_python(program):
    python_ifs = re.findall(r"(?m)^ *if ", oracle.emit_python_source(program))
    assert c_kernel_body(program).count("if (") == len(python_ifs)


@pytest.mark.parametrize("printer", ["emit_py", "emit_py_vec", "emit_c_exec"])
def test_printers_import_nothing_from_the_polyhedral_layer(printer):
    tree = ast.parse((Path(repro.codegen.__file__).parent / f"{printer}.py").read_text())
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    ]
    assert imported and not [name for name in imported if "polyhedral" in name], imported


#: LOWERING_REVISION -> kernel -> sha256 of its (``lower-py``, ``lower-py-vec``) text
#: under mapping (4, True): what a revision number certifies
PINNED_TEXT = {
    2: {
        "conv2d": (
            "4e18fdaeb2a91e8bedf43cd46c206ebd6fc17f43e23e88ed508fa0729d57939b",
            "4e2341459702c7017de187d8fe3ed5dfd959b3b487a4b28da84df7a375b0cbe5",
        ),
        "distributed-gemm": (
            "13d1fecb61c0acbf239c4c125a6e08dd1880e61e619ac3bcc88106477758f116",
            "df461a333441c832f1afe56fa4c7543b43d8566461850ddc1809b35e295bc6d2",
        ),
        "jacobi1d": (
            "7bda863f98e4f413314cf33bf082d57392c7867a9698ef25d0994e24ef1d6e5b",
            "890e50786e52b8fcb3699adb3b251719e050970dbf855fceaf6728ed8228937a",
        ),
        "jacobi2d": (
            "a7dcdd39e9329f13dadcfc3a6ca9a0bd349438a29a8ffd3271aaa3cc41a030ec",
            "d8b0cdb9f51b80f1e0b7a015370f5ccf287ba83551652f8f8b88901660075c00",
        ),
        "matmul": (
            "13d1fecb61c0acbf239c4c125a6e08dd1880e61e619ac3bcc88106477758f116",
            "df461a333441c832f1afe56fa4c7543b43d8566461850ddc1809b35e295bc6d2",
        ),
        "mpeg4_me": (
            "a97d4257c530d959d07f08dfe9c9529cab9a9c9626d3ee567b5962c00ac54634",
            "f8362f37b83f933c75ee703e4c8f0cf723ad7af95beefce5fb1c7e78ea6dac59",
        ),
    },
    3: {
        "conv2d": (
            "f0a6a30f63494f51038e8dec72683b9da2c4b3c9d287c6a46aedc71e0ae5579c",
            "36b4778bc95c18d9b70251220e8e82e37bb7ed0c335e2de61f90e4744ed67f32",
        ),
        "distributed-gemm": (
            "b359d6835af1543aafbe9a6fc40de37245a2c1e111618aa1bf5bdb8e7b2fae2e",
            "88fb41847c5fa43545781099eb0e0232b621a0ef9cc4960a1c8f3e61cf582ada",
        ),
        "jacobi1d": (
            "551d067ea969191e94cdcf338e266a09ea6b2133e6216531a1ccd10298557a32",
            "2ea4c695690d0b7d84e2e2a6b17d6ef1e5533b6c6dd363955f42ef17a5acd677",
        ),
        "jacobi2d": (
            "c7a8fce188ccb76fd3ad740dd3949978dc971591d5f67c3e4699b417f1472a49",
            "1b018ac7e975628872201439fe90be050a21639b0ade6fda7d880e93130f326e",
        ),
        "matmul": (
            "b359d6835af1543aafbe9a6fc40de37245a2c1e111618aa1bf5bdb8e7b2fae2e",
            "88fb41847c5fa43545781099eb0e0232b621a0ef9cc4960a1c8f3e61cf582ada",
        ),
        "mpeg4_me": (
            "7a8eef4b74d30ce1fabd8d23b4e9bcecb7f8e7f0d244c8d052117d5d080364a6",
            "6e5f7efb81599e3d8f3b73300755ffc3e285a07d3c127025f6c698b262c2b594",
        ),
    },
    4: {
        "conv2d": (
            "c5b11b340da649eb3a41dbee1e4f23c18b110d93dd544c1944938446f3426bda",
            "ef3925766dd05e46fdd102408a14d49542bd2dabbdee805575f9f88b010d03ae",
        ),
        "distributed-gemm": (
            "bf324e124dac5c41d2598ad0c1dc36dc575ebab82c8422ee7658e902335c5f45",
            "c606acbeb1fe7780d749a16c661a60aa98b8c8ec6d6d6d97fb5169cadd60fbc7",
        ),
        "jacobi1d": (
            "1607b019343cb5a6341974de5cbd6f60aaa8f305a5fad62d413ccc3401ddb8cc",
            "3c06e07fa84bd90ed31968cdc0835a1d94fd1b71e195bee056b1f30951127203",
        ),
        "jacobi2d": (
            "2dc2bc836426750376643174dfa9889cb78d0daff55ce65f85ba5646bc4d0d07",
            "fe28804d6bf339cb54c18b250a5d47b965b4cdf1f4a87385fcd6b606233e04b9",
        ),
        "matmul": (
            "bf324e124dac5c41d2598ad0c1dc36dc575ebab82c8422ee7658e902335c5f45",
            "c606acbeb1fe7780d749a16c661a60aa98b8c8ec6d6d6d97fb5169cadd60fbc7",
        ),
        "mpeg4_me": (
            "263201fa82741065876ac3350ec39963d14631072ae06eb6cab43b957dd7a59a",
            "344f42afef3cc8bd1e9886bde10634f47791b6e005f4c2441c6b48bb24678a9b",
        ),
    },
}


def test_the_lowered_text_is_pinned_to_its_revision():
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    lowered = {
        name: (
            digest(oracle.emit_python_source(mapped)),
            digest(oracle.emit_python_source_vectorized(mapped)),
        )
        for name in available_kernels()
        for mapped in [oracle.mapped_kernel(name, 4, True)]
    }
    assert lowered == PINNED_TEXT.get(LOWERING_REVISION), (
        "the lower-py / lower-py-vec text moved: if its speed class changed, bump "
        "`LOWERING_REVISION` (measure-py and measure-c keys then move once) and pin "
        "the new digests under the new revision; otherwise re-pin them under this one"
    )
