"""Decisions-unchanged regression test.

The digests below were recorded at the commit *before* the Fourier–Motzkin
core became an integer-row kernel: for every registered kernel at the smallest
size a benchmark tunes it at, under ``pruned`` and ``hillclimb``, the SHA-256
of the canonical ``TuningReport.to_dict()`` (fingerprint, every candidate's
time, cycles and breakdown included) and of the winner's ``emit`` (C) and
``lower-py`` text.  A "speed-up" of the polyhedral layer, the cost model or
the search that changes a bound order, a tile ranking, a fingerprint or one
emitted character fails here first.  When a change is *meant* to move a
decision, re-record the affected rows and say why in the commit.

The third column (``lower-py`` text) was re-recorded once since: the lowering
now emits integer bounds and drops the guards its loops imply, so the text
moved — under report and ``emit`` digests that stayed byte-identical, i.e. no
decision did.

The §4.3 relaxation was then moved from scipy's SLSQP to the in-repo SQP
(``tiling/tile_search.py``), a change allowed to move decisions under the rule
that no row's winner gets a worse exact model cost.  Re-run, no row moved: at
these sizes and this one-geometry space both solvers reach the same relaxed
point, so nothing was re-recorded.
"""

import hashlib
import json

import pytest

from repro.autotune import SpaceOptions, autotune
from repro.compiler import CompilationSession
from repro.kernels import available_kernels, get_kernel

#: the end-to-end benchmark's cold space: one launch geometry, two tile vectors
SPACE = SpaceOptions(
    thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
)
SIZES = {
    "matmul": {"m": 32, "n": 32, "k": 32},
    "conv2d": {"height": 16, "width": 16, "kernel": 3},
    "jacobi1d": {"size": 1024},
    "jacobi2d": {"height": 16, "width": 16},
    "distributed-gemm": {"m": 32, "n": 32, "k": 32},
    "mpeg4_me": {"height": 16, "width": 16, "window": 2},
}
#: "kernel/strategy" -> SHA-256 of (report, winner's emit text, winner's lower-py text)
RECORDED = {
    "conv2d/hillclimb": (
        "f7e4f28c1c9558b56acffcef01dbae1ff708cb508222c7837d5f2e0b619f119c",
        "6fa499214e95fbc3eab6bcad1542e44e8010679eeff76d591ae9133935f3d4df",
        "7e2bb313221a5bb30ee120720982ce6e6fb6fc2a8f643731de58024c1db88674",
    ),
    "conv2d/pruned": (
        "67cf60703dbd9eee8eff8c5670cada45782fb6b8f96c263226d74c8243d2a7a7",
        "48b433eb95a6f96458e482f642f23f9586ba5ec0c24d731941ccc0444ee7a597",
        "7e2bb313221a5bb30ee120720982ce6e6fb6fc2a8f643731de58024c1db88674",
    ),
    "distributed-gemm/hillclimb": (
        "0f7c6a8581a975198250d209ea57e29afd48c528a3f6b8aeb71296d2d9a02633",
        "48ac6ea2870eb388a65b50a9808bf44dc2c733df57d308bf551fedf2fc95d77c",
        "f39997c056e6a74224182297cd17e559bd5d13a026caaf305114ff8c45598108",
    ),
    "distributed-gemm/pruned": (
        "2b1ea89b941ac9ec84c35a2e0431348ee6a057db42be30c3429213780581fd5b",
        "48ac6ea2870eb388a65b50a9808bf44dc2c733df57d308bf551fedf2fc95d77c",
        "f39997c056e6a74224182297cd17e559bd5d13a026caaf305114ff8c45598108",
    ),
    "jacobi1d/hillclimb": (
        "5f3715a783fc79ed5a3fc20df0f9b180a70f12f7840450ef763f444ceef46243",
        "679bbe883a37c9613cf3caa222dddac19d75ab55d8843a6b080c2ecc5f412412",
        "95ba759e5d6473215014825068da533b0f4cf19534589674199ad4efe0c9a86c",
    ),
    "jacobi1d/pruned": (
        "27e21be1aca985e270af6bf7b95a106b37580abb26eb30c301286f9b7810e5f7",
        "da470704633046fedf3a432fc1ab87018e0db1fb7ab9784013e6dae5d408f515",
        "23c401c79f3afc59eed6c5129b2577dd5a6e04f86aeb2c85fac9838ca0da2deb",
    ),
    "jacobi2d/hillclimb": (
        "802473ef7a9edae8afb94b7f2cb9921c1dbfd97cec795b904cc04a28d38fd531",
        "c760a0da7ab8b38c3e1fff2321c13d55b858b92c5caa46427c1c3ce23a413933",
        "716519909e62f30750b7ba7880fe313dde9ca9eca2ade092d43db8bac91ba756",
    ),
    "jacobi2d/pruned": (
        "02aeb329c07560bbfb90c5e99cd0afd6d4bff1b7c709f6f2b679142e46f5c16f",
        "c760a0da7ab8b38c3e1fff2321c13d55b858b92c5caa46427c1c3ce23a413933",
        "716519909e62f30750b7ba7880fe313dde9ca9eca2ade092d43db8bac91ba756",
    ),
    "matmul/hillclimb": (
        "53a4f3ec95083b335fc98909ea59da6b34b451782f5850f67f660a4af0c3141a",
        "9ba084aaabc80c31e942915ddb6aff721d12630a00baeb65db50fecc692fdf50",
        "08f48410490ce3653646f332acc652ee11eae36c6c787701ee011cea0b6d03eb",
    ),
    "matmul/pruned": (
        "d37c128fc107d3820dba3e733ceae09bb71dfd9cfe56731f9d1cd0ea8cad519b",
        "6fbde9dea3491f3abae4244adb354b48a85990111651f18375a27a1cd8fab80b",
        "1b3fc2030836677c46b0d09e6fd5985aa6f818ac98c3e940637af18cacc21870",
    ),
    "mpeg4_me/hillclimb": (
        "58b7f89bc6d208eb1a3fd97a9185343614e4c485c67d8058ccc5eef66628f932",
        "050e25198374068b782709baf462b8941ae339d137da9df0d417c8bdfd776a65",
        "a6f0350bf36b2c8e0d80e82885e00042d775bc67f5dffcdd453ac72fdd4fd747",
    ),
    "mpeg4_me/pruned": (
        "bb714b50c9426d3ec8ffed5aac1669546f8b11b6a3f12cea0efeb8c1238d5a76",
        "6874c46fe5994454b4742700e15232ea85ef38db68950059d18a9b9c4555e437",
        "a6f0350bf36b2c8e0d80e82885e00042d775bc67f5dffcdd453ac72fdd4fd747",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_registered_kernel_is_recorded():
    assert sorted(SIZES) == available_kernels()
    assert sorted(RECORDED) == sorted(
        f"{name}/{strategy}" for name in SIZES for strategy in ("pruned", "hillclimb")
    )


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_report_and_winner_code_match_the_recorded_digests(case):
    name, strategy = case.split("/")
    kernel = get_kernel(name)
    program = kernel.build(**SIZES[name])
    report = autotune(
        program, strategy=strategy, space_options=SPACE, seed=0, grid=kernel.grid
    )
    session = CompilationSession(
        program,
        passes=("analysis", "tiling", "scratchpad", "mapping", "emit", "lower-py"),
    )
    artifacts = session.replay_artifacts(config=report.best.configuration)
    assert (
        _sha(json.dumps(report.to_dict(), sort_keys=True)),
        _sha(artifacts["emit"].value),
        _sha(artifacts["lower-py"].value),
    ) == RECORDED[case]
