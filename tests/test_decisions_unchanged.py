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

The third column (``lower-py`` text) was re-recorded twice since: the lowering
now emits integer bounds and drops the guards its loops imply, so the text
moved — under report and ``emit`` digests that stayed byte-identical, i.e. no
decision did; and again when it started dropping redundant bound terms and
printing one-trip loops as substitutions (``LOWERING_REVISION`` 3), with the
report and ``emit`` digests again byte-identical; and once more when every
lowered module started counting each block's work (``LOWERING_REVISION`` 4),
with the report and ``emit`` digests byte-identical again.

``HYBRID_RECORDED`` pins the same triple under ``hybrid:model>measure-py?top=4``,
the end-to-end benchmark's cold-hybrid backend.  Since ``measure-py`` prices
one counted run instead of timing six, its re-rank — and so the crowned
mapping — is a function of the request, like the model's.  Its report
digests were re-recorded once, when ``measure-py`` stopped storing the block
count and the mean block in each measurement; no winner's code moved.

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
        "49765a76d8be123433c6918982106143a6ee84869b8d3c3c83778cc5dad0048d",
    ),
    "conv2d/pruned": (
        "67cf60703dbd9eee8eff8c5670cada45782fb6b8f96c263226d74c8243d2a7a7",
        "48b433eb95a6f96458e482f642f23f9586ba5ec0c24d731941ccc0444ee7a597",
        "49765a76d8be123433c6918982106143a6ee84869b8d3c3c83778cc5dad0048d",
    ),
    "distributed-gemm/hillclimb": (
        "0f7c6a8581a975198250d209ea57e29afd48c528a3f6b8aeb71296d2d9a02633",
        "48ac6ea2870eb388a65b50a9808bf44dc2c733df57d308bf551fedf2fc95d77c",
        "29f73aef4811c20e8877538f5ff715d87acef5ccc038044ea5e3208c69a601e5",
    ),
    "distributed-gemm/pruned": (
        "2b1ea89b941ac9ec84c35a2e0431348ee6a057db42be30c3429213780581fd5b",
        "48ac6ea2870eb388a65b50a9808bf44dc2c733df57d308bf551fedf2fc95d77c",
        "29f73aef4811c20e8877538f5ff715d87acef5ccc038044ea5e3208c69a601e5",
    ),
    "jacobi1d/hillclimb": (
        "5f3715a783fc79ed5a3fc20df0f9b180a70f12f7840450ef763f444ceef46243",
        "679bbe883a37c9613cf3caa222dddac19d75ab55d8843a6b080c2ecc5f412412",
        "ceb4c3ff0a89ef2c441b238ed61e4ac92cfffeaa82b67a9dcedf010ff7b48f5d",
    ),
    "jacobi1d/pruned": (
        "27e21be1aca985e270af6bf7b95a106b37580abb26eb30c301286f9b7810e5f7",
        "da470704633046fedf3a432fc1ab87018e0db1fb7ab9784013e6dae5d408f515",
        "00113bc5864691bc9b5f6a22bdf925c12667719bdfbca8ac11712659bdf9c92b",
    ),
    "jacobi2d/hillclimb": (
        "802473ef7a9edae8afb94b7f2cb9921c1dbfd97cec795b904cc04a28d38fd531",
        "c760a0da7ab8b38c3e1fff2321c13d55b858b92c5caa46427c1c3ce23a413933",
        "094520c2ac547851af8452730667f32669d3d2c07ed63f8a0362f3a104558111",
    ),
    "jacobi2d/pruned": (
        "02aeb329c07560bbfb90c5e99cd0afd6d4bff1b7c709f6f2b679142e46f5c16f",
        "c760a0da7ab8b38c3e1fff2321c13d55b858b92c5caa46427c1c3ce23a413933",
        "094520c2ac547851af8452730667f32669d3d2c07ed63f8a0362f3a104558111",
    ),
    "matmul/hillclimb": (
        "53a4f3ec95083b335fc98909ea59da6b34b451782f5850f67f660a4af0c3141a",
        "9ba084aaabc80c31e942915ddb6aff721d12630a00baeb65db50fecc692fdf50",
        "b48dc0e3ee1c50e1717a249127890ced99d0268b305838d2ee091122e96f8d47",
    ),
    "matmul/pruned": (
        "d37c128fc107d3820dba3e733ceae09bb71dfd9cfe56731f9d1cd0ea8cad519b",
        "6fbde9dea3491f3abae4244adb354b48a85990111651f18375a27a1cd8fab80b",
        "c4d34e59a52c602b1828e6c43379a44f8e3fc9689bb7292f06b1fda6abdc37e2",
    ),
    "mpeg4_me/hillclimb": (
        "58b7f89bc6d208eb1a3fd97a9185343614e4c485c67d8058ccc5eef66628f932",
        "050e25198374068b782709baf462b8941ae339d137da9df0d417c8bdfd776a65",
        "41fef00d135e9006f06e71775605936d4510bc6566ac66f8aa7faf8f9f5f0e17",
    ),
    "mpeg4_me/pruned": (
        "bb714b50c9426d3ec8ffed5aac1669546f8b11b6a3f12cea0efeb8c1238d5a76",
        "6874c46fe5994454b4742700e15232ea85ef38db68950059d18a9b9c4555e437",
        "41fef00d135e9006f06e71775605936d4510bc6566ac66f8aa7faf8f9f5f0e17",
    ),
}


#: "kernel/strategy" -> the same digests, tuned under :data:`HYBRID`
HYBRID_RECORDED = {
    "conv2d/hillclimb": (
        "fe2492f5f44e998ddb21ae600e6f609fd9a4fe1fc8d044e94712ea644db9ab50",
        "6fa499214e95fbc3eab6bcad1542e44e8010679eeff76d591ae9133935f3d4df",
        "49765a76d8be123433c6918982106143a6ee84869b8d3c3c83778cc5dad0048d",
    ),
    "conv2d/pruned": (
        "6ecf967678fc9f07b9f23d8080e1f1de3fa94623067422c190462a391dc75e17",
        "48b433eb95a6f96458e482f642f23f9586ba5ec0c24d731941ccc0444ee7a597",
        "49765a76d8be123433c6918982106143a6ee84869b8d3c3c83778cc5dad0048d",
    ),
    "jacobi1d/hillclimb": (
        "500d8898da6285f73cf1846f0dd35f1d995a8945a45ef31ec0d16fb0150fce3f",
        "679bbe883a37c9613cf3caa222dddac19d75ab55d8843a6b080c2ecc5f412412",
        "ceb4c3ff0a89ef2c441b238ed61e4ac92cfffeaa82b67a9dcedf010ff7b48f5d",
    ),
    "jacobi1d/pruned": (
        "085e662991cf6619b28b1f3edb42e173d24fcec409514f89313291e50cb19e7a",
        "da470704633046fedf3a432fc1ab87018e0db1fb7ab9784013e6dae5d408f515",
        "00113bc5864691bc9b5f6a22bdf925c12667719bdfbca8ac11712659bdf9c92b",
    ),
    "jacobi2d/hillclimb": (
        "02354c2a5c77365661884bf89f74ce341d5723f4235bced14b676a606383d8d8",
        "c760a0da7ab8b38c3e1fff2321c13d55b858b92c5caa46427c1c3ce23a413933",
        "094520c2ac547851af8452730667f32669d3d2c07ed63f8a0362f3a104558111",
    ),
    "jacobi2d/pruned": (
        "64fda59c8cd906c5db5f8d74b0910afb4d86ae7793a4a7c232e47b2650ac75f3",
        "c760a0da7ab8b38c3e1fff2321c13d55b858b92c5caa46427c1c3ce23a413933",
        "094520c2ac547851af8452730667f32669d3d2c07ed63f8a0362f3a104558111",
    ),
    "matmul/hillclimb": (
        "0ced48d9ae00a2860ebc9b8589873b68c723e538acec7b53c8ee190ade46e56f",
        "9ba084aaabc80c31e942915ddb6aff721d12630a00baeb65db50fecc692fdf50",
        "b48dc0e3ee1c50e1717a249127890ced99d0268b305838d2ee091122e96f8d47",
    ),
    "matmul/pruned": (
        "ae0c782c407385b30b173b37b412b36469402b9ea9cbd5414521b5080d6f86cd",
        "6fbde9dea3491f3abae4244adb354b48a85990111651f18375a27a1cd8fab80b",
        "c4d34e59a52c602b1828e6c43379a44f8e3fc9689bb7292f06b1fda6abdc37e2",
    ),
    "mpeg4_me/hillclimb": (
        "91f180d77df3e77c3d552c84270db7b898f1f9054fb2a9430e61f3a1022f8e6b",
        "050e25198374068b782709baf462b8941ae339d137da9df0d417c8bdfd776a65",
        "41fef00d135e9006f06e71775605936d4510bc6566ac66f8aa7faf8f9f5f0e17",
    ),
    "mpeg4_me/pruned": (
        "5307df85a7d26a05ec473d8e064495193c7d892d944402d459a5d36b71674fe8",
        "6874c46fe5994454b4742700e15232ea85ef38db68950059d18a9b9c4555e437",
        "41fef00d135e9006f06e71775605936d4510bc6566ac66f8aa7faf8f9f5f0e17",
    ),
}
HYBRID = "hybrid:model>measure-py?top=4"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(case, backend=None):
    name, strategy = case.split("/")
    kernel = get_kernel(name)
    program = kernel.build(**SIZES[name])
    report = autotune(
        program, strategy=strategy, space_options=SPACE, seed=0, grid=kernel.grid,
        backend=backend,
    )
    session = CompilationSession(
        program,
        passes=("analysis", "tiling", "scratchpad", "mapping", "emit", "lower-py"),
    )
    artifacts = session.replay_artifacts(config=report.best.configuration)
    return (
        _sha(json.dumps(report.to_dict(), sort_keys=True)),
        _sha(artifacts["emit"].value),
        _sha(artifacts["lower-py"].value),
    )


def test_every_registered_kernel_is_recorded():
    assert sorted(SIZES) == available_kernels()
    assert sorted(RECORDED) == sorted(
        f"{name}/{strategy}" for name in SIZES for strategy in ("pruned", "hillclimb")
    )


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_report_and_winner_code_match_the_recorded_digests(case):
    assert _digests(case) == RECORDED[case]


@pytest.mark.parametrize("case", sorted(HYBRID_RECORDED))
def test_hybrid_report_and_winner_code_match_the_recorded_digests(case):
    assert _digests(case, HYBRID) == HYBRID_RECORDED[case]
