"""One request vocabulary across both command lines.

``python -m repro.autotune KERNEL …`` and ``python -m repro.service submit
KERNEL …`` parse the same request flags into the same :class:`TuneRequest`,
so a library-CLI tune and a server submission of one command line name one
cache entry.  Also pins the library CLI's exit codes and space flags, and
the layering rule that :mod:`repro.autotune` imports nothing from
:mod:`repro.service`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.autotune import space as space_module
from repro.autotune import session as session_module
from repro.autotune.cli import build_parser as autotune_parser
from repro.autotune.cli import main as cli_main
from repro.autotune.cli import tune_request
from repro.compiler import counting_compiles, counting_stage_runs
from repro.service import TuningServer
from repro.service.cli import build_parser as service_parser
from repro.service.cli import main as service_cli
from repro.service.cli import submitted_request
from repro.telemetry import METRICS

AUTOTUNE_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro" / "autotune"

MATMUL = ["matmul", "--size", "m=16", "n=16", "k=16", "--threads", "64", "--blocks", "16"]


@pytest.mark.parametrize(
    "tail",
    [
        ["matmul"],
        MATMUL,
        ["jacobi1d", "--size", "size=64", "--strategy", "exhaustive", "--seed", "3",
         "--check", "--backend", "measure-py:", "--threads", "64", "128"],
        ["distributed-gemm", "--blocks", "16", "32"],
    ],
)
def test_both_clis_parse_one_request(tail):
    library = tune_request(autotune_parser().parse_args(tail))
    service = submitted_request(service_parser().parse_args(["submit", *tail]))
    assert library == service


def test_a_library_cli_tune_answers_the_same_service_submission(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    assert cli_main([*MATMUL, "--cache", cache, "--top", "1"]) == 0
    assert "pipeline compiles this call: 0" not in capsys.readouterr().out
    server = TuningServer(port=0, executor="thread", max_workers=1, cache=cache).start()
    try:
        assert service_cli(["submit", *MATMUL, "--url", server.url, "--wait"]) == 0
    finally:
        server.stop()
    out = capsys.readouterr().out
    assert "outcome: cached" in out
    assert "compiles: 0" in out


def test_a_distributed_kernel_under_measure_py_exits_2_before_any_compile(capsys):
    with counting_compiles() as compiles, counting_stage_runs() as stages:
        assert cli_main(["distributed-gemm", "--backend", "measure-py:"]) == 2
    assert compiles.count == 0
    assert not stages.counts
    assert "distributed" in capsys.readouterr().err


def test_allow_no_scratchpad_reaches_the_space(monkeypatch, capsys):
    seen = []

    class RecordingSpace(space_module.ConfigurationSpace):
        def __init__(self, program, **kwargs):
            seen.append(kwargs["space_options"])
            super().__init__(program, **kwargs)

    monkeypatch.setattr(session_module, "ConfigurationSpace", RecordingSpace)
    assert cli_main([*MATMUL, "--allow-no-scratchpad", "--top", "1"]) == 0
    assert [options.scratchpad_choices for options in seen] == [(True, False)]
    assert [options.thread_counts for options in seen] == [(64,)]


def test_a_missing_c_compiler_exits_3(capsys):
    assert cli_main([*MATMUL, "--backend", "measure-c:cc=/nonexistent"]) == 3
    assert "error:" in capsys.readouterr().err


def test_autotune_imports_nothing_from_service():
    offenders = []
    for path in sorted(AUTOTUNE_PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name == "repro.service" or name.startswith("repro.service.")
            ]
    assert offenders == []


def test_no_artifact_cache_metric_is_registered():
    assert METRICS.get("repro_artifact_cache_total") is None
