"""Staged compiler — session-replay speedup over the monolithic compile path.

The autotuner evaluates hundreds of configurations per tuning request.  A
monolithic compile per candidate re-runs the config-invariant affine
analysis (dependence polyhedra, bands, loop extents) for **every**
candidate; the staged :class:`repro.compiler.CompilationSession`
freezes the analysis artifact once per request and replays only the
config-dependent stages (``tiling → scratchpad → mapping``).

This harness runs the same ≥50-candidate hill-climb twice — once through
session replay, once through a cold compile per candidate
(:class:`MonolithicModelBackend`, bench-side code performing exactly the
monolithic path's work) — and reports the measured per-request speedup.  The
stage counters are the hard evidence: the session path executes the
``analysis`` stage once while the monolith executes it once per candidate.

Runs standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_compiler_stages.py --quick
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, Optional, Sequence

import pytest

from repro.autotune import (
    ConfigurationEvaluator,
    ConfigurationSpace,
    ModelBackend,
    RandomHillClimbSearch,
    SpaceOptions,
    make_batch_evaluator,
)
from repro.compiler import CompilationSession, counting_stage_runs
from repro.kernels import build_matmul_program

from conftest import DEFAULT_SEED, print_series

#: wide enough that the seeded hill-climb evaluates ≥ 50 candidates
SPACE = SpaceOptions(
    thread_counts=(64, 128),
    block_counts=(16, 32),
    tile_candidates_per_geometry=3,
)
STRATEGY_KNOBS = {"seed": DEFAULT_SEED, "restarts": 6, "max_steps": 8}
MIN_CANDIDATES = 50


class MonolithicModelBackend(ModelBackend):
    """The ``model:`` backend pricing every candidate from a cold session —
    stage-for-stage the work of the legacy monolithic ``compile_with_config``
    path, which the library no longer offers."""

    def _compile(self, configuration):
        session, _spec = self._require_prepared()
        cold = CompilationSession(
            session.program,
            spec=session.spec,
            options=session.options,
            param_values=session.param_values,
        )
        return cold.replay(from_stage="analysis", config=configuration)


def run_hillclimb(size: int, reuse_analysis: bool) -> Dict[str, object]:
    """One seeded hill-climb tuning request; returns timing + stage counts.

    ``reuse_analysis=False`` prices through :class:`MonolithicModelBackend`.
    """
    program = build_matmul_program(size, size, size)
    strategy = RandomHillClimbSearch(**STRATEGY_KNOBS)
    # The counted region covers the whole request — space construction (which
    # performs the request's one analysis) plus the search — matching what
    # one autotune() call does.
    with counting_stage_runs() as stage_runs:
        start = time.perf_counter()
        session = CompilationSession(program)
        space = ConfigurationSpace(program, space_options=SPACE, session=session)
        evaluator = ConfigurationEvaluator(
            program,
            session=session,
            backend=None if reuse_analysis else MonolithicModelBackend(),
        )
        results = strategy.run(space, make_batch_evaluator(evaluator))
        seconds = time.perf_counter() - start
    counts = dict(stage_runs.counts)
    return {
        "path": "session-replay" if reuse_analysis else "monolithic",
        "candidates": len(results),
        "seconds": seconds,
        "ms_per_candidate": 1e3 * seconds / max(len(results), 1),
        "analysis_runs": counts.get("analysis", 0),
        "tiling_runs": counts.get("tiling", 0),
        "results": results,
    }


def compare_paths(size: int) -> Dict[str, object]:
    """Run both paths on identical requests; returns rows + the speedup."""
    monolith = run_hillclimb(size, reuse_analysis=False)
    session = run_hillclimb(size, reuse_analysis=True)
    speedup = monolith["seconds"] / session["seconds"]
    return {"monolith": monolith, "session": session, "speedup": speedup}


@pytest.fixture(scope="module")
def comparison():
    data = compare_paths(size=64)
    rows = []
    for row in (data["monolith"], data["session"]):
        rows.append({k: v for k, v in row.items() if k != "results"})
    print_series("Staged compiler: monolithic vs session-replay hill-climb", rows)
    print_series(
        "Per-request speedup from analysis-artifact reuse",
        [{"speedup": f"{data['speedup']:.2f}x"}],
    )
    return data


def test_hillclimb_is_large_enough(comparison):
    """Acceptance: the tuning request evaluates at least 50 candidates."""
    assert comparison["session"]["candidates"] >= MIN_CANDIDATES
    assert comparison["monolith"]["candidates"] == comparison["session"]["candidates"]


def test_session_runs_analysis_once_per_request(comparison):
    """The stage counters prove the reuse: analysis once, not once per candidate.

    The session path's single analysis run happens when the request's shared
    session is built; the monolithic path re-analyses for every candidate.
    """
    session, monolith = comparison["session"], comparison["monolith"]
    assert session["analysis_runs"] <= 2
    assert monolith["analysis_runs"] >= monolith["candidates"]
    assert session["analysis_runs"] < monolith["analysis_runs"]
    # both paths execute the config-dependent stages once per candidate
    assert session["tiling_runs"] == monolith["tiling_runs"]


def test_session_reports_identical_results(comparison):
    """Artifact reuse must not change a single evaluation result."""
    session = [r.to_dict() for r in comparison["session"]["results"]]
    monolith = [r.to_dict() for r in comparison["monolith"]["results"]]
    assert session == monolith


def test_session_replay_is_not_slower(comparison):
    """The reused-analysis path must win (generous bound against timer noise;
    the measured speedup is printed by the fixture)."""
    assert comparison["session"]["seconds"] < comparison["monolith"]["seconds"] * 1.02


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the session-replay speedup of a ≥50-candidate "
        "hill-climb tuning request over the monolithic compile path."
    )
    parser.add_argument(
        "--size", type=int, default=64, help="matmul problem size (default: 64)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="small problem size for CI smoke runs"
    )
    args = parser.parse_args(argv)
    size = 32 if args.quick else args.size

    data = compare_paths(size)
    monolith, session = data["monolith"], data["session"]
    rows = [
        {k: v for k, v in row.items() if k != "results"}
        for row in (monolith, session)
    ]
    print_series("Staged compiler: monolithic vs session-replay hill-climb", rows)
    print(
        f"\nper-request speedup: {data['speedup']:.2f}x "
        f"({monolith['seconds']:.2f}s -> {session['seconds']:.2f}s over "
        f"{session['candidates']} candidates)"
    )
    print(
        f"analysis stage runs: monolithic={monolith['analysis_runs']} "
        f"session={session['analysis_runs']}"
    )
    if session["candidates"] < MIN_CANDIDATES:
        print(f"error: expected >= {MIN_CANDIDATES} candidates", flush=True)
        return 1
    if not session["analysis_runs"] < monolith["analysis_runs"]:
        print("error: session path did not reuse the analysis artifact", flush=True)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
