"""The ISSUE-8 evaluation fast path — reuse counters and wall-time proof.

Three sections, one per fast-path layer:

* **compile-cache** — a cold ``measure-c:`` tune followed by the identical
  warm tune against one on-disk binary cache; the
  ``repro_compile_cache_total`` deltas prove the warm request performs
  ≥ 80% fewer ``cc`` invocations (it performs zero).  Skipped cleanly on
  toolchain-less hosts.
* **vectorised lower-py** — rank-order one explicit matmul candidate set
  (long innermost k-loops, where vectorisation matters) under
  ``vectorize=off`` and ``vectorize=on``; both must crown the same winner
  while the vectorised pass does it ≥ 3x faster.
* **artifact-cache** — two identical ``autotune`` requests sharing an
  :class:`~repro.compiler.ArtifactCache`; the second runs the analysis pass
  zero times (``repro_artifact_cache_total{outcome="hit"}``).

Runs standalone for CI::

    PYTHONPATH=src python benchmarks/bench_eval_path.py --quick --json BENCH_eval_path.json

With ``--history FILE`` the scalar/vectorised tunes append two rounds of
:class:`~repro.telemetry.history.HistoryRecord` per backend, giving the
``history check`` regression sentinel a comparable window over the
evaluation path's wall time.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import pytest

from repro.autotune import ConfigurationEvaluator, SpaceOptions, autotune
from repro.autotune.space import Configuration
from repro.codegen.compile_cache import COMPILE_CACHE_TOTAL
from repro.codegen.toolchain import c_toolchain_skip_reason
from repro.compiler import ArtifactCache, counting_stage_runs
from repro.compiler.artifact_cache import ARTIFACT_CACHE_TOTAL
from repro.kernels import build_matmul_program

from conftest import DEFAULT_SEED, print_series

#: one geometry, no scratchpad branch — keeps the measure-c space tiny
C_SPACE = SpaceOptions(
    thread_counts=(16,),
    block_counts=(4,),
    scratchpad_choices=(False,),
    tile_candidates_per_geometry=2,
)
MODEL_SPACE = SpaceOptions(
    thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
)


def compile_cache_reuse(size: int, cache_dir: str) -> Dict[str, object]:
    """Cold vs warm ``measure-c:`` tune against one shared binary cache."""
    backend = f"measure-c:warmup=0,repeat=1,cache={cache_dir}"

    def cc_invocations() -> float:
        # every cache miss is exactly one ``cc`` run; hits are zero
        return COMPILE_CACHE_TOTAL.value(outcome="miss")

    before = cc_invocations()
    autotune(
        build_matmul_program(size, size, size),
        space_options=C_SPACE,
        backend=backend,
        seed=DEFAULT_SEED,
    )
    cold = cc_invocations() - before
    autotune(
        build_matmul_program(size, size, size),
        space_options=C_SPACE,
        backend=backend,
        seed=DEFAULT_SEED,
    )
    warm = cc_invocations() - before - cold
    reduction = 100.0 * (1.0 - warm / cold) if cold else 0.0
    return {
        "cold_cc_invocations": int(cold),
        "warm_cc_invocations": int(warm),
        "reduction_pct": reduction,
        "cache_hits": int(COMPILE_CACHE_TOTAL.value(outcome="hit")),
    }


def _long_k_candidates(size: int) -> List[Configuration]:
    """Matmul mappings whose innermost (k) loop is long — where numpy pays.

    Exactly one candidate skips the scratchpad staging copies: it is the
    structural winner under both lowerings (the copies are real extra work
    either way), so the same-winner acceptance does not hinge on timing noise
    between otherwise-equivalent geometries.  The staged candidates use small
    ``i``/``j`` tiles: since the lowering emits copies as guard-free slice
    assignments, re-staging full-``k`` panels for 32x32 tiles is only ~3 % of
    a run — below run-to-run noise — while for these it is a quarter or more.
    """
    return [
        Configuration.make(4, 16, {"i": 32, "j": 32, "k": size}, False),
        Configuration.make(8, 32, {"i": 16, "j": 8, "k": size}, True),
        Configuration.make(8, 32, {"i": 8, "j": 8, "k": size}, True),
        Configuration.make(8, 32, {"i": 8, "j": 4, "k": size}, True),
    ]


def vectorised_rank_order(size: int) -> Dict[str, object]:
    """Rank one candidate set scalar vs vectorised; same winner, ≥3x faster."""
    program = build_matmul_program(size, size, size)
    candidates = _long_k_candidates(size)
    stats: Dict[str, object] = {"candidates": len(candidates)}
    winners: Dict[str, str] = {}
    for mode in ("off", "on"):
        evaluator = ConfigurationEvaluator(
            program,
            seed=DEFAULT_SEED,
            # three timed runs: the trimmed median is then a true median, so one
            # scheduler hiccup cannot pick the winner
            backend=f"measure-py:warmup=0,repeat=3,vectorize={mode}",
        )
        started = time.perf_counter()
        results = [evaluator.evaluate(config) for config in candidates]
        elapsed = time.perf_counter() - started
        best = min((r for r in results if r.feasible), key=lambda r: r.time_ms)
        label = "scalar" if mode == "off" else "vectorised"
        stats[f"{label}_wall_s"] = elapsed
        winners[label] = best.configuration.key()
    stats["same_winner"] = winners["scalar"] == winners["vectorised"]
    stats["winner"] = winners["vectorised"]
    stats["speedup"] = stats["scalar_wall_s"] / stats["vectorised_wall_s"]
    return stats


def tune_walltime(
    size: int, history: Optional[str], rounds: int
) -> List[Dict[str, object]]:
    """Full scalar vs vectorised tunes — the history sentinel's bench round."""
    rows: List[Dict[str, object]] = []
    for mode in ("off", "on"):
        backend = f"measure-py:warmup=0,repeat=2,vectorize={mode}"
        for _ in range(rounds):
            program = build_matmul_program(size, size, size)
            started = time.perf_counter()
            report = autotune(
                program,
                space_options=MODEL_SPACE,
                backend=backend,
                seed=DEFAULT_SEED,
                history=history,
            )
            elapsed = time.perf_counter() - started
        rows.append(
            {
                "vectorize": mode,
                "wall_s": elapsed,
                "evaluations": len(report.results),
                "best_ms": report.best.time_ms,
                "lowering": report.best.measurement.metadata["lowering"],
            }
        )
    return rows


def artifact_cache_reuse(size: int) -> Dict[str, object]:
    """Two identical requests through one artifact cache: analysis 1 then 0."""
    cache = ArtifactCache()
    hits_before = ARTIFACT_CACHE_TOTAL.value(outcome="hit")
    # counts materialise at context exit — read them only after the block
    with counting_stage_runs() as cold_runs:
        autotune(
            build_matmul_program(size, size, size),
            space_options=MODEL_SPACE,
            artifact_cache=cache,
            seed=DEFAULT_SEED,
        )
    with counting_stage_runs() as warm_runs:
        autotune(
            build_matmul_program(size, size, size),
            space_options=MODEL_SPACE,
            artifact_cache=cache,
            seed=DEFAULT_SEED,
        )
    return {
        "cold_analysis_runs": cold_runs.counts.get("analysis", 0),
        "warm_analysis_runs": warm_runs.counts.get("analysis", 0),
        "artifact_cache_hits": int(
            ARTIFACT_CACHE_TOTAL.value(outcome="hit") - hits_before
        ),
    }


# -- pytest entry points -----------------------------------------------------------
def test_artifact_cache_round_is_well_formed() -> None:
    stats = artifact_cache_reuse(16)
    assert stats["cold_analysis_runs"] == 1
    assert stats["warm_analysis_runs"] == 0
    assert stats["artifact_cache_hits"] >= 1


def test_vectorised_rank_order_keeps_the_winner() -> None:
    stats = vectorised_rank_order(32)
    assert stats["same_winner"]
    assert stats["vectorised_wall_s"] > 0
    # NOTE: the ≥3x speedup is asserted in `main()` at the full bench size —
    # at this toy size the ratio is real but noisy, so only shape is pinned


@pytest.mark.skipif(
    c_toolchain_skip_reason() is not None,
    reason=c_toolchain_skip_reason() or "C toolchain present",
)
def test_compile_cache_round_eliminates_warm_compiles(tmp_path) -> None:
    stats = compile_cache_reuse(8, str(tmp_path / "bin"))
    assert stats["cold_cc_invocations"] >= 1
    assert stats["warm_cc_invocations"] == 0
    assert stats["reduction_pct"] == 100.0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Evaluation fast path: compile/artifact cache reuse and "
        "vectorised lowering speedup."
    )
    parser.add_argument(
        "--size", type=int, default=96,
        help="matmul problem size (must be divisible by 32 — the rank-order "
        "candidates tile i/j at 32)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller spaces for CI (the vectorised section keeps the full "
        "size — the ≥3x claim is only meaningful on long innermost loops)",
    )
    parser.add_argument(
        "--json", metavar="OUT", default=None,
        help="merge results + telemetry counters into OUT",
    )
    parser.add_argument(
        "--history", metavar="FILE", default=None,
        help="append two rounds of tuning HistoryRecords to FILE for the "
        "'history check' regression gate",
    )
    args = parser.parse_args(argv)
    size = args.size
    failures: List[str] = []

    skip_reason = c_toolchain_skip_reason()
    if skip_reason is None:
        with tempfile.TemporaryDirectory(prefix="bench-eval-path-cc-") as cache_dir:
            cc_stats = compile_cache_reuse(8 if args.quick else 16, cache_dir)
        print_series("measure-c compile-cache reuse (cold vs warm tune)", [cc_stats])
        if cc_stats["reduction_pct"] < 80.0:
            failures.append(
                f"warm measure-c reduction {cc_stats['reduction_pct']:.0f}% < 80%"
            )
        print(
            f"\ncompile cache: warm request ran {cc_stats['warm_cc_invocations']} "
            f"cc invocations vs {cc_stats['cold_cc_invocations']} cold "
            f"({cc_stats['reduction_pct']:.0f}% reduction)"
        )
    else:
        cc_stats = {"skipped": skip_reason}
        print(f"\ncompile cache section skipped: {skip_reason}")

    vec_stats = vectorised_rank_order(size)
    print_series(
        f"scalar vs vectorised lower-py rank-order (matmul {size}^3)", [vec_stats]
    )
    if not vec_stats["same_winner"]:
        failures.append("scalar and vectorised paths disagree on the winner")
    if vec_stats["speedup"] < 3.0:
        failures.append(f"vectorised speedup {vec_stats['speedup']:.2f}x < 3x")
    print(
        f"\nvectorised lowering: {vec_stats['speedup']:.2f}x faster rank-order, "
        f"same winner {vec_stats['winner']}"
    )

    rounds = 2 if args.history else 1
    tune_rows = tune_walltime(24 if args.quick else size, args.history, rounds)
    print_series("scalar vs vectorised full tune (history rounds)", tune_rows)

    art_stats = artifact_cache_reuse(24 if args.quick else size)
    print_series("cross-request artifact-cache reuse", [art_stats])
    if art_stats["warm_analysis_runs"] != 0:
        failures.append(
            f"repeat request ran analysis {art_stats['warm_analysis_runs']} times"
        )
    print(
        f"\nartifact cache: repeat request ran analysis "
        f"{art_stats['warm_analysis_runs']} times "
        f"({art_stats['artifact_cache_hits']} cache hits)"
    )

    if args.json:
        from conftest import write_bench_json

        write_bench_json(
            args.json,
            "bench_eval_path",
            {
                "size": size,
                "compile_cache": cc_stats,
                "vectorised_rank_order": vec_stats,
                "tune_walltime": tune_rows,
                "artifact_cache": art_stats,
            },
        )
        print(f"json -> {args.json}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("\neval-path acceptance: all criteria met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
