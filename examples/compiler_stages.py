"""The staged compiler: sessions, stage artifacts, and replay-from-stage.

Compiles a matmul kernel through the `repro.compiler` pass pipeline
(analysis → tiling → scratchpad → mapping), inspects the per-stage artifacts
and timings, then replays two explicit configurations — showing that the
config-invariant affine-analysis artifact is computed once and reused, which
is what makes the autotuner's evaluate-hundreds-of-candidates loop cheap.

Run with:  PYTHONPATH=src python examples/compiler_stages.py
"""

from repro import CompilationSession, counting_stage_runs
from repro.autotune.space import Configuration
from repro.kernels import build_matmul_program


def demo() -> None:
    program = build_matmul_program(128, 128, 128)
    session = CompilationSession(program)

    # 1. Full compile: every stage runs, artifacts freeze on the session.
    mapped = session.compile()
    print("== cold compile ==")
    print(f"tile sizes: {mapped.tile_sizes}  geometry: {mapped.geometry}")

    # 2. Replay two explicit configurations from the tiling stage: the
    #    analysis artifact (dependence polyhedra, bands, extents) is reused.
    candidates = [
        Configuration.make(16, 64, {"i": 16, "j": 16, "k": 32}),
        Configuration.make(32, 128, {"i": 8, "j": 16, "k": 64}),
    ]
    print("\n== replaying candidates (analysis reused) ==")
    with counting_stage_runs() as runs:
        for config in candidates:
            replayed = session.replay(from_stage="tiling", config=config)
            print(
                f"{config.key():40s} shared="
                f"{replayed.geometry.shared_memory_per_block_bytes}B"
            )
    print(f"stage executions during the replays: {runs.counts}")
    assert "analysis" not in runs.counts, "replay must not re-run the analysis"

    # 3. Per-stage report: runs, wall time, artifact fingerprints.
    print("\n== stage report ==")
    for row in session.stage_report():
        kind = "config" if row["config_dependent"] else "invariant"
        print(
            f"{row['stage']:<12} {kind:<10} runs={row['runs']} "
            f"total={row['total_ms']:.1f}ms  fingerprint={row['fingerprint']}"
        )

    # 4. The optional terminal pass renders the mapped program as C-like text.
    print("\n== emitted kernel (head) ==")
    print("\n".join(session.render_c().splitlines()[:12]))


def main() -> None:
    with counting_stage_runs() as total:
        demo()
    print(f"\nstage executions of the whole demo: {total.counts}")


if __name__ == "__main__":
    main()
