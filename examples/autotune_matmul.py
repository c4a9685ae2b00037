"""Empirical autotuning of matmul with a persistent compilation cache.

Tunes the mapping of a matmul kernel over the model-pruned configuration
space (Section 4.3 used as a pruning device, final pick empirical), shows the
parallel-evaluation path producing the identical report, and demonstrates the
warm-cache fast path: the second request performs zero pipeline compiles.

Run with:  python examples/autotune_matmul.py
"""

import tempfile
from pathlib import Path

from repro import TuningCache, autotune, counting_compiles
from repro.autotune import SpaceOptions
from repro.kernels import get_kernel

SEED = 0


def main() -> None:
    kernel = get_kernel("matmul")
    program = kernel.build(m=128, n=128, k=128)
    space = SpaceOptions(
        thread_counts=(64, 128, 256),
        block_counts=(16, 32),
        tile_candidates_per_geometry=3,
    )

    print("== cold tuning run (parallel evaluation, 4 workers) ==")
    cache_path = Path(tempfile.gettempdir()) / "repro_autotune_matmul.json"
    cache_path.unlink(missing_ok=True)
    cache = TuningCache(cache_path)
    with counting_compiles() as compiles:
        report = autotune(
            program, strategy="pruned", max_workers=4, cache=cache, seed=SEED,
            space_options=space,
        )
    print(report.summary())
    print(f"pipeline compiles: {compiles.count}\n")

    print("== identical request, warm cache ==")
    with counting_compiles() as compiles:
        warm = autotune(
            program, strategy="pruned", max_workers=4, cache=TuningCache(cache_path),
            seed=SEED, space_options=space,
        )
    print(warm.summary())
    print(f"pipeline compiles: {compiles.count} (served from {cache_path})\n")
    assert compiles.count == 0
    assert warm.best.to_dict() == report.best.to_dict()

    print("== serial evaluation reproduces the parallel report ==")
    serial = autotune(
        program, strategy="pruned", max_workers=1, seed=SEED, space_options=space
    )
    assert serial.to_dict() == report.to_dict()
    print(f"identical best over {serial.num_evaluations} evaluations: "
          f"{serial.best.configuration.key()}")


if __name__ == "__main__":
    main()
