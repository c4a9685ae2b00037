"""Measured tuning: the paper's empirical loop through evaluation backends.

The analytical model of Section 4.3 is a *pruning* device — the paper picks
the final mapping by running the shortlisted candidates on the machine.  This
example reproduces that method with the ``hybrid:model>measure-py?top=K``
backend: the model prices the whole space, the measured backend runs the
``lower-py-vec`` stage artifact of the top-K survivors once, counting what
each thread block does, and prices the worst block on the GPU model; the
measured winner is what gets cached — with ``measurement.kind`` provenance,
under a fingerprint distinct from any model-priced request for the same
kernel.

Run with:  python examples/measured_tuning.py
"""

import tempfile
from pathlib import Path

from repro import TuningCache, autotune
from repro.autotune import SpaceOptions, tuning_fingerprint
from repro.kernels import get_kernel

SEED = 0
SPACE = SpaceOptions(
    thread_counts=(16, 32),
    block_counts=(4, 8),
    tile_candidates_per_geometry=3,
)
HYBRID = "hybrid:model>measure-py?top=4"


def main() -> None:
    kernel = get_kernel("matmul")
    program = kernel.build(m=16, n=16, k=16)
    cache_path = Path(tempfile.gettempdir()) / "repro_measured_tuning.json"
    cache_path.unlink(missing_ok=True)
    cache = TuningCache(cache_path)

    print("== model-priced tuning (the default backend) ==")
    model_report = autotune(program, space_options=SPACE, seed=SEED, cache=cache)
    print(model_report.summary())
    print(f"backend: {model_report.backend}\n")

    print(f"== hybrid tuning: {HYBRID} ==")
    hybrid_report = autotune(
        program, space_options=SPACE, seed=SEED, cache=cache, backend=HYBRID
    )
    print(hybrid_report.summary())
    print(f"backend: {hybrid_report.backend}")
    best = hybrid_report.best
    print(f"winner provenance: measurement.kind = {best.measurement.kind}")
    print(f"worst block counted: {best.measurement.metadata['worst_block']}")
    model_priced = sum(1 for r in hybrid_report.results if r.measurement_kind == "model")
    measured = sum(
        1 for r in hybrid_report.results if r.measurement_kind == "measured-py"
    )
    print(f"candidates: {model_priced} stayed model-priced, {measured} re-measured\n")

    print("== provenance separation in the cache ==")
    assert model_report.fingerprint != hybrid_report.fingerprint
    assert tuning_fingerprint(program, space_options=SPACE, seed=SEED) == (
        model_report.fingerprint
    )
    entry = cache.peek(hybrid_report.fingerprint)
    print(f"entries: {len(cache)} (model-priced and measured never share a key)")
    print(f"cached hybrid entry best kind: {entry['best']['measurement']['kind']}")
    print(f"per-kind counts: {cache.measurement_kind_counts()}")


if __name__ == "__main__":
    main()
