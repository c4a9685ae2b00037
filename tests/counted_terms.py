"""Counted against predicted: a block's work as ``measure-py`` counts it and the model assumes it.

``compiler/passes.py::_build_workload`` predicts one block's
:class:`~repro.machine.gpu.BlockWorkload` from a representative tile (the
first one) and spreads the statement instances evenly over the blocks; the
``measure-py:`` backend counts every block of one run of the lowered program
(``repro.codegen.lower.TERMS``).  This script tabulates both, per kernel:

* the tuned winner at the size ``tests/test_decisions_unchanged.py`` tunes
  the kernel at (the model's pick, which the counted re-rank keeps);
* the kernel's check program under 3-wide tiles on 4 blocks, which do not
  divide its extents.

A term whose prediction differs from the counted mean or worst block gets
its causes:

* **hoisting** — the model prices each buffer's copies at the depth
  Section 4.2's hoisting allows, but the code copies every buffer in the
  tile body, so a term the hoisting moved is off;
* **partial tiles** — a tile size does not divide its loop's extent, so the
  last tiles (and the blocks holding them) copy less than the
  representative full tile;
* **boundary tiles** — every tile is whole and hoisting moved nothing, but
  the tiles at the array's edges copy a different halo than the
  representative first tile;
* **one sync per phase** (``syncs`` only) — the model charges one sync per
  copy occurrence, the code syncs once after all of a tile's copy-ins and
  once before its copy-outs.  ``measure-py:`` prices the model's count
  there, the larger of the two.

The table is checked in as ``tests/fixtures/counted_terms.md`` and tier-1
compares it with a fresh run (``tests/test_counted_terms.py``).  Rewrite it
with ``PYTHONPATH=src python tests/counted_terms.py --write``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.autotune import SpaceOptions, autotune  # noqa: E402
from repro.autotune.backends import MeasuredPythonBackend  # noqa: E402
from repro.autotune.backends.measured_py import STAGE  # noqa: E402
from repro.autotune.space import Configuration  # noqa: E402
from repro.codegen.lower import TERMS  # noqa: E402
from repro.compiler import CompilationSession  # noqa: E402
from repro.kernels import get_kernel  # noqa: E402
from repro.machine.gpu import BlockWorkload  # noqa: E402
from repro.machine.spec import GEFORCE_8800_GTX  # noqa: E402
from lowering_oracle import run_source, seeded_arrays  # noqa: E402

TABLE = Path(__file__).resolve().parent / "fixtures" / "counted_terms.md"

#: the decision pins' sizes of the single-device kernels, and their space
SIZES = {
    "conv2d": {"height": 16, "width": 16, "kernel": 3},
    "jacobi1d": {"size": 1024},
    "jacobi2d": {"height": 16, "width": 16},
    "matmul": {"m": 32, "n": 32, "k": 32},
    "mpeg4_me": {"height": 16, "width": 16, "window": 2},
}
SPACE = SpaceOptions(thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2)


def predicted(workload: BlockWorkload) -> Tuple[float, ...]:
    """``_build_workload``'s block in the order of ``TERMS``."""
    instances = workload.compute_instances
    return (
        instances,
        instances * workload.global_accesses_per_instance,
        instances * workload.shared_accesses_per_instance,
        workload.copy_in_elements,
        workload.copy_out_elements,
        workload.copy_occurrences,
        workload.copy_occurrences + workload.extra_block_syncs,
    )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def rows(label: str, program, configuration: Configuration) -> List[Tuple]:
    """One row per term: label, configuration, term, predicted, worst block, mean block, cause."""
    session = CompilationSession(program)
    backend = MeasuredPythonBackend()
    backend.prepare(session, GEFORCE_8800_GTX)
    worst = backend.measure(configuration).metadata["worst_block"]
    # the mean is over one run of the same replayed source the backend ran
    artifacts = session.with_passes((*session.stage_names, STAGE)).replay_artifacts(
        config=configuration, upto=STAGE
    )
    mapped = artifacts["mapping"].value
    _arrays, blocks = run_source(
        artifacts[STAGE].value, mapped.program, seeded_arrays(mapped.program)
    )
    mean = {
        term: statistics.fmean(terms[index] for terms in blocks.values())
        for index, term in enumerate(TERMS)
    }
    unhoisted = session.replay(
        options=configuration.to_options(session.options).with_overrides(hoisting=False)
    )
    extents = session.analysis().extents
    partial = any(
        extents[loop] % size
        for sizes in (mapped.tile_sizes, mapped.outer_tile_sizes)
        for loop, size in sizes.items()
    )
    out = []
    for index, term in enumerate(TERMS):
        model = predicted(mapped.workload)[index]
        causes = []
        if not (_close(model, mean[term]) and _close(model, worst[term])):
            if term == "syncs":
                causes.append("one sync per phase")
            else:
                if not _close(model, predicted(unhoisted.workload)[index]):
                    causes.append("hoisting")
                if partial:
                    causes.append("partial tiles")
                if not causes:
                    causes.append("boundary tiles")
        out.append(
            (label, configuration.key(), term, model, worst[term], mean[term], ", ".join(causes))
        )
    return out


def table() -> str:
    lines = [
        "# Counted against predicted block work",
        "",
        "Generated by `tests/counted_terms.py` (its docstring defines the rows and the",
        "causes); `worst` is the block `measure-py:` prices, `mean` the average over",
        "the blocks that did any work.",
        "",
        "| kernel | configuration | term | predicted | worst block | mean block | cause |",
        "|---|---|---|---:|---:|---:|---|",
    ]
    for name, sizes in SIZES.items():
        kernel = get_kernel(name)
        program = kernel.build(**sizes)
        winner = autotune(program, space_options=SPACE, cache=None).best.configuration
        check = kernel.build_check()
        loops = kernel.tile_loops
        non_dividing = Configuration.make(4, 4, {loop: 3 for loop in loops}, True)
        for label, source, configuration in (
            (f"{name} {'x'.join(str(v) for v in sizes.values())}", program, winner),
            (f"{name} check", check, non_dividing),
        ):
            for label_, key, term, model, worst, mean, cause in rows(label, source, configuration):
                lines.append(
                    f"| {label_} | `{key}` | {term} | {model:g} | {worst:g} | {mean:g} | {cause} |"
                )
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {TABLE.name}")
    args = parser.parse_args(argv)
    text = table()
    if args.write:
        TABLE.write_text(text)
        print(f"wrote {TABLE}")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
