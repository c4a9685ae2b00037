"""The equivalence corpus: what the compiler and the lowerings produce, by digest.

A refactor of the polyhedral layer, the planner or the lowering must leave
every output byte-identical.  This script records that output once, in
``tests/fixtures/equivalence.json``, and compares a tree against it:

* **configurations** — one row per point of the grid 6 kernels × {check,
  default} sizes × blocks {4, 16, 32} × threads {32, 64, 256} × tiles
  {searched, 1, 2, 4, 16, 64} × {gpu + hoisting, cell}: the sha256 of the
  plan summary, the remap offsets, the offset definitions, the block
  workload, the launch geometry and the ``program_to_c`` text of the mapped
  program, plus the modelled time as ``float.hex``.  A configuration the
  machine refuses records the refusal instead.  jacobi2d's copy nests take
  about a second a scan, so its C text is recorded for the searched and
  unit tiles only.
* **lowerings** — the ``lower-py`` and ``lower-py-vec`` text of the six
  kernels under ``lowering_oracle.MAPPINGS`` and of the 300 derandomized
  ``lowering_oracle`` programs (200 unmapped, 100 mapped), keyed by
  ``LOWERING_REVISION``: a revision bump is the one reason for the text to
  move, and it records a new column instead of editing the old one.

Usage (from the repository root)::

    PYTHONPATH=src python tests/equivalence.py --write   # re-record the file
    PYTHONPATH=src python tests/equivalence.py --check   # compare every row

A change that moves a row on purpose re-records the file and names the
moved rows and the reason.  Tier-1 (``tests/test_equivalence.py``) checks a
stratified subset of the rows; ``--check`` checks them all.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import lowering_oracle as oracle  # noqa: E402
from hypothesis import HealthCheck, assume, given, settings, strategies as st  # noqa: E402

from repro.codegen import emit_python_source, emit_python_source_vectorized  # noqa: E402
from repro.codegen.lower import LOWERING_REVISION  # noqa: E402
from repro.compiler import CompilationSession  # noqa: E402
from repro.core.options import MappingOptions  # noqa: E402
from repro.ir.printer import program_to_c  # noqa: E402
from repro.kernels import available_kernels, get_kernel  # noqa: E402
from repro.machine.gpu import GPUPerformanceModel, KernelLaunch  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "equivalence.json"

SIZES = ("check", "default")
BLOCKS = (4, 16, 32)
THREADS = (32, 64, 256)
#: ``None``: the Section-4.3 search picks the tile sizes
TILES: Tuple[Optional[int], ...] = (None, 1, 2, 4, 16, 64)
TARGETS = ("gpu", "cell")
#: generated programs in the lowering rows
UNMAPPED, MAPPED = 200, 100


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- configurations --------------------------------------------------------------------
def configuration_key(kernel: str, size: str, blocks: int, threads: int, tile, target: str) -> str:
    return f"{kernel}/{size}/b{blocks}/t{threads}/{'searched' if tile is None else tile}/{target}"


def configuration_grid(kernels: Iterable[str] = ()) -> List[Tuple]:
    """Every ``(kernel, size, blocks, threads, tile, target)`` of the grid."""
    return [
        (kernel, size, blocks, threads, tile, target)
        for kernel in (kernels or available_kernels())
        for size in SIZES
        for blocks in BLOCKS
        for threads in THREADS
        for tile in TILES
        for target in TARGETS
    ]


def with_c_text(kernel: str, tile) -> bool:
    return kernel != "jacobi2d" or tile in (None, 1)


@functools.lru_cache(maxsize=None)
def _program(kernel: str, size: str):
    entry = get_kernel(kernel)
    return entry.build_check() if size == "check" else entry.build()


def configuration_row(
    kernel: str, size: str, blocks: int, threads: int, tile, target: str, c_text: bool = True
) -> Dict:
    """The digests of one configuration, compiled in a fresh session.

    ``c_text=False`` leaves out the ``program_to_c`` digest (the slow part
    for jacobi2d).
    """
    entry = get_kernel(kernel)
    options = MappingOptions(
        num_blocks=blocks,
        threads_per_block=threads,
        tile_sizes=None if tile is None else {loop: tile for loop in entry.tile_loops},
        target=target,
        hoisting=target == "gpu",
    )
    try:
        mapped = CompilationSession(_program(kernel, size), options=options).compile()
    except ValueError as refusal:
        return {"refused": sha(f"{type(refusal).__name__}: {refusal}")}
    specs = mapped.plan.specs() if mapped.plan is not None else []
    launch = KernelLaunch(
        workload=mapped.workload,
        geometry=mapped.geometry,
        global_sync_rounds=mapped.global_sync_rounds,
    )
    try:
        time_ms = float(GPUPerformanceModel().execution_time_us(launch) / 1000.0).hex()
    except ValueError as refusal:  # the block does not fit a multiprocessor
        time_ms = f"refused: {refusal}"
    row = {
        "plan": sha(mapped.plan.summary() if mapped.plan is not None else "no plan"),
        "offsets": sha(repr([spec.offsets for spec in specs])),
        "offset_definitions": sha(repr([spec.offset_definitions for spec in specs])),
        "workload": sha(repr(mapped.workload)),
        "geometry": sha(repr(mapped.geometry)),
        "model_time_ms": time_ms,
    }
    if c_text and with_c_text(kernel, tile):
        row["c"] = sha(program_to_c(mapped.program))
    return row


# -- lowerings -------------------------------------------------------------------------
_HYPOTHESIS = dict(
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=list(HealthCheck),
)


def source_digest(program, configuration=None) -> str:
    """A drawn program (its text and statement domains) and mapping, by digest."""
    domains = [str(statement.domain) for statement in program.statements.values()]
    return sha("\n".join([program_to_c(program), *domains, str(configuration)]))


def generated_programs() -> Iterator[Tuple[str, object]]:
    """``(key, program)`` for the derandomized generated programs.

    A key names the drawn source program (and mapping) by digest, not by
    position: another hypothesis version may draw other programs, which
    are then unrecorded rather than moved.
    """
    drawn: List[Tuple[str, object]] = []

    @settings(max_examples=UNMAPPED, **_HYPOTHESIS)
    @given(oracle.programs())
    def draw_unmapped(program):
        drawn.append((f"unmapped/{source_digest(program)[:16]}", program))

    @settings(max_examples=MAPPED, **_HYPOTHESIS)
    @given(st.data())
    def draw_mapped(data):
        program = data.draw(oracle.programs(mappable=True))
        configuration = data.draw(oracle.configurations(program))
        mapped = oracle.mapped_program(program, configuration)
        assume(mapped is not None)
        drawn.append((f"mapped/{source_digest(program, configuration)[:16]}", mapped))

    draw_unmapped()
    draw_mapped()
    return iter(drawn)


def kernel_programs() -> Iterator[Tuple[str, object]]:
    for name in available_kernels():
        for tile, scratchpad in oracle.MAPPINGS:
            key = f"kernel/{name}/{tile}{'-scratchpad' if scratchpad else ''}"
            yield key, oracle.mapped_kernel(name, tile, scratchpad)


def lowering_row(program) -> Dict:
    return {
        "program": sha(program_to_c(program)),
        "lower-py": sha(emit_python_source(program)),
        "lower-py-vec": sha(emit_python_source_vectorized(program)),
    }


def lowering_rows(sources: Iterable[Tuple[str, object]]) -> Dict[str, Dict]:
    return {key: lowering_row(program) for key, program in sources}


# -- the file --------------------------------------------------------------------------
def load() -> Dict:
    return json.loads(FIXTURE.read_text())


def dumps(corpus: Dict) -> str:
    """The corpus as JSON, one row a line, keys sorted: a moved row is a one-line diff."""

    def table(rows: Dict, indent: str) -> str:
        lines = [
            f"{indent}{json.dumps(key)}: {json.dumps(rows[key], sort_keys=True)}"
            for key in sorted(rows)
        ]
        return "{\n" + ",\n".join(lines) + "\n" + indent[:-1] + "}"

    lowerings = ",\n".join(
        f"  {json.dumps(revision)}: {table(rows, '   ')}"
        for revision, rows in sorted(corpus["lowerings"].items())
    )
    return (
        f'{{\n "configurations": {table(corpus["configurations"], "  ")},\n'
        f' "lowerings": {{\n{lowerings}\n }}\n}}\n'
    )


def record(log: Callable[[str], None] = print) -> Dict:
    started = time.perf_counter()
    configurations = {}
    for point in configuration_grid():
        configurations[configuration_key(*point)] = configuration_row(*point)
    log(f"{len(configurations)} configurations in {time.perf_counter() - started:.1f} s")
    started = time.perf_counter()
    lowerings = lowering_rows([*kernel_programs(), *generated_programs()])
    log(f"{len(lowerings)} lowerings in {time.perf_counter() - started:.1f} s")
    # the text of other revisions stays as it was recorded
    revisions = load()["lowerings"] if FIXTURE.exists() else {}
    return {
        "configurations": configurations,
        "lowerings": {**revisions, str(LOWERING_REVISION): lowerings},
    }


def mismatches(
    recorded: Dict,
    points: Sequence[Tuple],
    lowering_sources: Iterable[Tuple[str, object]],
    c_text: Callable[[str], bool] = lambda kernel: True,
    unrecorded: Optional[List[str]] = None,
) -> List[str]:
    """The rows among ``points`` and ``lowering_sources`` that differ from ``recorded``.

    ``c_text(kernel)`` false: that kernel's C text is not compared.  A
    lowering source without a recorded row counts as moved, unless an
    ``unrecorded`` list is given to collect its key.
    """
    moved = []
    for point in points:
        key = configuration_key(*point)
        expected = dict(recorded["configurations"].get(key, {}))
        with_c = c_text(point[0])
        if not with_c:
            expected.pop("c", None)
        got = configuration_row(*point, c_text=with_c)
        if got != expected:
            fields = sorted(f for f in {*got, *expected} if got.get(f) != expected.get(f))
            moved.append(f"{key}: {', '.join(fields)}")
    pinned = recorded["lowerings"].get(str(LOWERING_REVISION))
    if pinned is None:
        return [*moved, f"lowerings: nothing recorded for revision {LOWERING_REVISION}"]
    for key, program in lowering_sources:
        if key not in pinned:
            if unrecorded is None:
                moved.append(f"lowering {key}: not recorded")
            else:
                unrecorded.append(key)
            continue
        got = lowering_row(program)
        if got != pinned[key]:
            fields = sorted(f for f in got if got[f] != pinned[key].get(f))
            moved.append(f"lowering {key}: {', '.join(fields)}")
    return moved


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="re-record the corpus")
    mode.add_argument("--check", action="store_true", help="compare every row")
    args = parser.parse_args(argv)
    if args.write:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(dumps(record()))
        print(f"wrote {FIXTURE}")
        return 0
    started = time.perf_counter()
    unrecorded: List[str] = []
    moved = mismatches(
        load(),
        configuration_grid(),
        [*kernel_programs(), *generated_programs()],
        unrecorded=unrecorded,
    )
    for line in moved:
        print(line)
    print(
        f"{len(moved)} rows moved, {len(unrecorded)} generated programs not in the corpus "
        f"(another hypothesis version draws others); checked in "
        f"{time.perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
