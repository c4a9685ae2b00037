"""Correctness checks of the end-to-end benchmark.

Every check returns a list of failure messages (empty = passed) and never
raises past the harness: a mismatch is one *failed operation* of the request
it belongs to, counted in the result line's ``failed`` next to ``attempted``.
All of them run outside the timed sections.

The output check follows the compiler rule "the reference comes from an
independent interpreter, never from the compiler under test": the winning
configuration is replayed through the ``lower-py`` terminal pass on the
kernel's small ``build_check()`` program, the emitted Python is executed, and
its arrays are compared with what :func:`repro.runtime.interpreter.run_program`
computes on the *untransformed* check program.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.compiler import DEFAULT_PASSES, CompilationSession
from repro.runtime.interpreter import run_program


def seeded_inputs(program: Any, seed: int) -> Dict[str, np.ndarray]:
    """Seeded contents for every global array of the untransformed program."""
    rng = np.random.default_rng(seed)
    return {
        array.name: rng.random(tuple(int(e) for e in array.shape))
        for array in program.arrays.values()
        if not array.is_local
    }


def reference_outputs(
    check_program: Any, inputs: Mapping[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """The interpreter's result on the untransformed check program."""
    context = run_program(check_program, inputs=inputs, count_accesses=False)
    return {name: np.array(context.data(name)) for name in inputs}


class WinnerOutputCheck:
    """Replays winners of one kernel on its check program (memoised per winner)."""

    def __init__(self, kernel: Any, seed: int) -> None:
        self.kernel = kernel
        self.program = kernel.build_check()
        self.inputs = seeded_inputs(self.program, seed)
        self.expected = reference_outputs(self.program, self.inputs)
        self.session = CompilationSession(
            self.program, passes=(*DEFAULT_PASSES, "lower-py")
        )
        self._verdicts: Dict[str, List[str]] = {}

    def run(self, configuration: Any) -> List[str]:
        key = configuration.key()
        if key not in self._verdicts:
            self._verdicts[key] = self._replay(configuration)
        return self._verdicts[key]

    def _replay(self, configuration: Any) -> List[str]:
        try:
            artifacts = self.session.replay_artifacts(
                from_stage="tiling", config=configuration, upto="lower-py"
            )
            mapped = artifacts["mapping"].value
            namespace: Dict[str, Any] = {}
            exec(  # noqa: S102 - the emitted kernel is the artifact under test
                compile(artifacts["lower-py"].value, f"<check:{self.kernel.name}>", "exec"),
                namespace,
            )
            # the mapped program adds scratchpad-local buffers to the globals
            arrays = {
                array.name: np.zeros(tuple(int(e) for e in array.shape))
                for array in mapped.program.arrays.values()
                if array.is_local
            }
            arrays.update({name: value.copy() for name, value in self.inputs.items()})
            namespace["kernel"](arrays, dict(mapped.param_binding))
        except Exception as error:  # boundary: a crash is a failed check, not a crashed bench
            return [f"{self.kernel.name}: winner replay raised {type(error).__name__}: {error}"]
        return compare_outputs(self.kernel.name, self.expected, arrays)


def compare_outputs(
    label: str, expected: Mapping[str, np.ndarray], actual: Mapping[str, np.ndarray]
) -> List[str]:
    """``np.allclose`` over every array of the untransformed program."""
    failures = []
    for name, reference in expected.items():
        if name not in actual or not np.allclose(reference, actual[name]):
            failures.append(f"{label}: output array {name!r} differs from the interpreter")
    return failures


def check_cold_report(report: Any, provenance: Optional[str]) -> List[str]:
    """A cold answer was really tuned, is feasible and no worse than the baseline."""
    failures = []
    if report.from_cache:
        failures.append(f"{report.kernel_name}: cold request answered from a cache")
    if not report.best.feasible:
        failures.append(f"{report.kernel_name}: infeasible winner")
    if provenance is not None and report.best.measurement_kind != provenance:
        failures.append(
            f"{report.kernel_name}: winner provenance "
            f"{report.best.measurement_kind!r}, expected {provenance!r}"
        )
    if report.best.measurement_kind == report.baseline.measurement_kind and (
        report.best.time_ms > report.baseline.time_ms
    ):
        failures.append(f"{report.kernel_name}: winner slower than the baseline mapping")
    return failures


def check_hit(report: Any, stored: Mapping[str, Any], compiles: float) -> List[str]:
    """A warm answer is ``from_cache``, byte-equal to the stored report, compile-free."""
    failures = []
    if not report.from_cache:
        failures.append(f"{report.kernel_name}: expected a cache hit, got a tuning run")
    if report.to_dict() != stored:
        failures.append(f"{report.kernel_name}: hit differs from the report stored at set-up")
    if compiles:
        failures.append(f"{report.kernel_name}: {compiles:g} pipeline compiles on a hit")
    return failures


def check_exactly_once(tuning_runs: int, distinct_fingerprints: int) -> List[str]:
    excess = tuning_runs - distinct_fingerprints
    if excess:
        return [f"fleet ran {tuning_runs} tunes for {distinct_fingerprints} fingerprints"]
    return []


def check_counter_matches(label: str, observed: float, counted: float) -> List[str]:
    """What the harness classified equals what the program's own counter saw."""
    if observed != counted:
        return [f"{label}: harness saw {observed:g}, program counted {counted:g}"]
    return []
