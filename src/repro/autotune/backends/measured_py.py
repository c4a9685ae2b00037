"""The measured-Python backend: run the ``lower-py-vec`` artifact once and price its counts.

The paper's tuning loop *runs* every shortlisted mapping on the GPU and
keeps the fastest.  Without the GPU, this backend ranks by what the GPU
would be asked to do: each candidate replays through a derived session whose
pass list ends in the ``lower-py-vec`` terminal pass (so the executable
source is a real, fingerprinted, ``counting_stage_runs``-visible stage
artifact), the source is compiled with ``exec`` and run once, and the run
returns what each thread block did — the terms of
:data:`~repro.codegen.lower.TERMS`: compute instances, global and scratchpad
accesses, copy-in and copy-out elements, copy occurrences and syncs.  The
worst block's counts become a :class:`~repro.machine.gpu.BlockWorkload`,
priced by :class:`~repro.machine.gpu.GPUPerformanceModel` with the mapped
launch geometry and sync rounds.

The model's own workload (``compiler/passes.py::_build_workload``) is one
representative tile spread evenly over the blocks; the count sees every
block, boundary and partial tiles included, and every copy where the
spliced code puts it: in the tile body, since the splice does not hoist
copies (only the model prices hoisting; see ``tests/counted_terms.py``).  The reported milliseconds are therefore modelled GPU time, on the
``model:`` scale, and the count depends on the mapping only — not on the
input values, the host or the load on it — so a measurement is
deterministic: the seed does not fingerprint, and candidates may be measured
in parallel.  The fingerprint carries the code generator's
:data:`~repro.codegen.lower.LOWERING_REVISION`, which moves when the
counting does.

The backend also checks what it ran.  On a spot-checked request the
would-be winner's ``lower-py-vec`` artifact — already in the session's
artifact memo, so no pass runs — is run once more on seeded inputs at the
tuned size, and its arrays are compared (``np.allclose``) with one run of
the *unmapped* program's lowering on the same inputs.  That reference runs
once per :meth:`~MeasuredPythonBackend.prepare`, stays read-only and is
dropped on pickle.  The interpreter stays the lowerings' oracle in the
tests (``tests/test_lowering_differential.py``); it is too slow to run at
the tuned size.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.codegen.emit_py_vec import emit_python_source_vectorized
from repro.codegen.lower import LOWERING_REVISION, TERMS, block_terms
from repro.compiler import CompilationSession
from repro.ir.program import Program
from repro.machine.gpu import BlockWorkload, GPUPerformanceModel, KernelLaunch
from repro.machine.spec import GPUSpec

from repro.autotune.backends.base import (
    EvaluationBackend,
    Measurement,
    register_backend,
    seeded_inputs,
)

#: the lowering terminal pass a candidate is run through
STAGE = "lower-py-vec"


def seeded_arrays(
    program: Program, inputs: Mapping[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Every array of ``program``: a copy of its entry in ``inputs``, else zeros."""
    return {
        array.name: inputs[array.name].copy()
        if array.name in inputs
        else np.zeros(tuple(int(extent) for extent in array.shape))
        for array in program.arrays.values()
    }


def run_lowered(
    source: str, program: Program, arrays: Dict[str, np.ndarray], params: Mapping[str, int]
) -> Tuple[Dict[Any, Any], Tuple[Any, ...]]:
    """Run one lowered module's kernel over ``arrays`` (in place): its blocks and ``COUNTERS``."""
    namespace: Dict[str, Any] = {}
    exec(compile(source, f"<{STAGE}:{program.name}>", "exec"), namespace)
    return namespace["kernel"](arrays, dict(params)), namespace["COUNTERS"]


def counted_workload(terms: Tuple[int, ...], element_size: int = 4) -> BlockWorkload:
    """One block's counted :data:`~repro.codegen.lower.TERMS` as the model's workload.

    Each copy occurrence pays one sync in the model; a counted sync beyond
    those is an extra one.
    """
    instances, global_accesses, shared_accesses, copy_in, copy_out, occurrences, syncs = terms
    return BlockWorkload(
        compute_instances=instances,
        global_accesses_per_instance=global_accesses / instances if instances else 0.0,
        shared_accesses_per_instance=shared_accesses / instances if instances else 0.0,
        copy_in_elements=copy_in,
        copy_out_elements=copy_out,
        copy_occurrences=occurrences,
        extra_block_syncs=max(syncs - occurrences, 0),
        element_size=element_size,
    )


@register_backend
class MeasuredPythonBackend(EvaluationBackend):
    """Run each mapping's lowered Python once, counting each block's work, and price it."""

    scheme = "measure-py"
    kind = "measured-py"
    # the spot-check's reference arrays: cheaper to re-run in a worker than to ship
    _TRANSIENT = ("_reference",)

    def __init__(self) -> None:
        super().__init__()
        self._lowering_session: Optional[CompilationSession] = None
        #: (seeded inputs, the unmapped lowering's outputs) of :meth:`check`
        self._reference: Optional[Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]] = None

    # -- lifecycle ---------------------------------------------------------------
    def prepare(self, session: CompilationSession, spec: GPUSpec, seed: int = 0) -> None:
        super().prepare(session, spec, seed=seed)
        self._reference = None
        # A derived session appends the lowering terminal pass while adopting
        # the shared session's frozen artifacts — affine analysis still runs
        # once per request, however many candidates get measured.
        if STAGE in session.stage_names:
            self._lowering_session = session
        else:
            self._lowering_session = session.with_passes((*session.stage_names, STAGE))

    # -- measurement -------------------------------------------------------------
    def _lowered(self, configuration: Any) -> Tuple[str, Any]:
        """The candidate's ``lower-py-vec`` source and its mapped kernel."""
        if self._lowering_session is None:
            raise RuntimeError("backend was not prepared")
        artifacts = self._lowering_session.replay_artifacts(config=configuration, upto=STAGE)
        return artifacts[STAGE].value, artifacts["mapping"].value

    def _measure(self, configuration: Any) -> Measurement:
        _session, spec = self._require_prepared()
        # Only the replay and the pricing sit in measure()'s ValueError →
        # infeasible net: a ValueError there is the compiler or the machine
        # refusing the mapping.  A failing run is a codegen bug and must
        # surface loudly, never masquerade as an "infeasible" candidate.
        source, mapped = self._lowered(configuration)
        program = mapped.program
        try:
            # the counts do not depend on the values, so every array starts cleared
            blocks, counters = run_lowered(
                source, program, seeded_arrays(program, {}), mapped.param_binding
            )
        except ValueError as error:
            raise RuntimeError(
                f"emitted Python kernel for {program.name!r} failed at runtime: {error}"
            ) from error
        counted = list(block_terms(blocks, counters).values())
        if not counted:
            # every mapping counts work: a silent run is a lowering bug too
            raise RuntimeError(f"emitted Python kernel for {program.name!r} counted no work")

        model = GPUPerformanceModel(spec)
        element_size = mapped.workload.element_size
        threads = mapped.geometry.threads_per_block
        worst = max(
            counted,
            key=lambda terms: model.block_cycles(counted_workload(terms, element_size), threads),
        )
        launch = KernelLaunch(
            workload=counted_workload(worst, element_size),
            geometry=mapped.geometry,
            global_sync_rounds=mapped.global_sync_rounds,
        )
        time_us = model.execution_time_us(launch)
        metadata: Dict[str, Any] = {
            "cycles": time_us * spec.cycles_per_us,
            "breakdown": model.breakdown(launch),
            "shared_bytes_per_block": mapped.geometry.shared_memory_per_block_bytes,
            "worst_block": dict(zip(TERMS, worst)),
            "lowering": STAGE,
        }
        return Measurement(time_ms=time_us / 1000.0, kind=self.kind, metadata=metadata)

    # -- the spot-check ----------------------------------------------------------
    def check(self, configuration: Any) -> Optional[bool]:
        """Run the winner's lowering once on seeded inputs at the tuned size.

        Its arrays must match the unmapped program's lowering run on the same
        inputs; that reference runs once per :meth:`prepare`, and its arrays
        stay read-only.  The re-rank already lowered the winner, so its
        artifact comes from the session's memo and no pass runs.
        """
        source, mapped = self._lowered(configuration)
        if self._reference is None:
            original = mapped.original
            inputs = seeded_inputs(original, self._seed)
            expected = seeded_arrays(original, inputs)
            run_lowered(
                emit_python_source_vectorized(original), original, expected,
                mapped.param_binding,
            )
            expected = {name: expected[name] for name in inputs}
            for array in (*inputs.values(), *expected.values()):
                array.setflags(write=False)
            self._reference = (inputs, expected)
        inputs, expected = self._reference
        arrays = seeded_arrays(mapped.program, inputs)
        run_lowered(source, mapped.program, arrays, mapped.param_binding)
        return all(np.allclose(reference, arrays[name]) for name, reference in expected.items())

    # -- identity ----------------------------------------------------------------
    def signature(self) -> Dict[str, Any]:
        # the lowering revision is not the user's choice, so it is here but
        # not in uri(): counts from another revision are never served
        return {"scheme": self.scheme, "lowering": LOWERING_REVISION}

    def uri(self) -> str:
        return f"{self.scheme}:"

    def describe(self) -> str:
        return (
            f"run the {STAGE} stage artifact once, counting each block's work, "
            "and price the worst block on the GPU model"
        )
